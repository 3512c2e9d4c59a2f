"""Dense semidefinite programming: a small interior-point solver and the
channel-simulation programs built on it.

The solver handles Hermitian block problems, real symmetric or complex, in
primal standard form

    minimize    <C, X>
    subject to  <A_i, X> = b_i,   X >= 0 (blockwise),

under the inner product <A, X> = Re Tr[A^dag X], with an infeasible-start
primal-dual path-following iteration, Nesterov-Todd scaling and a fixed
fraction-to-boundary factor of 0.98.  An ``SdpProblem`` holds each block's
constraints as one (m, d_b, d_b) stack, zero where a constraint does not
touch the block.  The solver keeps the rows with a nonzero entry, flattened,
so A(X), A*(y), the Newton right-hand side and the Schur matrix
sum_b <A_j, W_b A_i W_b> are matrix products (Fujisawa-Kojima-Nakata 1997).
There is no real embedding: a block's dtype follows its data, so a block
with real data is solved in real arithmetic and a complex Hermitian block in
complex arithmetic.  The programs below build their constraints the same
way, one stack per group of rows, from the Hermitian basis and one
``proc.dual`` call on it.

Built on top of it:

* ``diamond_distance`` -- worst-case channel distance of a Hermitian Choi
  difference, via min 2 ||Tr_out Z||_inf s.t. Z >= 0, Z >= d * chi.
* ``optimize_program_trace`` / ``optimize_program_diamond`` /
  ``optimize_program_fidelity`` -- joint search over program states.
* ``optimize_choi_diamond`` -- diamond search over single-port Choi programs
  of the reduced port-based-teleportation map.

Returned programs are ``DensityMatrix`` values projected back to exact
feasibility by ``optim.project_program``, and all reported optima are
re-evaluated at the projected program, so every quoted value is attained by
the returned (feasible) program.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .channels import ChoiMatrix, DensityMatrix, as_matrix, bures_fidelity, trace_distance_cost
from .hermlin import hermitize, kron, partial_trace, spectral_norm
from .optim import project_program
from .processors import ProcessorMap

__all__ = [
    "SdpProblem",
    "SdpSolution",
    "hermitian_basis",
    "solve_sdp",
    "trace_norm_via_sdp",
    "diamond_distance",
    "optimize_program_trace",
    "optimize_program_diamond",
    "optimize_program_fidelity",
    "optimize_choi_diamond",
]

DEFAULT_TOL = 1e-8


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Real inner product <A, B> = Re Tr[A^dag B] = Re sum(conj(A) * B)."""
    return float(np.real(np.sum(np.conj(a) * b)))


def _coords(basis: np.ndarray, m: np.ndarray) -> np.ndarray:
    """<B_a, M> for every matrix B_a of a (k, n, n) stack."""
    return (basis.reshape(len(basis), -1).conj() @ m.ravel()).real


def hermitian_basis(n: int) -> np.ndarray:
    """Orthonormal basis of n x n Hermitian matrices (Tr[B_a B_b] = delta_ab)
    as one (n^2, n, n) stack: the n diagonal units, then for each k < l in
    row-major order the real and the imaginary off-diagonal pair."""
    out = np.zeros((n * n, n, n), dtype=complex)
    diag = np.arange(n)
    out[diag, diag, diag] = 1.0
    k, l = np.triu_indices(n, 1)
    a = n + 2 * np.arange(k.size)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    out[a, k, l] = out[a, l, k] = inv_sqrt2
    out[a + 1, k, l] = 1j * inv_sqrt2
    out[a + 1, l, k] = -1j * inv_sqrt2
    return out


@dataclass
class SdpProblem:
    """Block standard-form SDP: min <C, X>, <A_i, X> = b_i, X >= 0.

    ``objective`` holds one Hermitian (d_b, d_b) matrix per block and
    ``constraints`` one (m, d_b, d_b) stack per block, whose entry i is
    A_i's part in that block (a zero matrix where A_i does not touch it);
    entries are real symmetric or complex.  ``rhs`` holds b_1..b_m.
    """

    objective: List[np.ndarray]
    constraints: List[np.ndarray]
    rhs: np.ndarray

    def __post_init__(self):
        self.objective = [np.asarray(c) for c in self.objective]
        self.constraints = [np.asarray(a) for a in self.constraints]
        self.rhs = np.asarray(self.rhs, dtype=float)
        if self.rhs.ndim != 1:
            raise ValueError(f"SdpProblem: rhs has shape {self.rhs.shape}, expected (m,)")
        if len(self.constraints) != len(self.objective):
            raise ValueError(f"SdpProblem: {len(self.constraints)} constraint stacks "
                             f"for {len(self.objective)} blocks")
        for blk, (c, a) in enumerate(zip(self.objective, self.constraints)):
            d = c.shape[0] if c.ndim == 2 else 0
            if d < 1 or c.shape != (d, d):
                raise ValueError(f"SdpProblem: objective, block {blk}: shape {c.shape}")
            if a.shape != (self.rhs.size, d, d):
                raise ValueError(f"SdpProblem: constraints, block {blk}: shape {a.shape}, "
                                 f"expected {(self.rhs.size, d, d)}")
            # row 0 is the objective, row i + 1 constraint i
            rows = np.concatenate([c[None], a])
            dev = np.abs(rows - rows.conj().swapaxes(1, 2)).max(axis=(1, 2))
            bad = np.flatnonzero(dev > 1e-12 * np.maximum(1.0, np.abs(rows).max(axis=(1, 2))))
            if bad.size:
                who = "objective" if bad[0] == 0 else f"constraint {bad[0] - 1}"
                raise ValueError(f"SdpProblem: {who}, block {blk} is not Hermitian")

    @property
    def block_dims(self) -> List[int]:
        return [c.shape[0] for c in self.objective]


@dataclass
class SdpSolution:
    primal_blocks: List[np.ndarray]
    dual_vector: np.ndarray
    primal_objective: float
    dual_objective: float
    gap: float
    status: str  # optimal | max_iter | infeasible
    iterations: int
    residual_primal: float
    residual_dual: float
    # (primal_obj, dual_obj, res_primal, res_dual, mu) per iterate
    history: List[Tuple[float, float, float, float, float]] = field(default_factory=list)


class _NumericalBreakdown(Exception):
    """Interior-point linear algebra collapsed (indefinite or non-finite)."""


def _nt_scaling(x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """W with W S W = X for Hermitian positive definite X, S."""
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(s))):
        raise _NumericalBreakdown("non-finite iterate")
    wx, vx = np.linalg.eigh(hermitize(x))
    wx = np.clip(wx, 1e-300, None)
    rx = (vx * np.sqrt(wx)) @ vx.conj().T
    inner = hermitize(rx @ s @ rx)
    wi, vi = np.linalg.eigh(inner)
    wi = np.clip(wi, 1e-300, None)
    inner_inv_sqrt = (vi * (wi ** -0.5)) @ vi.conj().T
    return hermitize(rx @ inner_inv_sqrt @ rx)


def _chol(x: np.ndarray) -> np.ndarray:
    x = hermitize(x)
    if not np.all(np.isfinite(x)):
        raise _NumericalBreakdown("non-finite iterate")
    try:
        return np.linalg.cholesky(x)
    except np.linalg.LinAlgError:
        pass
    jitter = 1e-14 * max(1.0, float(np.trace(x).real) / x.shape[0])
    for _ in range(4):
        try:
            return np.linalg.cholesky(x + jitter * np.eye(x.shape[0]))
        except np.linalg.LinAlgError:
            jitter *= 1e3
    raise _NumericalBreakdown("cholesky failed")


def _max_step(l: np.ndarray, dx: np.ndarray) -> float:
    """sup { a : x + a dx >= 0 } (may be inf), given the Cholesky factor l of x."""
    if not np.all(np.isfinite(dx)):
        raise _NumericalBreakdown("non-finite direction")
    t = np.linalg.solve(l, np.linalg.solve(l, dx).conj().T)
    lam_min = float(np.linalg.eigvalsh(hermitize(t)).min())
    if lam_min >= 0.0:
        return math.inf
    return -1.0 / lam_min


def _step(tau: float, factors, dirs) -> float:
    """Fraction-to-boundary step: min(1, tau * largest step keeping every block PSD)."""
    return min(1.0, tau * min((_max_step(l, d) for l, d in zip(factors, dirs)),
                              default=1.0))


def solve_sdp(problem: SdpProblem, tol: float = DEFAULT_TOL,
              max_iters: int = 200) -> SdpSolution:
    """Infeasible-start primal-dual interior-point method with NT scaling."""
    dims = problem.block_dims
    nb = len(dims)
    m = problem.rhs.size
    n_total = sum(dims)
    # internal data scaling: solve with C/sc and b/sb, unscale on exit
    c_scale = max(1.0, *(float(np.abs(c).max()) for c in problem.objective))
    b_scale = max(1.0, float(np.abs(problem.rhs).max(initial=0.0)))
    cmats = [c / c_scale for c in problem.objective]
    bvec = problem.rhs / b_scale
    # rows[b]: constraints with a nonzero entry for block b; stacks[b]: those
    # entries flattened, shape (len(rows[b]), d_b^2), real unless complex
    rows = [np.flatnonzero(np.any(a.reshape(m, -1) != 0, axis=1))
            for a in problem.constraints]
    stacks = [a[r].reshape(len(r), d * d) for a, r, d in zip(problem.constraints, rows, dims)]
    norm_b = 1.0 + float(np.linalg.norm(bvec))
    norm_c = 1.0 + math.sqrt(sum(_dot(c, c) for c in cmats))

    def a_of_x(xb):
        out = np.zeros(m)
        for r, a, xx in zip(rows, stacks, xb):
            out[r] += (a @ xx.ravel().conj()).real
        return out

    def a_star(vec):
        return [(vec[r] @ a).reshape(d, d) for r, a, d in zip(rows, stacks, dims)]

    def residuals(x, y, s):
        asy = a_star(y)
        rp = bvec - a_of_x(x)
        rd = [cmats[b] - asy[b] - s[b] for b in range(nb)]
        pobj = sum(_dot(c, xb) for c, xb in zip(cmats, x))
        dobj = float(bvec @ y)
        res_p = math.hypot(*rp) / norm_b  # overflow-safe, unlike a dot product
        res_d = math.sqrt(sum(_dot(r, r) for r in rd)) / norm_c
        gap_rel = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        return asy, rp, rd, pobj, dobj, res_p, res_d, gap_rel

    scale = 1.0
    x = [np.eye(d) * scale for d in dims]
    s = [np.eye(d) * scale for d in dims]
    y = np.zeros(m)

    tau = 0.98
    history = []
    status = "max_iter"
    it = 0

    best = None  # (merit, x, y, s)
    for it in range(1, max_iters + 1):
        asy, rp, rd, pobj, dobj, res_p, res_d, gap_rel = residuals(x, y, s)
        mu = sum(_dot(x[b], s[b]) for b in range(nb)) / n_total
        history.append((pobj, dobj, res_p, res_d, mu))
        merit = max(res_p, res_d, gap_rel)
        if np.isfinite(merit) and (best is None or merit < best[0]):
            best = (merit, [xb.copy() for xb in x], y.copy(), [sb.copy() for sb in s])
        if res_p <= tol and res_d <= tol and gap_rel <= tol:
            status = "optimal"
            break
        # primal-infeasibility certificate: an improving dual ray with
        # A*(y) + S vanishing relative to ||y||
        y_norm = float(np.linalg.norm(y))
        if dobj > scale and y_norm > 1e3 * scale:
            ray = math.sqrt(sum(_dot(asy[b] + s[b], asy[b] + s[b])
                                for b in range(nb))) / y_norm
            if ray <= 1e-6:
                status = "infeasible"
                break
        # a blow-up without a Farkas ray is a breakdown: keep the best iterate
        if not np.isfinite(mu) or mu > 1e150 or y_norm > 1e150 or mu <= 0.0:
            break

        try:
            w = [_nt_scaling(x[b], s[b]) for b in range(nb)]
            s_inv = []
            for b in range(nb):
                ws, vs = np.linalg.eigh(hermitize(s[b]))
                ws = np.clip(ws, 1e-300, None)
                s_inv.append((vs / ws) @ vs.conj().T)
            lx = [_chol(xb) for xb in x]
            ls = [_chol(sb) for sb in s]

            schur = np.zeros((m, m))
            for r, a, wb, d in zip(rows, stacks, w, dims):
                waw = wb @ a.reshape(-1, d, d) @ wb
                schur[np.ix_(r, r)] += (a @ waw.reshape(len(r), d * d).conj().T).real
            schur = hermitize(schur)
            # small ridge keeps the factorization alive when constraints are
            # nearly dependent
            schur += (1e-13 * max(1.0, float(np.trace(schur)) / max(m, 1))) * np.eye(m)

            try:
                schur_l = np.linalg.cholesky(schur)
            except np.linalg.LinAlgError:
                schur_l = None

            def newton(sigma_mu):
                base = [sigma_mu * s_inv[b] - x[b] - hermitize(w[b] @ rd[b] @ w[b])
                        for b in range(nb)]
                rhs = rp - a_of_x(base)
                if schur_l is not None:
                    dy = np.linalg.solve(schur_l.T, np.linalg.solve(schur_l, rhs))
                else:
                    dy = np.linalg.lstsq(schur, rhs, rcond=None)[0]
                if not np.all(np.isfinite(dy)):
                    raise _NumericalBreakdown("non-finite Newton step")
                asdy = a_star(dy)
                ds = [rd[b] - asdy[b] for b in range(nb)]
                dx = [base[b] + hermitize(w[b] @ asdy[b] @ w[b]) for b in range(nb)]
                return dx, dy, ds

            # predictor
            dx_a, dy_a, ds_a = newton(0.0)
            ap = _step(tau, lx, dx_a)
            ad = _step(tau, ls, ds_a)
            mu_aff = sum(_dot(x[b] + ap * dx_a[b], s[b] + ad * ds_a[b])
                         for b in range(nb)) / n_total
            ratio = min(max(mu_aff, 0.0) / mu, 1.0)
            sigma = max(ratio**3, 1e-8)

            # corrector / centering
            dx, dy, ds = newton(sigma * mu)
            ap = _step(tau, lx, dx)
            ad = _step(tau, ls, ds)
        except _NumericalBreakdown:
            break
        for b in range(nb):
            x[b] = hermitize(x[b] + ap * dx[b])
            s[b] = hermitize(s[b] + ad * ds[b])
        y = y + ad * dy

    if status != "infeasible" and best is not None:
        _, x, y, s = best
    _, _, _, pobj, dobj, res_p, res_d, gap_rel = residuals(x, y, s)
    if status != "infeasible":
        status = "optimal" if max(res_p, res_d, gap_rel) <= tol else status
    # undo the data scaling: X carries the b scale, (y, S) carry the C scale
    unit = c_scale * b_scale
    return SdpSolution(
        primal_blocks=[xb * b_scale for xb in x],
        dual_vector=y * c_scale,
        primal_objective=pobj * unit,
        dual_objective=dobj * unit,
        gap=abs(pobj - dobj) * unit,
        status=status,
        iterations=it,
        residual_primal=res_p,
        residual_dual=res_d,
        history=[(p * unit, d * unit, a, bb, mu) for p, d, a, bb, mu in history],
    )


class _SdpBuilder:
    """Assemble an SdpProblem from Hermitian variable blocks.  The objective
    is a {block index: matrix} dict; constraints come in groups of stacked
    rows, each given as {block index: (k, d_b, d_b) stack} terms."""

    def __init__(self):
        self.block_dims: List[int] = []
        self.objective: Dict[int, np.ndarray] = {}
        self.groups: List[Tuple[Dict[int, np.ndarray], np.ndarray]] = []

    def add_block(self, n: int) -> int:
        self.block_dims.append(n)
        return len(self.block_dims) - 1

    def constraints(self, terms: Dict[int, np.ndarray], rhs) -> None:
        """Rows i = 1..k: sum_blk <G_blk[i], X_blk> = rhs[i]."""
        self.groups.append((terms, np.asarray(rhs, dtype=float)))

    def build(self) -> SdpProblem:
        def stack(b, d):
            return np.concatenate([terms[b] if b in terms else np.zeros((rhs.size, d, d))
                                   for terms, rhs in self.groups])

        return SdpProblem(
            objective=[self.objective.get(b, np.zeros((d, d)))
                       for b, d in enumerate(self.block_dims)],
            constraints=[stack(b, d) for b, d in enumerate(self.block_dims)],
            rhs=np.concatenate([rhs for _, rhs in self.groups]),
        )


# --- concrete programs --------------------------------------------------------


def _trace_builder(chi: np.ndarray, proc: Optional[ProcessorMap] = None):
    """P/Q split program for ||chi - Lambda(pi)||_1:

        min Tr P + Tr Q  s.t.  P - Q + Lambda(pi) = chi,  P, Q >= 0.

    Without a processor the Lambda(pi) term is absent and the optimum is
    ||chi||_1; with one, the program block pi is added (its feasibility
    constraints are left to the caller).  Returns the builder and the pi
    block index (None without a processor).
    """
    n = chi.shape[0]
    basis = hermitian_basis(n)
    bld = _SdpBuilder()
    p_blk = bld.add_block(n)
    q_blk = bld.add_block(n)
    pi_blk = None if proc is None else bld.add_block(proc.d_prog)
    bld.objective[p_blk] = np.eye(n)
    bld.objective[q_blk] = np.eye(n)
    # P - Q + Lambda(pi) = chi   (as <B_a, .> coordinates)
    terms = {p_blk: basis, q_blk: -basis}
    if proc is not None:
        terms[pi_blk] = hermitize(proc.dual(basis))
    bld.constraints(terms, _coords(basis, chi))
    return bld, pi_blk


def trace_norm_via_sdp(m: np.ndarray, tol: float = DEFAULT_TOL) -> float:
    """||M||_1 of a Hermitian matrix through the P/Q split program."""
    bld, _ = _trace_builder(np.asarray(m, dtype=complex))
    sol = solve_sdp(bld.build(), tol=tol)
    _warn_if_failed(sol, "trace_norm_via_sdp", tol)
    return sol.primal_objective


def _warn_if_failed(sol: SdpSolution, who: str, tol: float = DEFAULT_TOL,
                    stacklevel: int = 3) -> None:
    """Raise on infeasibility; warn when a solve stopped far from tolerance.

    Stalls within ~50x of the target tolerance stay silent: every public
    entry point re-evaluates its objective at a repaired feasible point, so
    the reported value remains a true attained one.
    """
    if sol.status == "infeasible":
        raise RuntimeError(f"{who}: solver reported infeasibility")
    if sol.status != "optimal":
        gap_rel = sol.gap / (1.0 + abs(sol.primal_objective) + abs(sol.dual_objective))
        merit = max(gap_rel, sol.residual_primal, sol.residual_dual)
        if merit > 50.0 * tol:
            warnings.warn(
                f"{who}: interior point stopped at status {sol.status} "
                f"(gap {sol.gap:.3e}, residuals {sol.residual_primal:.3e}/"
                f"{sol.residual_dual:.3e})",
                stacklevel=stacklevel,
            )


def diamond_distance(chi_omega: np.ndarray, d_in: int, tol: float = DEFAULT_TOL) -> float:
    """Diamond norm of the map whose (normalized) Choi matrix is chi_omega.

    chi_omega should be the Hermitian difference of two Choi matrices
    (ordering: input copy, output); a warning is emitted when it is not
    traceless.  The returned value is certified: the solver's Z block is
    repaired to exact feasibility and the objective re-evaluated, so the
    result is always an attainable upper bound on the true minimum.
    """
    chi = hermitize(np.asarray(chi_omega, dtype=complex))
    n = chi.shape[0]
    if n % d_in:
        raise ValueError(f"diamond_distance: dim {n} not divisible by d_in={d_in}")
    d_out = n // d_in
    if abs(np.trace(chi)) > 1e-8:
        warnings.warn(
            f"diamond_distance: chi has trace {np.trace(chi):.3e}; expected a "
            f"traceless Choi difference",
            stacklevel=2,
        )
    if spectral_norm(chi) < 1e-14:
        return 0.0

    bld, z_blk, _ = _watrous_builder(chi, d_in, d_out)
    sol = solve_sdp(bld.build(), tol=tol)
    _warn_if_failed(sol, "diamond_distance", tol)
    z = sol.primal_blocks[z_blk]
    # repair to exact feasibility: Z >= 0 and Z >= d * chi
    lo1 = float(np.linalg.eigvalsh(z).min())
    lo2 = float(np.linalg.eigvalsh(z - d_in * chi).min())
    shift = max(0.0, -lo1, -lo2)
    z = z + shift * np.eye(n)
    return 2.0 * spectral_norm(partial_trace(z, [d_in, d_out], keep=[0]))


def _solve_program(bld: _SdpBuilder, pi_blk: int, proc: ProcessorMap, tol: float,
                   who: str) -> DensityMatrix:
    """Add the feasible-program constraints on block pi (unit trace, or the
    Choi marginal Tr_out pi = I/d for a processor whose program domain is
    the single-port Choi set), solve, and project pi to exact feasibility."""
    if proc.program_domain == "choi":
        fs = hermitian_basis(proc.d_in)
        # Tr_out pi = I/d (includes unit trace)
        bld.constraints({pi_blk: kron(fs, np.eye(proc.d_in, dtype=complex))},
                        np.trace(fs, axis1=1, axis2=2).real / proc.d_in)
    else:
        bld.constraints({pi_blk: np.eye(proc.d_prog, dtype=complex)[None]}, [1.0])
    sol = solve_sdp(bld.build(), tol=tol)
    _warn_if_failed(sol, who, tol, stacklevel=4)
    return project_program(proc, sol.primal_blocks[pi_blk])


def optimize_program_trace(proc: ProcessorMap, chi_target,
                           tol: float = DEFAULT_TOL) -> Tuple[DensityMatrix, float]:
    """Joint minimization of the trace cost over program states.

    Returns the optimizing program (projected to exact feasibility) and the
    trace cost re-evaluated at it.
    """
    chi_e = hermitize(as_matrix(chi_target))
    bld, pi_blk = _trace_builder(chi_e, proc)
    program = _solve_program(bld, pi_blk, proc, tol, "optimize_program_trace")
    value = trace_distance_cost(chi_e, proc.apply_matrix(program))
    return program, value


def _watrous_builder(chi: np.ndarray, d_in: int, d_out: int,
                     proc: Optional[ProcessorMap] = None):
    """Watrous's diamond-norm program (arXiv:1207.5726) for Delta = chi - Lambda(pi):

        min 2t  s.t.  W = Z - d_in Delta >= 0,  V = t I - Tr_out Z >= 0,  Z >= 0.

    t is a real 1 x 1 block.  Without a processor Delta = chi is fixed; with
    one, the program block pi is added (its feasibility constraints are left
    to the caller).  Returns the builder and the Z and pi block indices (pi
    is None without one).
    """
    n = d_in * d_out
    basis = hermitian_basis(n)
    bld = _SdpBuilder()
    z_blk = bld.add_block(n)
    w_blk = bld.add_block(n)
    v_blk = bld.add_block(d_in)
    t_blk = bld.add_block(1)
    pi_blk = None if proc is None else bld.add_block(proc.d_prog)
    bld.objective[t_blk] = np.array([[2.0]])
    # W = Z - d (chi - Lambda(pi))
    terms = {w_blk: basis, z_blk: -basis}
    if proc is not None:
        terms[pi_blk] = -d_in * hermitize(proc.dual(basis))
    bld.constraints(terms, -d_in * _coords(basis, chi))
    # V = t I - Tr_out Z
    fs = hermitian_basis(d_in)
    bld.constraints({v_blk: fs, z_blk: kron(fs, np.eye(d_out, dtype=complex)),
                     t_blk: -np.trace(fs, axis1=1, axis2=2).real.reshape(-1, 1, 1)},
                    np.zeros(len(fs)))
    return bld, z_blk, pi_blk


def optimize_program_diamond(proc: ProcessorMap, chi_target,
                             tol: float = DEFAULT_TOL) -> Tuple[DensityMatrix, float]:
    """Joint minimization of the diamond cost over program states."""
    chi_e = hermitize(as_matrix(chi_target))
    bld, _, pi_blk = _watrous_builder(chi_e, proc.d_in, proc.d_out, proc)
    program = _solve_program(bld, pi_blk, proc, tol, "optimize_program_diamond")
    value = diamond_distance(chi_e - proc.apply_matrix(program), proc.d_in, tol=tol)
    return program, value


def optimize_program_fidelity(proc: ProcessorMap, chi_target,
                              tol: float = DEFAULT_TOL) -> Tuple[DensityMatrix, float]:
    """Joint maximization of the Bures fidelity over program states.

    Uses max Re Tr[V X] over [[D, X], [X^dag, Lambda(pi)]] >= 0, where
    chi_target = V D V^dag restricted to its support.  Working on the
    support keeps the feasible set strictly solvable even for pure
    (unitary) targets, where the unrestricted block could never be
    positive definite.
    """
    chi_e = hermitize(as_matrix(chi_target))
    n = proc.d_choi
    vals, vecs = np.linalg.eigh(chi_e)
    support = vals > 1e-12 * float(vals.max())
    d_supp = np.diag(vals[support]).astype(complex)
    v_supp = vecs[:, support]
    r = d_supp.shape[0]

    bld = _SdpBuilder()
    g_blk = bld.add_block(r + n)
    pi_blk = bld.add_block(proc.d_prog)
    # objective corner: -Re Tr[V X] for the (r x n) off-diagonal slot X
    obj = np.zeros((r + n, r + n), dtype=complex)
    obj[:r, r:] = -0.5 * v_supp.conj().T
    obj[r:, :r] = -0.5 * v_supp
    bld.objective[g_blk] = obj
    # top-left corner = D, bottom-right corner = Lambda(pi)
    top, basis = hermitian_basis(r), hermitian_basis(n)
    corner = np.zeros((r * r, r + n, r + n), dtype=complex)
    corner[:, :r, :r] = top
    bld.constraints({g_blk: corner}, _coords(top, d_supp))
    corner = np.zeros((n * n, r + n, r + n), dtype=complex)
    corner[:, r:, r:] = basis
    bld.constraints({g_blk: corner, pi_blk: -hermitize(proc.dual(basis))}, np.zeros(n * n))
    program = _solve_program(bld, pi_blk, proc, tol, "optimize_program_fidelity")
    value = bures_fidelity(chi_e, proc.apply_matrix(program))
    return program, value


def optimize_choi_diamond(n_ports: int, d: int, chi_target,
                          tol: float = DEFAULT_TOL) -> Tuple[ChoiMatrix, float]:
    """Diamond-optimal single-port Choi program of the reduced PBT map."""
    from .processors import pbt_reduced_map

    proc = pbt_reduced_map(n_ports, d)
    program, value = optimize_program_diamond(proc, chi_target, tol=tol)
    return ChoiMatrix(program, d, d), value
