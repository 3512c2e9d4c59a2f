"""Dense semidefinite programming: a small interior-point solver and the
channel-simulation programs built on it.

The solver handles Hermitian block problems, real symmetric or complex, in
primal standard form

    minimize    <C, X>
    subject to  <A_i, X> = b_i,   X >= 0 (blockwise),

under the inner product <A, X> = Re Tr[A^dag X], with an infeasible-start
primal-dual path-following iteration, Nesterov-Todd scaling and a fixed
fraction-to-boundary factor of 0.98.  Each block's constraints are stacked
once, as rows of flattened matrices, so A(X), A*(y), the Newton right-hand
side and the Schur matrix sum_b <A_j, W_b A_i W_b> are matrix products
(Fujisawa-Kojima-Nakata 1997).  There is no real embedding: a block's dtype
follows its data, so a block with real data is solved in real arithmetic and
a complex Hermitian block in complex arithmetic.

Built on top of it:

* ``diamond_distance`` -- worst-case channel distance of a Hermitian Choi
  difference, via min 2 ||Tr_out Z||_inf s.t. Z >= 0, Z >= d * chi.
* ``optimize_program_trace`` / ``optimize_program_diamond`` /
  ``optimize_program_fidelity`` -- joint search over program states.
* ``optimize_choi_diamond`` -- diamond search over single-port Choi programs
  of the reduced port-based-teleportation map.

Returned program states are projected back to exact feasibility, and all
reported optima are re-evaluated at the projected program, so every quoted
value is attained by the returned (feasible) program.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .channels import ChoiMatrix, as_matrix, bures_fidelity, trace_distance_cost
from .hermlin import hermitize, kron, partial_trace, spectral_norm
from .optim import project_to_choi_set, project_to_states
from .processors import ProcessorMap, ProgramState

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


def hermitian_basis(n: int) -> List[np.ndarray]:
    """Orthonormal basis of n x n Hermitian matrices (Tr[B_a B_b] = delta_ab)."""
    out = []
    for k in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[k, k] = 1.0
        out.append(e)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for k in range(n):
        for l in range(k + 1, n):
            e = np.zeros((n, n), dtype=complex)
            e[k, l] = inv_sqrt2
            e[l, k] = inv_sqrt2
            out.append(e)
            e = np.zeros((n, n), dtype=complex)
            e[k, l] = 1j * inv_sqrt2
            e[l, k] = -1j * inv_sqrt2
            out.append(e)
    return out


@dataclass
class SdpProblem:
    """Block standard-form SDP: min <C, X>, <A_i, X> = b_i, X >= 0.

    ``objective`` and each constraint hold one Hermitian matrix per block,
    real symmetric or complex (``None`` meaning zero).
    """

    block_dims: List[int]
    objective: List[Optional[np.ndarray]]
    constraints: List[Tuple[List[Optional[np.ndarray]], float]]

    def __post_init__(self):
        for blk, dim in enumerate(self.block_dims):
            if dim < 1:
                raise ValueError(f"SdpProblem: block {blk} has dim {dim}")
        self._check_row(self.objective, "objective")
        for i, (mats, _rhs) in enumerate(self.constraints):
            self._check_row(mats, f"constraint {i}")

    def _check_row(self, mats, who):
        if len(mats) != len(self.block_dims):
            raise ValueError(f"SdpProblem: {who} has {len(mats)} blocks, "
                             f"expected {len(self.block_dims)}")
        for blk, m in enumerate(mats):
            if m is None:
                continue
            d = self.block_dims[blk]
            if m.shape != (d, d):
                raise ValueError(f"SdpProblem: {who}, block {blk}: shape {m.shape}")
            if np.abs(m - m.conj().T).max() > 1e-12 * max(1.0, np.abs(m).max()):
                raise ValueError(f"SdpProblem: {who}, block {blk} is not Hermitian")


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
    m = len(problem.constraints)
    n_total = sum(dims)
    # internal data scaling: solve with C/sc and b/sb, unscale on exit
    c_scale = max(1.0, *(float(np.abs(c).max()) if c is not None else 0.0
                         for c in problem.objective))
    b_scale = max(1.0, float(max(abs(rhs) for _, rhs in problem.constraints))
                  if m else 1.0)
    cmats = [np.zeros((d, d)) if c is None else np.asarray(c) / c_scale
             for c, d in zip(problem.objective, dims)]
    bvec = np.array([rhs for _, rhs in problem.constraints], dtype=float) / b_scale
    # rows[b]: constraints with an entry for block b (None is zero);
    # stacks[b]: those entries flattened, shape (len(rows[b]), d_b^2), real
    # unless an entry is complex
    rows = [np.array([i for i, (row, _) in enumerate(problem.constraints)
                      if row[b] is not None], dtype=int) for b in range(nb)]
    stacks = []
    for b, d in enumerate(dims):
        entries = [np.asarray(problem.constraints[i][0][b]) for i in rows[b]]
        stacks.append(np.array(entries, dtype=np.result_type(float, *entries))
                      .reshape(len(rows[b]), d * d))
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
        res_p = float(np.linalg.norm(rp)) / norm_b
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
    """Assemble an SdpProblem from Hermitian variable blocks, with the
    objective and each constraint given as {block index: matrix} terms."""

    def __init__(self):
        self.block_dims: List[int] = []
        self.objective: Dict[int, np.ndarray] = {}
        self.constraints: List[Tuple[Dict[int, np.ndarray], float]] = []

    def add_block(self, n: int) -> int:
        self.block_dims.append(n)
        return len(self.block_dims) - 1

    def constraint(self, terms: Dict[int, np.ndarray], rhs: float) -> None:
        """sum_blk <G_blk, X_blk> = rhs."""
        self.constraints.append((terms, rhs))

    def build(self) -> SdpProblem:
        nb = len(self.block_dims)

        def expand(row: Dict[int, np.ndarray]):
            return [row.get(b) for b in range(nb)]

        return SdpProblem(
            block_dims=list(self.block_dims),
            objective=expand(self.objective),
            constraints=[(expand(row), rhs) for row, rhs in self.constraints],
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
    duals = None if proc is None else _lambda_dual_on_basis(proc, basis)
    for i, e in enumerate(basis):
        # P - Q + Lambda(pi) = chi   (as <E_a, .> coordinates)
        terms = {p_blk: e, q_blk: -e}
        if duals is not None:
            terms[pi_blk] = duals[i]
        bld.constraint(terms, _dot(e, chi))
    return bld, pi_blk


def trace_norm_via_sdp(m: np.ndarray, tol: float = DEFAULT_TOL) -> float:
    """||M||_1 of a Hermitian matrix through the P/Q split program."""
    bld, _ = _trace_builder(np.asarray(m, dtype=complex))
    sol = solve_sdp(bld.build(), tol=tol)
    _warn_if_failed(sol, "trace_norm_via_sdp", tol)
    return sol.primal_objective


def _warn_if_failed(sol: SdpSolution, who: str, tol: float = DEFAULT_TOL) -> None:
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
                stacklevel=3,
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


def _lambda_dual_on_basis(proc: ProcessorMap, basis) -> np.ndarray:
    return hermitize(proc.dual(np.stack(basis)))


def _add_program_constraints(bld: _SdpBuilder, pi_blk: int, proc: ProcessorMap) -> None:
    """Feasible-program constraints: unit trace, or the Choi marginal for
    processors whose program domain is the single-port Choi set."""
    dp = proc.d_prog
    if proc.program_domain == "choi":
        d = proc.d_in
        eye_d = np.eye(d, dtype=complex)
        for f in hermitian_basis(d):
            # Tr_out pi = I/d (includes unit trace)
            bld.constraint({pi_blk: kron(f, eye_d)},
                           float(np.real(np.trace(f))) / d)
    else:
        bld.constraint({pi_blk: np.eye(dp, dtype=complex)}, 1.0)


def _recover_program(sol: SdpSolution, pi_blk: int, proc: ProcessorMap) -> ProgramState:
    raw = sol.primal_blocks[pi_blk]
    if proc.program_domain == "choi":
        chi = project_to_choi_set(raw, proc.d_in)
        return ProgramState(chi.state, structure="choi-power")
    return ProgramState(project_to_states(raw))


def optimize_program_trace(proc: ProcessorMap, chi_target,
                           tol: float = DEFAULT_TOL) -> Tuple[ProgramState, float]:
    """Joint minimization of the trace cost over program states.

    Returns the optimizing program (projected to exact feasibility) and the
    trace cost re-evaluated at it.
    """
    chi_e = hermitize(as_matrix(chi_target))
    bld, pi_blk = _trace_builder(chi_e, proc)
    _add_program_constraints(bld, pi_blk, proc)
    sol = solve_sdp(bld.build(), tol=tol)
    _warn_if_failed(sol, "optimize_program_trace", tol)
    program = _recover_program(sol, pi_blk, proc)
    value = trace_distance_cost(chi_e, proc.apply_matrix(program.matrix))
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
    duals = None if proc is None else _lambda_dual_on_basis(proc, basis)
    for i, e in enumerate(basis):
        # W = Z - d (chi - Lambda(pi))
        terms = {w_blk: e, z_blk: -e}
        if duals is not None:
            terms[pi_blk] = -d_in * duals[i]
        bld.constraint(terms, -d_in * _dot(e, chi))
    eye_out = np.eye(d_out, dtype=complex)
    for f in hermitian_basis(d_in):
        # V = t I - Tr_out Z
        bld.constraint({v_blk: f, z_blk: kron(f, eye_out),
                        t_blk: np.array([[-float(np.real(np.trace(f)))]])}, 0.0)
    return bld, z_blk, pi_blk


def optimize_program_diamond(proc: ProcessorMap, chi_target,
                             tol: float = DEFAULT_TOL) -> Tuple[ProgramState, float]:
    """Joint minimization of the diamond cost over program states."""
    chi_e = hermitize(as_matrix(chi_target))
    bld, _, pi_blk = _watrous_builder(chi_e, proc.d_in, proc.d_out, proc)
    _add_program_constraints(bld, pi_blk, proc)
    sol = solve_sdp(bld.build(), tol=tol)
    _warn_if_failed(sol, "optimize_program_diamond", tol)
    program = _recover_program(sol, pi_blk, proc)
    value = diamond_distance(chi_e - proc.apply_matrix(program.matrix), proc.d_in, tol=tol)
    return program, value


def optimize_program_fidelity(proc: ProcessorMap, chi_target,
                              tol: float = DEFAULT_TOL) -> Tuple[ProgramState, float]:
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

    basis = hermitian_basis(n)
    duals = _lambda_dual_on_basis(proc, basis)
    bld = _SdpBuilder()
    g_blk = bld.add_block(r + n)
    pi_blk = bld.add_block(proc.d_prog)
    # objective corner: -Re Tr[V X] for the (r x n) off-diagonal slot X
    obj = np.zeros((r + n, r + n), dtype=complex)
    obj[:r, r:] = -0.5 * v_supp.conj().T
    obj[r:, :r] = -0.5 * v_supp
    bld.objective[g_blk] = obj
    for e in hermitian_basis(r):
        top = np.zeros((r + n, r + n), dtype=complex)
        top[:r, :r] = e
        bld.constraint({g_blk: top}, _dot(e, d_supp))
    for e, le in zip(basis, duals):
        bot = np.zeros((r + n, r + n), dtype=complex)
        bot[r:, r:] = e
        bld.constraint({g_blk: bot, pi_blk: -le}, 0.0)
    _add_program_constraints(bld, pi_blk, proc)
    sol = solve_sdp(bld.build(), tol=tol)
    _warn_if_failed(sol, "optimize_program_fidelity", tol)
    program = _recover_program(sol, pi_blk, proc)
    value = bures_fidelity(chi_e, proc.apply_matrix(program.matrix))
    return program, value


def optimize_choi_diamond(n_ports: int, d: int, chi_target,
                          tol: float = DEFAULT_TOL) -> Tuple[ChoiMatrix, float]:
    """Diamond-optimal single-port Choi program of the reduced PBT map."""
    from .processors import pbt_reduced_map

    proc = pbt_reduced_map(n_ports, d)
    program, value = optimize_program_diamond(proc, chi_target, tol=tol)
    return ChoiMatrix(program.state, d, d), value
