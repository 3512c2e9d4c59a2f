"""Dense semidefinite programming: a small interior-point solver and the
channel-simulation programs built on it.

The solver handles Hermitian block problems, real symmetric or complex, in
primal standard form

    minimize    <C, X>
    subject to  <A_i, X> = b_i,   X >= 0 (blockwise),

under the inner product <A, X> = Re Tr[A^dag X], with an infeasible-start
primal-dual path-following iteration, Nesterov-Todd scaling and a fixed
fraction-to-boundary factor of 0.98.  Each iteration is Mehrotra's
predictor-corrector: the corrector aims at sigma mu with sigma = (mu_aff /
mu)^3, never below the complementarity the stopping test needs, and carries
Mehrotra's second-order term, the predictor's sym(dX dS) in NT-scaled space
(Todd-Toh-Tutuncu 1998), unless that term shortens the step below the
predictor's.  The Schur matrix gets a ridge only when its Cholesky
factorization fails.  An ``SdpProblem`` takes its
constraints in groups of rows, each naming only the blocks it touches, and
keeps per block the rows with a nonzero entry, flattened, so A(X), A*(y), the
Newton right-hand side and the Schur matrix sum_b <A_j, W_b A_i W_b> are
matrix products over those rows (Fujisawa-Kojima-Nakata 1997).
There is no real embedding of complex data: a block's dtype follows its data,
so a block with real data is solved in real arithmetic and a complex
Hermitian block in complex arithmetic.  Blocks of one size and one dtype of
objective and of constraints form a class whose X, S, W and S^-1 are one
(k, d, d) stack, as in SDPT3's grouped blocks: the NT scaling, S^-1, the
Cholesky factors, the step test over [dX; dS] (primal and dual at once) and
each inner product (one product and one sum, added up in block order) run
once per class.  A class of 1 x 1 blocks, such as the t of Watrous's program, is
SDPT3's linear part: its NT scaling, S^-1, factors and step test are
elementwise on the real parts, which is what LAPACK computes for 1 x 1
matrices, bit for bit.  A(X), A*(y) and the Schur sum run block by block, so
neither the stacks nor the elementwise class change any rounding.  The
programs below build each group from the Hermitian basis and one
``proc.dual`` call on it.  When their data (the target, the processor's
transfer and its program blocks) have no imaginary part, the program is
invariant under entrywise conjugation, so its optimum is attained on real
symmetric blocks (Gatermann-Parrilo's fixed-point reduction): the groups then
use only the basis's real symmetric members, n(n+1)/2 rows per n x n
constraint instead of n^2, and every block is real (``_real_data``).  The
program pi enters as one variable block M_b per program block, in the
classes of ``ProcessorMap.block_coords`` (pi = sum_b sum_c V_c M_b V_c^dag,
as in the first-order methods), and a stack A on pi as copies_b times its
block part on M_b (``_SdpBuilder.terms``): ``proc.dual(X, blocks=True)`` for
A = Lambda*(X), ``block_coords.part`` for the feasibility rows.  A PBT program
at N=3 is solved as blocks of 20, 20 and 4 instead of 64.

Built on top of it:

* ``diamond_distance`` -- worst-case channel distance of a Hermitian Choi
  difference, via min 2 ||Tr_out Z||_inf s.t. Z >= 0, Z >= d * chi.
* ``optimize_program_trace`` / ``optimize_program_diamond`` /
  ``optimize_program_fidelity`` -- joint search over program states.
* ``optimize_choi_diamond`` -- diamond search over single-port Choi programs
  of the reduced port-based-teleportation map.

Returned programs are ``DensityMatrix`` values (a ``ChoiMatrix`` for the
reduced PBT map): the solved blocks take the first-order methods' step back
to exact feasibility (``optim._projection``, one ``eigh`` per block class,
and ``optim._program``), and every quoted value is attained by the returned
(feasible) program: trace and fidelity optima are re-evaluated there, and a
diamond value is 2 ||Tr_out Z'||_inf for a Z' repaired to exact feasibility
at it (``_repaired_value``).
That Z' comes from one eigendecomposition where chi_+ has a flat marginal
(``diamond_distance``) or from the joint solve (``optimize_program_diamond``);
a second solve runs only when neither certifies the value.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .channels import ChoiMatrix, DensityMatrix, bures_fidelity, cost_eval
from .hermlin import hermitize, partial_trace, spectral_norm
from .optim import _program, _projection, _target
from .processors import ProcessorMap, pbt_reduced_map

__all__ = [
    "SdpProblem",
    "SdpSolution",
    "hermitian_basis",
    "solve_sdp",
    "diamond_distance",
    "optimize_program_trace",
    "optimize_program_diamond",
    "optimize_program_fidelity",
    "optimize_choi_diamond",
]

DEFAULT_TOL = 1e-8
MAX_ITERS = 200


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


def _real_data(chi: np.ndarray, proc: Optional[ProcessorMap] = None) -> bool:
    """True when chi and, with a processor, its transfer and every program
    block have no nonzero imaginary part (``block_coords.real``).  Such a
    program is invariant under entrywise conjugation, and it is convex, so
    (X + conj X) / 2 is feasible with the same objective: the optimum is
    attained on real symmetric blocks (the fixed-point reduction of
    Gatermann-Parrilo)."""
    return not np.any(np.imag(chi)) and (proc is None or proc.block_coords.real)


def _check_rows(rows: np.ndarray, name) -> None:
    """Reject a (k, d, d) stack with a non-finite matrix or, failing that, a
    non-Hermitian one; ``name(i)`` names matrix i in the message."""
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=(1, 2)))
    fault = "has a non-finite entry"
    if not bad.size:
        dev = np.abs(rows - rows.conj().swapaxes(1, 2)).max(axis=(1, 2))
        bad = np.flatnonzero(dev > 1e-12 * np.maximum(1.0, np.abs(rows).max(axis=(1, 2))))
        fault = "is not Hermitian"
    if bad.size:
        raise ValueError(f"SdpProblem: {name(bad[0])} {fault}")


@dataclass
class SdpProblem:
    """Block standard-form SDP: min <C, X>, <A_i, X> = b_i, X >= 0.

    ``objective`` holds one Hermitian (d_b, d_b) matrix per block, and
    ``constraints`` the rows in groups ``(terms, rhs)``: ``terms`` maps a
    block index b to a (k, d_b, d_b) stack T_b, the group's rows read
    sum_b <T_b[i], X_b> = rhs[i], and a block it does not name is zero there.
    Entries are real symmetric or complex; ``rhs`` is b_1..b_m in group order.
    """

    objective: List[np.ndarray]
    constraints: List[Tuple[Dict[int, np.ndarray], np.ndarray]]
    rhs: np.ndarray = field(init=False)

    def __post_init__(self):
        self.objective = [np.asarray(c) for c in self.objective]
        for blk, c in enumerate(self.objective):
            d = c.shape[0] if c.ndim == 2 else 0
            if d < 1 or c.shape != (d, d):
                raise ValueError(f"SdpProblem: objective, block {blk}: shape {c.shape}")
            _check_rows(c[None], lambda _: f"objective, block {blk}")
        dims, start = self.block_dims, 0
        rows, stacks = [[] for _ in dims], [[] for _ in dims]
        groups, self.constraints = self.constraints, []
        for g, (terms, rhs) in enumerate(groups):
            rhs = np.asarray(rhs, dtype=float)
            if rhs.ndim != 1:
                raise ValueError(f"SdpProblem: group {g}: rhs has shape {rhs.shape}, expected (k,)")
            terms = {b: np.asarray(a) for b, a in terms.items()}
            for b, a in terms.items():
                if not 0 <= b < len(dims):
                    raise ValueError(f"SdpProblem: group {g} names block {b} of {len(dims)}")
                if a.shape != (rhs.size, dims[b], dims[b]):
                    raise ValueError(f"SdpProblem: group {g}, block {b}: shape {a.shape}, "
                                     f"expected {(rhs.size, dims[b], dims[b])}")
                _check_rows(a, lambda i: f"constraint {start + i}, block {b}")
                flat = a.reshape(rhs.size, -1)
                nonzero = np.flatnonzero(np.any(flat != 0, axis=1))
                rows[b].append(start + nonzero)
                stacks[b].append(flat[nonzero])
            self.constraints.append((terms, rhs))
            start += rhs.size
        self.rhs = np.concatenate([np.empty(0), *(rhs for _, rhs in self.constraints)])
        if not np.isfinite(self.rhs).all():
            raise ValueError("SdpProblem: rhs has a non-finite entry")
        # per block: the rows with a nonzero entry (a slice when they are one
        # range) and those entries flattened, real unless complex
        self._rows = [_rows_index(np.concatenate([np.empty(0, int), *r])) for r in rows]
        self._stacks = [np.concatenate([np.empty((0, d * d)), *a]) for a, d in zip(stacks, dims)]

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
    # optimal | max_iter | breakdown (best iterate kept) | infeasible | unbounded
    # (last iterate kept: the Farkas or the primal ray)
    status: str
    iterations: int
    residual_primal: float
    residual_dual: float
    # (primal_obj, dual_obj, res_primal, res_dual, mu) per iterate
    history: List[Tuple[float, float, float, float, float]] = field(default_factory=list)


class _NumericalBreakdown(Exception):
    """Interior-point linear algebra collapsed (indefinite or non-finite)."""


def _nt_scaling(x: np.ndarray, s: np.ndarray):
    """NT scaling of (k, d, d) stacks of Hermitian positive definite X, S:
    (W, G, lambda) with W S W = X, G = X^1/2 Q Lambda^-1/2 from
    eigh(X^1/2 S X^1/2) = Q Lambda^2 Q^dag, so W = G G^dag and
    G^-1 X G^-dag = G^dag S G = Lambda = diag(lambda).  For d = 1, W is
    elementwise on the real parts and G and lambda are None."""
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(s))):
        raise _NumericalBreakdown("non-finite iterate")
    if x.shape[1] == 1:
        rx = np.sqrt(np.clip(x.real, 1e-300, None))
        return (rx * np.clip(rx * s.real * rx, 1e-300, None) ** -0.5) * rx, None, None
    wx, vx = np.linalg.eigh(x)
    wx = np.clip(wx, 1e-300, None)
    rx = (vx * np.sqrt(wx)[:, None]) @ vx.conj().swapaxes(1, 2)
    wi, vi = np.linalg.eigh(hermitize(rx @ s @ rx))
    wi = np.clip(wi, 1e-300, None)
    g = (rx @ vi) * (wi ** -0.25)[:, None]
    return hermitize(g @ g.conj().swapaxes(1, 2)), g, np.sqrt(wi)


def _second_order(g, lam, s, s_inv, dx, ds) -> np.ndarray:
    """Mehrotra's second-order term G C G^dag of one class, from the
    predictor (dX, dS) in NT-scaled space: dX~ = G^-1 dX G^-dag with
    G^-1 = Lambda^-1 G^dag S, dS~ = G^dag dS G, and
    C_ij = [sym(dX~ dS~)]_ij 2 / (lambda_i + lambda_j).  For d = 1
    (g None) it is dX dS S^-1 on the real parts."""
    if g is None:
        return dx.real * ds.real * s_inv
    gh = g.conj().swapaxes(1, 2)
    sg = s @ g
    dxt = (sg.conj().swapaxes(1, 2) @ dx @ sg) / (lam[:, :, None] * lam[:, None, :])
    p = dxt @ (gh @ ds @ g)
    c = (p + p.conj().swapaxes(1, 2)) / (lam[:, :, None] + lam[:, None, :])
    return hermitize(g @ c @ gh)


def _inverse(s: np.ndarray) -> np.ndarray:
    """S^-1 of a (k, d, d) stack of Hermitian positive definite S, on eigenvalues
    clipped at 1e-300; for d = 1, elementwise on the real parts."""
    if s.shape[1] == 1:
        return 1.0 / np.clip(s.real, 1e-300, None)
    ws, vs = np.linalg.eigh(s)
    ws = np.clip(ws, 1e-300, None)
    return (vs / ws[:, None]) @ vs.conj().swapaxes(1, 2)


def _chol(x: np.ndarray) -> np.ndarray:
    """Cholesky factors of a Hermitian matrix, or of a stack, then matrix by
    matrix if it fails; square roots of the real parts for positive 1 x 1s."""
    if not np.all(np.isfinite(x)):
        raise _NumericalBreakdown("non-finite iterate")
    if x.shape[-1] == 1 and np.all(x.real > 0.0):
        return np.sqrt(x.real)
    try:
        return np.linalg.cholesky(x)
    except np.linalg.LinAlgError:
        if x.ndim == 3:
            return np.array([_chol(xb) for xb in x])
    jitter = 1e-14 * max(1.0, float(np.trace(x).real) / x.shape[0])
    for _ in range(4):
        try:
            return np.linalg.cholesky(x + jitter * np.eye(x.shape[0]))
        except np.linalg.LinAlgError:
            jitter *= 1e3
    raise _NumericalBreakdown("cholesky failed")


def _steps(tau: float, factors, dx, ds) -> Tuple[float, float]:
    """Fraction-to-boundary steps min(1, tau * largest step keeping every block
    PSD) for X + a dX and S + a dS.  ``factors`` holds per class the Cholesky
    factors L of X stacked over those of S; each class tests [dX; dS] at once,
    by the eigenvalues of L^-1 D L^-dag (elementwise for 1 x 1 blocks)."""
    lam_p = lam_d = math.inf
    for l, dxc, dsc in zip(factors, dx, ds):
        d = np.concatenate([dxc, dsc])
        if not np.all(np.isfinite(d)):
            raise _NumericalBreakdown("non-finite direction")
        if l.shape[-1] == 1:
            lam = (np.conj(d / l) / l).real
        else:
            t = np.linalg.solve(l, np.linalg.solve(l, d).conj().swapaxes(1, 2))
            lam = np.linalg.eigvalsh(hermitize(t))
        lam_p = min(lam_p, float(lam[:len(dxc)].min()))
        lam_d = min(lam_d, float(lam[len(dxc):].min()))
    # sup { a : Z + a dZ >= 0 } is -1 / lam_min, or inf when lam_min >= 0
    return tuple(min(1.0, tau * (math.inf if lam >= 0.0 else -1.0 / lam))
                 for lam in (lam_p, lam_d))


def _rows_index(r: np.ndarray):
    """The increasing row indices r as a slice when they form one range."""
    lo = int(r[0]) if r.size else 0
    return slice(lo, lo + r.size) if r.size == 0 or r[-1] == lo + r.size - 1 else r


def solve_sdp(problem: SdpProblem, tol: float = DEFAULT_TOL) -> SdpSolution:
    """Infeasible-start primal-dual interior-point method with NT scaling.

    Each iteration solves the Newton system twice on one Schur factor: the
    predictor (affine step) and the corrector, which aims at sigma mu,
    sigma = (mu_aff / mu)^3, floored at tol (1 + |p| + |d|) / (2 n) so that
    no step aims below the complementarity the stopping test needs, and
    subtracts Mehrotra's second-order term G C G^dag (``_second_order``).
    The term only moves centrality: A(dX) = r_p and dS = R_d - A*(dy) hold
    for any right-hand side.  When the corrected step min(alpha_p, alpha_d)
    is shorter than the predictor's, the corrector without the term is taken.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"solve_sdp: tol must be finite and > 0, got {tol!r}")
    dims = problem.block_dims
    nb = len(dims)
    m = problem.rhs.size
    n_total = sum(dims)
    # internal data scaling: solve with C/sc and b/sb, unscale on exit
    c_scale = max(1.0, *(float(np.abs(c).max()) for c in problem.objective))
    b_scale = max(1.0, float(np.abs(problem.rhs).max(initial=0.0)))
    cmats = [c / c_scale for c in problem.objective]
    bvec = problem.rhs / b_scale
    rows, stacks = problem._rows, problem._stacks
    mats = [a.reshape(-1, d, d) for a, d in zip(stacks, dims)]
    squares = [(r, r) if isinstance(r, slice) else np.ix_(r, r) for r in rows]
    # classes: the blocks of one size and one dtype of objective and of
    # constraints, whose iterates are kept as one (k, d, d) stack each;
    # order[b] = (class, slot)
    keys = [(d, np.iscomplexobj(c), np.iscomplexobj(a))
            for d, c, a in zip(dims, cmats, stacks)]
    members = [[b for b in range(nb) if keys[b] == key] for key in dict.fromkeys(keys)]
    at = {b: (k, j) for k, mem in enumerate(members) for j, b in enumerate(mem)}
    order = [at[b] for b in range(nb)]
    shapes = [(len(mem), dims[mem[0]], dims[mem[0]]) for mem in members]
    asy_dtypes = [np.result_type(float, *(stacks[b].dtype for b in mem)) for mem in members]

    def split(stk):
        """Per-block views, in block order, into a list of class stacks."""
        return [stk[k][j] for k, j in order]

    def dots(p, q):
        """<P_b, Q_b> per block, in block order, from one product per class."""
        per_class = [np.sum(np.conj(pk) * qk, axis=(1, 2)).real.tolist()
                     for pk, qk in zip(p, q)]
        return [per_class[k][j] for k, j in order]

    c_cls = [np.array([cmats[b] for b in mem]) for mem in members]
    norm_b = 1.0 + float(np.linalg.norm(bvec))
    norm_c = 1.0 + math.sqrt(sum(dots(c_cls, c_cls)))

    # A(X), A*(y) and the Schur sum run block by block, so the class stacks
    # change no rounding
    def a_of_x(xb):
        out = np.zeros(m)
        for r, a, xx in zip(rows, stacks, xb):
            out[r] += (a @ xx.ravel().conj()).real
        return out

    def a_star(vec):
        out = [np.empty(shape, dt) for shape, dt in zip(shapes, asy_dtypes)]
        for (k, j), r, a, d in zip(order, rows, stacks, dims):
            out[k][j] = (vec[r] @ a).reshape(d, d)
        return out

    def residuals(x, y, s):
        asy = a_star(y)
        rp = bvec - a_of_x(split(x))
        rd = [c - ay - sk for c, ay, sk in zip(c_cls, asy, s)]
        pobj = sum(dots(c_cls, x))
        dobj = float(bvec @ y)
        res_p = math.hypot(*rp) / norm_b  # overflow-safe, unlike a dot product
        res_d = math.sqrt(sum(dots(rd, rd))) / norm_c
        gap_rel = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        return asy, rp, rd, pobj, dobj, res_p, res_d, gap_rel

    def mean_dot(x, s):
        return sum(dots(x, s)) / n_total

    # iterates are replaced, never written in place, so ``best`` needs no copies
    x = [np.tile(np.eye(d), (k, 1, 1)) for k, d, _ in shapes]
    s = list(x)
    y = np.zeros(m)

    tau = 0.98
    history = []
    status = "max_iter"
    it = 0

    best = None  # (merit, x, y, s)
    # a diverging iterate overflows before the tests below see it; they and
    # the non-finite checks end the loop as a breakdown, so numpy stays quiet
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, MAX_ITERS + 1):
            asy, rp, rd, pobj, dobj, res_p, res_d, gap_rel = residuals(x, y, s)
            mu = mean_dot(x, s)
            history.append((pobj, dobj, res_p, res_d, mu))
            merit = max(res_p, res_d, gap_rel)
            if np.isfinite(merit) and (best is None or merit < best[0]):
                best = (merit, x, y, s)
            if res_p <= tol and res_d <= tol and gap_rel <= tol:
                status = "optimal"
                break
            # primal-infeasibility certificate: an improving dual ray with
            # A*(y) + S vanishing relative to ||y||
            y_norm = float(np.linalg.norm(y))
            if dobj > 1.0 and y_norm > 1e3:
                ray = [ay + sk for ay, sk in zip(asy, s)]
                if math.sqrt(sum(dots(ray, ray))) / y_norm <= 1e-6:
                    status = "infeasible"
                    break
            # primal-unboundedness certificate: an improving primal ray, with
            # A(X) vanishing relative to ||X||; the objective test comes first,
            # so a bounded solve pays one compare
            if pobj < -1.0:
                x_norm = math.sqrt(sum(dots(x, x)))
                if (x_norm > 1e3 and math.hypot(*(bvec - rp)) / x_norm <= 1e-6
                        and pobj / x_norm < -1e-6):
                    status = "unbounded"
                    break
            # a blow-up without a Farkas ray is a breakdown: keep the best iterate
            if not np.isfinite(mu) or mu > 1e150 or y_norm > 1e150 or mu <= 0.0:
                status = "breakdown"
                break

            try:
                w, g, lam = zip(*(_nt_scaling(xk, sk) for xk, sk in zip(x, s)))
                s_inv = [_inverse(sk) for sk in s]
                factors = [_chol(np.concatenate([xk, sk])) for xk, sk in zip(x, s)]

                schur = np.zeros((m, m))
                for sq, a, mat, wb, d in zip(squares, stacks, mats, split(w), dims):
                    waw = wb @ mat @ wb
                    schur[sq] += (a @ waw.reshape(len(a), d * d).conj().T).real
                schur = hermitize(schur)
                # a small ridge keeps the factorization alive when constraints
                # are nearly dependent; only then, because A(dX) misses r_p by
                # ridge * dy, which near the optimum stalls a tight tol
                try:
                    schur_l = np.linalg.cholesky(schur)
                except np.linalg.LinAlgError:
                    schur += (1e-13 * max(1.0, float(np.trace(schur)) / max(m, 1))) * np.eye(m)
                    try:
                        schur_l = np.linalg.cholesky(schur)
                    except np.linalg.LinAlgError:
                        schur_l = None

                # W R_d W, shared by the predictor and the corrector
                wrw = [hermitize(wk @ rk @ wk) for wk, rk in zip(w, rd)]

                def newton(sigma_mu, second):
                    """The step with dX + W dS W = sigma_mu S^-1 - X - second."""
                    base = [sigma_mu * si - xk - v - t
                            for si, xk, v, t in zip(s_inv, x, wrw, second)]
                    rhs = rp - a_of_x(split(base))
                    if schur_l is not None:
                        dy = np.linalg.solve(schur_l.T, np.linalg.solve(schur_l, rhs))
                    else:
                        dy = np.linalg.lstsq(schur, rhs, rcond=None)[0]
                    if not np.all(np.isfinite(dy)):
                        raise _NumericalBreakdown("non-finite Newton step")
                    asdy = a_star(dy)
                    ds = [rk - ak for rk, ak in zip(rd, asdy)]
                    dx = [bk + hermitize(wk @ ak @ wk) for bk, wk, ak in zip(base, w, asdy)]
                    return dx, dy, ds

                # predictor
                no_term = [0.0] * len(x)
                dx_a, dy_a, ds_a = newton(0.0, no_term)
                ap, ad = _steps(tau, factors, dx_a, ds_a)
                step_a = min(ap, ad)
                mu_aff = mean_dot([xk + ap * dk for xk, dk in zip(x, dx_a)],
                                  [sk + ad * dk for sk, dk in zip(s, ds_a)])
                ratio = min(max(mu_aff, 0.0) / mu, 1.0)
                sigma = max(ratio**3, 1e-8)
                # the centering target, never below the complementarity (half
                # the gap) that the stopping test needs
                target = max(sigma * mu, tol * (1.0 + abs(pobj) + abs(dobj)) / (2.0 * n_total))

                # corrector: centering plus Mehrotra's second-order term, or
                # centering alone when the term shortens the step
                second = [_second_order(*args) for args in zip(g, lam, s, s_inv, dx_a, ds_a)]
                dx, dy, ds = newton(target, second)
                ap, ad = _steps(tau, factors, dx, ds)
                if min(ap, ad) < step_a:
                    dx, dy, ds = newton(target, no_term)
                    ap, ad = _steps(tau, factors, dx, ds)
            except _NumericalBreakdown:
                status = "breakdown"
                break
            x = [hermitize(xk + ap * dk) for xk, dk in zip(x, dx)]
            s = [hermitize(sk + ad * dk) for sk, dk in zip(s, ds)]
            y = y + ad * dy

    # a certificate keeps the last iterate, the ray; anything else the best one
    certified = status in ("infeasible", "unbounded")
    if not certified and best is not None:
        _, x, y, s = best
    _, _, _, pobj, dobj, res_p, res_d, gap_rel = residuals(x, y, s)
    if not certified:
        status = "optimal" if max(res_p, res_d, gap_rel) <= tol else status
    # undo the data scaling: X carries the b scale, (y, S) carry the C scale
    unit = c_scale * b_scale
    return SdpSolution(
        primal_blocks=[xb * b_scale for xb in split(x)],
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


def _warn_if_failed(sol: SdpSolution, who: str, tol: float = DEFAULT_TOL) -> None:
    """Raise on infeasibility or unboundedness (every program built here is
    bounded and strictly feasible); warn when a solve stopped far from tolerance,
    naming the line that called the entry point that called ``_SdpBuilder.solve``.

    Stalls within ~50x of the target tolerance stay silent: no entry point
    reports a solver objective.  Each re-evaluates its cost at the projected
    program or repairs a diamond Z to exact feasibility there, and
    ``optimize_program_diamond`` re-solves when its joint solve is not optimal.
    """
    if sol.status in ("infeasible", "unbounded"):
        raise RuntimeError(f"{who}: solver reported the problem {sol.status}")
    if sol.status != "optimal":
        gap_rel = sol.gap / (1.0 + abs(sol.primal_objective) + abs(sol.dual_objective))
        merit = max(gap_rel, sol.residual_primal, sol.residual_dual)
        if merit > 50.0 * tol:
            warnings.warn(
                f"{who}: interior point stopped at status {sol.status} "
                f"(gap {sol.gap:.3e}, residuals {sol.residual_primal:.3e}/"
                f"{sol.residual_dual:.3e})",
                stacklevel=4,
            )


class _SdpBuilder:
    """Build, solve and recover one SdpProblem.  ``real`` says that the data
    (chi and, with a processor, its transfer and program blocks) are real
    (``_real_data``), so every block is real symmetric.  The objective is a
    {block index: matrix} dict and ``groups`` the constraint groups
    ``(terms, rhs)``; with a processor, pi enters as the blocks ``pi_blks``."""

    def __init__(self, chi: np.ndarray, proc: Optional[ProcessorMap] = None):
        self.real = _real_data(chi, proc)
        self.proc = proc
        self.pi_blks: List[List[int]] = []
        self.block_dims: List[int] = []
        self.objective: Dict[int, np.ndarray] = {}
        self.groups: List[Tuple[Dict[int, np.ndarray], np.ndarray]] = []

    def basis(self, n: int) -> np.ndarray:
        """``hermitian_basis(n)``, or for real data only its real symmetric
        members (the n diagonal units and the real off-diagonal elements,
        indices n + 2j) as a real stack."""
        basis = hermitian_basis(n)
        return basis[np.r_[:n, n:n * n:2]].real if self.real else basis

    def add_block(self, n: int, objective: Optional[np.ndarray] = None) -> int:
        self.block_dims.append(n)
        if objective is not None:
            self.objective[len(self.block_dims) - 1] = objective
        return len(self.block_dims) - 1

    def terms(self, parts: list) -> Dict[int, np.ndarray]:
        """Terms on the program blocks of a (k, d_prog, d_prog) stack A from its block
        parts (one (k, nb, m, m) stack per class of ``proc.block_coords``):
        <A_i, pi> = sum_b <copies_b part_b(A_i), M_b>; real stacks for real data.
        The first call adds one m x m variable block M_b per program block, by class."""
        coords = self.proc.block_coords
        if not self.pi_blks:
            self.pi_blks = [[self.add_block(m) for _ in range(nb)] for nb, m, _ in coords.shapes]
        terms = {}
        for blks, copies, part in zip(self.pi_blks, coords.copies, parts):
            stack = hermitize(copies * part)
            terms.update(zip(blks, (stack.real if self.real else stack).swapaxes(0, 1)))
        return terms

    def build(self) -> SdpProblem:
        return SdpProblem(objective=[self.objective.get(b, np.zeros((d, d)))
                                     for b, d in enumerate(self.block_dims)],
                          constraints=self.groups)

    def solve(self, tol: float, who: str) -> Tuple[Optional[DensityMatrix], SdpSolution]:
        """Solve, raising or warning for ``who`` (``_warn_if_failed``).  With a
        processor, first add pi's feasibility rows (unit trace, or Tr_out pi = I/d
        for the single-port Choi set); return pi, its blocks projected to exact
        feasibility (None without a processor), and the solution."""
        proc = self.proc
        if proc is not None:
            if proc.program_domain == "choi":
                fs = self.basis(proc.d_in)
                # Tr_out pi = I/d (includes unit trace)
                rows = np.kron(fs, np.eye(proc.d_in, dtype=fs.dtype))
                rhs = np.trace(fs, axis1=1, axis2=2).real / proc.d_in
            else:
                # Tr pi = 1: each block counts once per copy
                rows, rhs = np.eye(proc.d_prog)[None], [1.0]
            self.groups.append((self.terms(proc.block_coords.part(rows)), rhs))
        sol = solve_sdp(self.build(), tol=tol)
        _warn_if_failed(sol, who, tol)
        if proc is None:
            return None, sol
        stacks = [np.array([sol.primal_blocks[b] for b in blks]) for blks in self.pi_blks]
        return _program(proc, _projection(proc, stacks)), sol


# --- concrete programs --------------------------------------------------------


def _repaired_value(z: np.ndarray, chi: np.ndarray, d_in: int, d_out: int) -> float:
    """2 ||Tr_out Z'||_inf for Z' = Z + shift I, the least shift with Z' >= 0
    and Z' >= d_in chi: Z' is feasible for Watrous's program on chi, so the
    value is an attained upper bound on its optimum."""
    lo1 = float(np.linalg.eigvalsh(z).min())
    lo2 = float(np.linalg.eigvalsh(z - d_in * chi).min())
    shift = max(0.0, -lo1, -lo2)
    z = z + shift * np.eye(z.shape[0])
    return 2.0 * spectral_norm(partial_trace(z, [d_in, d_out], keep=[0]))


def diamond_distance(chi_omega: np.ndarray, d_in: int, tol: float = DEFAULT_TOL) -> float:
    """Diamond norm of the map whose (normalized) Choi matrix is chi_omega.

    chi_omega should be the Hermitian difference of two Choi matrices
    (ordering: input copy, output).  When it is not traceless a warning is
    emitted and the value is still the optimum of Watrous's program, which
    is then not the diamond norm: chi = I/4 gives 2.0, where the map
    rho -> Tr(rho) I/2 has diamond norm 1.  The returned value is certified:
    it is 2 ||Tr_out Z||_inf for a Z repaired to exact feasibility, an
    attainable upper bound on the true minimum.  One eigendecomposition
    gives the lower bound 2 Tr chi_+ (||chi||_1 for traceless chi: the
    maximally entangled input) and the feasible Z = d_in chi_+; when the two
    agree to ``tol`` (chi_+ has a flat marginal, as for Pauli channels) no
    SDP is solved.
    """
    chi = np.asarray(chi_omega, dtype=complex)
    if chi.ndim != 2 or chi.shape[0] != chi.shape[1]:
        raise ValueError(f"diamond_distance: chi_omega has shape {chi.shape}, not square")
    if not np.all(np.isfinite(chi)):
        raise ValueError("diamond_distance: chi_omega has non-finite entries")
    n = chi.shape[0]
    if d_in < 1:
        raise ValueError(f"diamond_distance: need d_in >= 1, got d_in={d_in}")
    if n % d_in:
        raise ValueError(f"diamond_distance: dim {n} not divisible by d_in={d_in}")
    chi = hermitize(chi)
    d_out = n // d_in
    if abs(np.trace(chi)) > 1e-8:
        warnings.warn(
            f"diamond_distance: chi has trace {np.trace(chi):.3e}; expected a "
            f"traceless Choi difference, and the value returned is Watrous's "
            f"optimum, not the diamond norm",
            stacklevel=2,
        )
    vals, vecs = np.linalg.eigh(chi)
    if np.abs(vals).max() < 1e-14:
        return 0.0
    pos = np.maximum(vals, 0.0)
    upper = _repaired_value(hermitize((vecs * (d_in * pos)) @ vecs.conj().T), chi, d_in, d_out)
    if upper - 2.0 * float(pos.sum()) <= tol:
        return upper
    bld, z_blk = _watrous_builder(chi, d_in, d_out)
    _, sol = bld.solve(tol, "diamond_distance")
    return _repaired_value(sol.primal_blocks[z_blk], chi, d_in, d_out)


def optimize_program_trace(proc: ProcessorMap, chi_target,
                           tol: float = DEFAULT_TOL) -> Tuple[DensityMatrix, float]:
    """Joint minimization of the trace cost over program states, by the P/Q
    split program for ||chi - Lambda(pi)||_1:

        min Tr P + Tr Q  s.t.  P - Q + Lambda(pi) = chi,  P, Q >= 0.

    Returns the optimizing program (projected to exact feasibility) and the
    trace cost re-evaluated at it.
    """
    chi_e = hermitize(_target(proc, chi_target))
    n = chi_e.shape[0]
    bld = _SdpBuilder(chi_e, proc)
    basis = bld.basis(n)
    p_blk = bld.add_block(n, np.eye(n))
    q_blk = bld.add_block(n, np.eye(n))
    # P - Q + Lambda(pi) = chi   (as <B_a, .> coordinates)
    bld.groups.append(({p_blk: basis, q_blk: -basis,
                        **bld.terms(proc.dual(basis, blocks=True))}, _coords(basis, chi_e)))
    program, _ = bld.solve(tol, "optimize_program_trace")
    value = cost_eval("C1", chi_e, proc.apply_matrix(program))
    return program, value


def _watrous_builder(chi: np.ndarray, d_in: int, d_out: int,
                     proc: Optional[ProcessorMap] = None):
    """Watrous's diamond-norm program (arXiv:1207.5726) for Delta = chi - Lambda(pi):

        min 2t  s.t.  W = Z - d_in Delta >= 0,  V = t I - Tr_out Z >= 0,  Z >= 0.

    t is a real 1 x 1 block.  Without a processor Delta = chi is fixed; with
    one, the program blocks of pi are added (``_SdpBuilder.terms``).  Returns
    the builder and the Z block index.
    """
    n = d_in * d_out
    bld = _SdpBuilder(chi, proc)
    basis = bld.basis(n)
    z_blk = bld.add_block(n)
    w_blk = bld.add_block(n)
    v_blk = bld.add_block(d_in)
    t_blk = bld.add_block(1, np.array([[2.0]]))
    # W = Z - d (chi - Lambda(pi))
    terms = {w_blk: basis, z_blk: -basis}
    if proc is not None:
        terms.update(bld.terms(proc.dual(-d_in * basis, blocks=True)))
    bld.groups.append((terms, -d_in * _coords(basis, chi)))
    # V = t I - Tr_out Z
    fs = bld.basis(d_in)
    bld.groups.append(({v_blk: fs, z_blk: np.kron(fs, np.eye(d_out, dtype=fs.dtype)),
                        t_blk: -np.trace(fs, axis1=1, axis2=2).real.reshape(-1, 1, 1)},
                       np.zeros(len(fs))))
    return bld, z_blk


def optimize_program_diamond(proc: ProcessorMap, chi_target,
                             tol: float = DEFAULT_TOL) -> Tuple[DensityMatrix, float]:
    """Joint minimization of the diamond cost over program states.

    The value is the joint solve's Z block repaired for the projected
    program pi' (``_repaired_value`` on chi - Lambda(pi')).  Only when the
    joint solve is not optimal, or that value lies more than 100 tol above
    its dual objective, is Watrous's program on chi - Lambda(pi') solved again.
    """
    chi_e = hermitize(_target(proc, chi_target))
    bld, z_blk = _watrous_builder(chi_e, proc.d_in, proc.d_out, proc)
    program, sol = bld.solve(tol, "optimize_program_diamond")
    delta = hermitize(chi_e - proc.apply_matrix(program))
    value = _repaired_value(sol.primal_blocks[z_blk], delta, proc.d_in, proc.d_out)
    if sol.status != "optimal" or value > sol.dual_objective + 100.0 * tol:
        bld, z_blk = _watrous_builder(delta, proc.d_in, proc.d_out)
        _, sol = bld.solve(tol, "optimize_program_diamond")
        value = _repaired_value(sol.primal_blocks[z_blk], delta, proc.d_in, proc.d_out)
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
    chi_e = hermitize(_target(proc, chi_target))
    n = proc.d_choi
    bld = _SdpBuilder(chi_e, proc)
    vals, vecs = np.linalg.eigh(chi_e.real if bld.real else chi_e)
    support = vals > 1e-12 * float(vals.max())
    d_supp = np.diag(vals[support]).astype(vecs.dtype)
    v_supp = vecs[:, support]
    r = d_supp.shape[0]

    # objective corner: -Re Tr[V X] for the (r x n) off-diagonal slot X
    obj = np.zeros((r + n, r + n), dtype=vecs.dtype)
    obj[:r, r:] = -0.5 * v_supp.conj().T
    obj[r:, :r] = -0.5 * v_supp
    g_blk = bld.add_block(r + n, obj)
    # top-left corner = D, bottom-right corner = Lambda(pi)
    top, basis = bld.basis(r), bld.basis(n)
    corner = np.zeros((len(top), r + n, r + n), dtype=top.dtype)
    corner[:, :r, :r] = top
    bld.groups.append(({g_blk: corner}, _coords(top, d_supp)))
    corner = np.zeros((len(basis), r + n, r + n), dtype=basis.dtype)
    corner[:, r:, r:] = basis
    lam = bld.terms(proc.dual(-basis, blocks=True))
    bld.groups.append(({g_blk: corner, **lam}, np.zeros(len(basis))))
    program, _ = bld.solve(tol, "optimize_program_fidelity")
    value = bures_fidelity(chi_e, proc.apply_matrix(program))
    return program, value


def optimize_choi_diamond(n_ports: int, d: int, chi_target,
                          tol: float = DEFAULT_TOL) -> Tuple[ChoiMatrix, float]:
    """Diamond-optimal single-port Choi program of the reduced PBT map.

    ``pbt_reduced_map(n_ports, d)`` is built on the first call per process and
    shared, read-only, by every later call with the same (N, d)."""
    return optimize_program_diamond(pbt_reduced_map(n_ports, d), chi_target, tol=tol)
