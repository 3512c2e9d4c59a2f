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
predictor's.  The Schur matrix and the [X; S] factors share one rule
(``_chol``): a Cholesky factorization that fails is tried once more, shifted,
and then the solve ends ``breakdown``.  An ``SdpProblem`` takes its
constraints in groups of rows, each naming only the blocks it touches, and
keeps per block the rows with a nonzero entry, flattened, so A(X), A*(y), the
Newton right-hand side and the Schur matrix sum_b <A_j, W_b A_i W_b> are
matrix products over those rows (Fujisawa-Kojima-Nakata 1997).
There is no real embedding of complex data: a block's dtype follows its data,
so a block with real data is solved in real arithmetic and a complex
Hermitian block in complex arithmetic.  Blocks of one size and one dtype of
objective and of constraints form a class whose X, S, W and S^-1 are one
(k, d, d) stack, as in SDPT3's grouped blocks.  Per class and iteration the
stack [X; S], finite once mu is, takes one eigh, whose
halves give the NT scaling and S^-1, and one Cholesky factorization for the
step test over [dX; dS] (primal and dual at once); each inner product is one
product and one sum, added up in block order.  A class of 1 x 1 blocks, such
as the t of Watrous's program, is SDPT3's linear part: its NT scaling, S^-1,
factors and step test are elementwise on the real parts, which is what LAPACK
computes for 1 x 1 matrices, bit for bit.  A(X), A*(y) and the Schur sum run
block by block, so neither the stacks nor the elementwise class change any
rounding.  The programs below build each group from the Hermitian basis and
one ``proc.dual`` call on it.  When their data (the target, the processor's
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

Each program is built once as a template (``_Template``) from the processor,
``real`` and its block shape alone: the blocks, the constraint rows already
checked and scanned by ``SdpProblem``, the program blocks, and the linear map
chi -> b.  The target's rows hold zeros and the fidelity objective is zero
until a solve writes <B_a, chi> over the basis (the fidelity program: <B_a,
D> and its objective corner) with ``SdpProblem.with_data``, which checks only
the new data; the rows and every template array are shared and read-only.
The templates of a processor are kept in ``_TEMPLATES``, a weak-keyed map
from the processor, so they live as long as it does, keyed by (program,
real) and, for the fidelity program, whose block size is r + d_choi, by the
target's support rank r too; those of ``diamond_distance`` by (d_in, d_out,
real), for the eight most recently used keys (``_free_watrous_template``).
A solve on a template is bit for bit the solve of a fresh build on its
target, since the rows, their order and the rhs arithmetic are the same.

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

import copy
import functools
import math
import operator
import warnings
import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .channels import ChoiMatrix, DensityMatrix, bures_fidelity, cost_eval
from .hermlin import (HERMITICITY_RTOL, SQRT_NEG_TOL, _cholesky, _eigh, _eigvalsh, _solve, _square,
                      hermitize, partial_trace, spectral_norm)
from .optim import _program, _projection, _target
from .processors import ProcessorMap, _read_only, pbt_reduced_map

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
        bad = np.flatnonzero(dev > HERMITICITY_RTOL * np.maximum(1.0, np.abs(rows).max(axis=(1, 2))))
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
        # fresh arrays that no solve writes, shared by every ``with_data`` copy
        for a in (*self._stacks, *(r for r in self._rows if isinstance(r, np.ndarray))):
            _read_only(a)

    @property
    def block_dims(self) -> List[int]:
        return [c.shape[0] for c in self.objective]

    def with_data(self, rhs, objective: Optional[Dict[int, np.ndarray]] = None) -> "SdpProblem":
        """This problem with the right-hand side ``rhs`` and, for the blocks that
        ``objective`` names, new objective matrices.  Only the new data are checked
        (length, finite, shape, Hermitian); the constraint rows, checked and
        scanned once, are shared."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != self.rhs.shape:
            raise ValueError(f"SdpProblem: rhs has shape {rhs.shape}, expected {self.rhs.shape}")
        if not np.isfinite(rhs).all():
            raise ValueError("SdpProblem: rhs has a non-finite entry")
        new = copy.copy(self)
        new.rhs = rhs
        ends = np.cumsum([b.size for _, b in self.constraints])[:-1]
        new.constraints = [(terms, b) for (terms, _), b in zip(self.constraints, np.split(rhs, ends))]
        if objective:
            new.objective = list(self.objective)
            for blk, c in objective.items():
                c = np.asarray(c)
                if not 0 <= blk < len(self.objective) or c.shape != self.objective[blk].shape:
                    raise ValueError(f"SdpProblem: objective, block {blk}: shape {c.shape}")
                _check_rows(c[None], lambda _: f"objective, block {blk}")
                new.objective[blk] = c
        return new


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


def _nt_scaling(x: np.ndarray, s: np.ndarray, eig):
    """NT scaling of (k, d, d) stacks of Hermitian positive definite X, S:
    (W, G, lambda) with W S W = X, G = X^1/2 Q Lambda^-1/2 from
    eigh(X^1/2 S X^1/2) = Q Lambda^2 Q^dag, so W = G G^dag and
    G^-1 X G^-dag = G^dag S G = Lambda = diag(lambda), from ``eig``, eigh of
    the finite [X; S], X's k pairs first.  For d = 1 ``eig`` is None, W is
    elementwise on the real parts and G and lambda are None."""
    if eig is None:
        rx = np.sqrt(np.maximum(x.real, 1e-300))
        return (rx * np.maximum(rx * s.real * rx, 1e-300) ** -0.5) * rx, None, None
    wx, vx = eig[0][:len(x)], eig[1][:len(x)]
    rx = (vx * np.sqrt(np.maximum(wx, 1e-300))[:, None]) @ vx.conj().swapaxes(1, 2)
    wi, vi = _eigh(hermitize(rx @ s @ rx))
    wi = np.maximum(wi, 1e-300)
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


def _inverse(s: np.ndarray, eig) -> np.ndarray:
    """S^-1 of a (k, d, d) stack of Hermitian positive definite S, on eigenvalues
    clipped at 1e-300, from ``eig``, eigh of the finite stack [X; S], whose last
    k pairs are S's; for d = 1 (``eig`` None), elementwise on the real parts."""
    if eig is None:
        return 1.0 / np.maximum(s.real, 1e-300)
    ws, vs = eig[0][-len(s):], eig[1][-len(s):]
    return (vs / np.maximum(ws, 1e-300)[:, None]) @ vs.conj().swapaxes(1, 2)


def _chol(x: np.ndarray, rel: float) -> np.ndarray:
    """Cholesky factors of a finite Hermitian matrix, or of a stack, then matrix
    by matrix if it fails; square roots of the real parts for positive 1 x 1s.
    One rule for a matrix that rounding pushed to the edge: a failed factorization
    is tried once more shifted by rel max(1, mean diagonal) I, then the solve
    ends ``breakdown`` (_NumericalBreakdown)."""
    if x.shape[-1] == 1 and (x.real > 0.0).all():
        return np.sqrt(x.real)
    try:
        return _cholesky(x)
    except np.linalg.LinAlgError:
        if x.ndim == 3:
            return np.array([_chol(xb, rel) for xb in x])
    try:
        n = x.shape[0]
        return _cholesky(x + (rel * max(1.0, float(np.trace(x).real) / n)) * np.eye(n))
    except np.linalg.LinAlgError:
        raise _NumericalBreakdown("cholesky failed") from None


def _steps(tau: float, factors, dx, ds) -> Tuple[float, float]:
    """Fraction-to-boundary steps min(1, tau * largest step keeping every block
    PSD) for X + a dX and S + a dS.  ``factors`` holds per class the Cholesky
    factors L of X stacked over those of S; each class tests [dX; dS] at once,
    by the eigenvalues of L^-1 D L^-dag (elementwise for 1 x 1 blocks)."""
    lam_p = lam_d = math.inf
    for l, dxc, dsc in zip(factors, dx, ds):
        d = np.concatenate([dxc, dsc])
        if not np.isfinite(d).all():
            raise _NumericalBreakdown("non-finite direction")
        if l.shape[-1] == 1:
            lam = (np.conj(d / l) / l).real
        else:
            t = _solve(l, _solve(l, d).conj().swapaxes(1, 2))
            lam = _eigvalsh(hermitize(t))
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
        per_class = [(pk.conj() * qk).sum(axis=(1, 2)).real.tolist() for pk, qk in zip(p, q)]
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

    # iterates are replaced, never written in place, so ``best`` needs no copies;
    # each class starts in its dtype, so no kernel meets mixed operands
    x = [np.tile(np.eye(d, dtype=np.result_type(c, dt)), (k, 1, 1))
         for (k, d, _), c, dt in zip(shapes, c_cls, asy_dtypes)]
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
            mu = sum(dots(x, s)) / n_total
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
            # a blow-up without a Farkas ray is a breakdown: keep the best iterate;
            # mu, a sum over every entry of X * S, is finite only for finite X, S
            if not np.isfinite(mu) or mu > 1e150 or y_norm > 1e150 or mu <= 0.0:
                status = "breakdown"
                break

            try:
                # one [X; S] per class for one eigh and one Cholesky; LAPACK
                # decomposes each matrix alone, so the halves are eigh(X), eigh(S)
                xs = [np.concatenate([xk, sk]) for xk, sk in zip(x, s)]
                eigs = [_eigh(a) if a.shape[-1] > 1 else None for a in xs]
                w, g, lam = zip(*map(_nt_scaling, x, s, eigs))
                s_inv = list(map(_inverse, s, eigs))
                factors = [_chol(a, 1e-14) for a in xs]

                schur = np.zeros((m, m))
                for sq, a, mat, wb, d in zip(squares, stacks, mats, split(w), dims):
                    waw = wb @ mat @ wb
                    schur[sq] += (a @ waw.reshape(len(a), d * d).conj().T).real
                # the shift keeps the factorization alive when constraints are
                # nearly dependent; only then, because A(dX) misses r_p by
                # shift * dy, which near the optimum stalls a tight tol
                schur_l = _chol(hermitize(schur), 1e-13)

                # W R_d W, shared by the predictor and the corrector
                wrw = [hermitize(wk @ rk @ wk) for wk, rk in zip(w, rd)]

                def newton(sigma_mu, second=None):
                    """The step with dX + W dS W = sigma_mu S^-1 - X - second."""
                    base = [sigma_mu * si - xk - v for si, xk, v in zip(s_inv, x, wrw)]
                    if second is not None:
                        base = [bk - t for bk, t in zip(base, second)]
                    dy = _solve(schur_l.T, _solve(schur_l, rp - a_of_x(split(base))))
                    if not np.isfinite(dy).all():
                        raise _NumericalBreakdown("non-finite Newton step")
                    asdy = a_star(dy)
                    ds = [rk - ak for rk, ak in zip(rd, asdy)]
                    dx = [bk + hermitize(wk @ ak @ wk) for bk, wk, ak in zip(base, w, asdy)]
                    return dx, dy, ds

                # predictor
                dx_a, dy_a, ds_a = newton(0.0)
                ap, ad = _steps(tau, factors, dx_a, ds_a)
                step_a = min(ap, ad)
                mu_aff = sum(dots([xk + ap * dk for xk, dk in zip(x, dx_a)],
                                  [sk + ad * dk for sk, dk in zip(s, ds_a)])) / n_total
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
                    dx, dy, ds = newton(target)
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
    naming the line that called the entry point that called ``_Template.solve``.

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


class _Template(NamedTuple):
    """One SDP program, built once and shared read-only: ``problem`` holds the
    checked and scanned rows, with zeros for the target's data, which every
    solve writes.  A target sets only ``rhs[target[0]]``, scale <B_a, x> over
    the basis ``target[1]`` with scale ``target[2]``, and, for the fidelity
    program, the objective of block ``blk``.  ``blk`` is the block its caller
    reads (Z of Watrous's program, the fidelity program's one block), and
    ``pi_blks`` the program blocks (``_SdpBuilder.terms``)."""

    problem: SdpProblem
    pi_blks: tuple
    target: tuple
    blk: Optional[int]

    def solve(self, proc: Optional[ProcessorMap], x: np.ndarray, tol: float, who: str,
              objective: Optional[Dict[int, np.ndarray]] = None
              ) -> Tuple[Optional[DensityMatrix], SdpSolution]:
        """Solve for the target x, raising or warning for ``who`` (``_warn_if_failed``);
        return pi, its blocks projected to exact feasibility (None without a
        processor), and the solution.  ``proc`` is passed, not kept, so that a
        template holds no reference to its map."""
        rows, basis, scale = self.target
        rhs = self.problem.rhs.copy()
        rhs[rows] = scale * _coords(basis, x)
        sol = solve_sdp(self.problem.with_data(rhs, objective), tol=tol)
        _warn_if_failed(sol, who, tol)
        if proc is None:
            return None, sol
        stacks = [np.array([sol.primal_blocks[b] for b in blks]) for blks in self.pi_blks]
        return _program(proc, _projection(proc, stacks)), sol


# processor -> {key: template}; weak keys, so a map's templates go with it
_TEMPLATES: "weakref.WeakKeyDictionary[ProcessorMap, dict]" = weakref.WeakKeyDictionary()


def _template(proc: ProcessorMap, key: tuple, build: Callable[[], _Template]) -> _Template:
    """The template under ``key`` of ``proc``, built by ``build`` on first use."""
    templates = _TEMPLATES.setdefault(proc, {})
    tpl = templates.get(key)
    if tpl is None:
        tpl = templates[key] = build()
    return tpl


class _SdpBuilder:
    """Build one program's template.  ``real`` says that the data (the target
    and, with a processor, its transfer and program blocks) are real
    (``_real_data``), so every block is real symmetric.  The objective is a
    {block index: matrix} dict and ``groups`` the constraint groups
    ``(terms, rhs)``; with a processor, pi enters as the blocks ``pi_blks``."""

    def __init__(self, proc: Optional[ProcessorMap], real: bool):
        self.real = real
        self.proc = proc
        self.pi_blks: List[List[int]] = []
        self.block_dims: List[int] = []
        self.objective: Dict[int, np.ndarray] = {}
        self.groups: List[Tuple[Dict[int, np.ndarray], np.ndarray]] = []
        self.target: tuple = ()

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

    def add_target_group(self, terms: Dict[int, np.ndarray], basis: np.ndarray,
                         scale: float = 1.0) -> None:
        """Add the group whose rhs is scale <B_a, x> over ``basis``: the one
        group that a target x sets, zero until a solve does."""
        start = sum(len(b) for _, b in self.groups)
        self.target = (slice(start, start + len(basis)), basis, scale)
        self.groups.append((terms, np.zeros(len(basis))))

    def terms(self, parts: list) -> Dict[int, np.ndarray]:
        """Terms on the program blocks of a (k, d_prog, d_prog) stack A from its block
        parts (one (k, nb, m, m) stack per class of ``proc.block_coords``):
        <A_i, pi> = sum_b <copies_b part_b(A_i), M_b>; real stacks for real data, else
        complex ones (the dual's real class of 1 x 1 blocks is cast back).
        The first call adds one m x m variable block M_b per program block, by class."""
        coords = self.proc.block_coords
        if not self.pi_blks:
            self.pi_blks = [[self.add_block(m) for _ in range(nb)] for nb, m, _ in coords.shapes]
        terms = {}
        for blks, copies, part in zip(self.pi_blks, coords.copies, parts):
            stack = hermitize(copies * part.astype(complex, copy=False))
            terms.update(zip(blks, (stack.real if self.real else stack).swapaxes(0, 1)))
        return terms

    def template(self, blk: Optional[int] = None) -> _Template:
        """The template of this program, every array read-only (``SdpProblem``
        marks the rows it scans; this, the data it was given).  With a
        processor, pi's feasibility rows come last: unit trace, or Tr_out pi =
        I/d for the single-port Choi set."""
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
        problem = SdpProblem(objective=[self.objective.get(b, np.zeros((d, d)))
                                        for b, d in enumerate(self.block_dims)],
                             constraints=self.groups)
        for a in (*problem.objective, problem.rhs, self.target[1],
                  *(a for terms, b in problem.constraints for a in (b, *terms.values()))):
            _read_only(a)
        return _Template(problem, tuple(map(tuple, self.pi_blks)), self.target, blk)


# --- concrete programs --------------------------------------------------------


def _repaired_value(z: np.ndarray, chi: np.ndarray, d_in: int, d_out: int) -> float:
    """2 ||Tr_out Z'||_inf for Z' = Z + shift I, the least shift with Z' >= 0
    and Z' >= d_in chi: Z' is feasible for Watrous's program on chi, so the
    value is an attained upper bound on its optimum."""
    lo1 = float(_eigvalsh(z).min())
    lo2 = float(_eigvalsh(z - d_in * chi).min())
    shift = max(0.0, -lo1, -lo2)
    z = z + shift * np.eye(z.shape[0])
    return 2.0 * spectral_norm(partial_trace(z, [d_in, d_out], keep=[0]))


def _watrous_template(proc: Optional[ProcessorMap], real: bool, d_in: int,
                      d_out: int) -> _Template:
    """Watrous's diamond-norm program (arXiv:1207.5726) for Delta = chi - Lambda(pi):

        min 2t  s.t.  W = Z - d_in Delta >= 0,  V = t I - Tr_out Z >= 0,  Z >= 0.

    t is a real 1 x 1 block.  Without a processor Delta = chi; with one, the
    program blocks of pi are added (``_SdpBuilder.terms``).  ``blk`` is Z.
    """
    n = d_in * d_out
    bld = _SdpBuilder(proc, real)
    basis = bld.basis(n)
    z_blk = bld.add_block(n)
    w_blk = bld.add_block(n)
    v_blk = bld.add_block(d_in)
    t_blk = bld.add_block(1, np.array([[2.0]]))
    # W = Z - d (chi - Lambda(pi))
    terms = {w_blk: basis, z_blk: -basis}
    if proc is not None:
        terms.update(bld.terms(proc.dual(-d_in * basis, blocks=True)))
    bld.add_target_group(terms, basis, -d_in)
    # V = t I - Tr_out Z
    fs = bld.basis(d_in)
    bld.groups.append(({v_blk: fs, z_blk: np.kron(fs, np.eye(d_out, dtype=fs.dtype)),
                        t_blk: -np.trace(fs, axis1=1, axis2=2).real.reshape(-1, 1, 1)},
                       np.zeros(len(fs))))
    return bld.template(z_blk)


@functools.lru_cache(maxsize=8)
def _free_watrous_template(d_in: int, d_out: int, real: bool) -> _Template:
    """Watrous's program without a processor, built once per (d_in, d_out, real).
    The eight most recently used are kept, twice the four keys (qubit and
    qutrit, real and complex) of a seeded diamond-distance sweep; the cache
    is bounded because a template grows as (d_in d_out)^4: 0.45 MB for a
    complex qutrit map, 26 MB for d_in = d_out = 5."""
    return _watrous_template(None, real, d_in, d_out)


def diamond_distance(chi_omega: np.ndarray, d_in: int, tol: float = DEFAULT_TOL) -> float:
    """Diamond norm of the map whose (normalized) Choi matrix is chi_omega.

    chi_omega should be the Hermitian difference of two Choi matrices (ordering:
    input copy, output), so Tr_out chi = 0.  It must pass ``_square``; it is
    hermitized, not rejected, as a difference near 0 needs an absolute floor
    that the relative test of ``is_hermitian`` lacks.  When Tr_out chi is not 0,
    a warning is emitted and the value is still the optimum of Watrous's
    program, which is then not the diamond norm: chi = (Z x I)/4 and chi = I/4
    give 2.0, where the maps rho -> Tr(Z rho) I/2 and rho -> Tr(rho) I/2 have
    diamond norm 1.  The returned value is certified: it is 2 ||Tr_out Z||_inf
    for a Z repaired to exact feasibility, an attainable upper bound on the true
    minimum.  One eigendecomposition gives the lower bound 2 Tr chi_+ (||chi||_1
    for traceless chi: the maximally entangled input) and the feasible Z = d_in
    chi_+; when the two agree to ``tol`` (chi_+ has a flat marginal, as for
    Pauli channels) no SDP is solved.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"diamond_distance: tol must be finite and > 0, got {tol!r}")
    d_in = operator.index(d_in)
    chi = _square(chi_omega, "diamond_distance: chi_omega")
    n = chi.shape[0]
    if d_in < 1:
        raise ValueError(f"diamond_distance: need d_in >= 1, got d_in={d_in}")
    if n % d_in:
        raise ValueError(f"diamond_distance: dim {n} not divisible by d_in={d_in}")
    chi = hermitize(chi)
    d_out = n // d_in
    marginal = float(np.abs(partial_trace(chi, [d_in, d_out], keep=[0])).max())
    if marginal > 1e-8 or abs(np.trace(chi)) > 1e-8:
        warnings.warn(
            f"diamond_distance: chi has trace {np.trace(chi).real:.3e} and max|Tr_out chi| "
            f"{marginal:.3e}; expected a traceless Choi difference (Tr_out chi = 0), and "
            f"the value returned is Watrous's optimum, not the diamond norm",
            stacklevel=2,
        )
    vals, vecs = _eigh(chi)
    if np.abs(vals).max() < 1e-14:
        return 0.0
    pos = np.maximum(vals, 0.0)
    upper = _repaired_value(hermitize((vecs * (d_in * pos)) @ vecs.conj().T), chi, d_in, d_out)
    if upper - 2.0 * float(pos.sum()) <= tol:
        return upper
    tpl = _free_watrous_template(d_in, d_out, _real_data(chi))
    _, sol = tpl.solve(None, chi, tol, "diamond_distance")
    return _repaired_value(sol.primal_blocks[tpl.blk], chi, d_in, d_out)


def _trace_template(proc: ProcessorMap, real: bool) -> _Template:
    n = proc.d_choi
    bld = _SdpBuilder(proc, real)
    basis = bld.basis(n)
    p_blk = bld.add_block(n, np.eye(n))
    q_blk = bld.add_block(n, np.eye(n))
    # P - Q + Lambda(pi) = chi   (as <B_a, .> coordinates)
    bld.add_target_group({p_blk: basis, q_blk: -basis,
                          **bld.terms(proc.dual(basis, blocks=True))}, basis)
    return bld.template()


def optimize_program_trace(proc: ProcessorMap, chi_target,
                           tol: float = DEFAULT_TOL) -> Tuple[DensityMatrix, float]:
    """Joint minimization of the trace cost over program states, by the P/Q
    split program for ||chi - Lambda(pi)||_1:

        min Tr P + Tr Q  s.t.  P - Q + Lambda(pi) = chi,  P, Q >= 0.

    Returns the optimizing program (projected to exact feasibility) and the
    trace cost re-evaluated at it.
    """
    chi_e = hermitize(_target(proc, chi_target))
    real = _real_data(chi_e, proc)
    tpl = _template(proc, ("trace", real), lambda: _trace_template(proc, real))
    program, _ = tpl.solve(proc, chi_e, tol, "optimize_program_trace")
    value = cost_eval("C1", chi_e, proc.apply_matrix(program))
    return program, value


def optimize_program_diamond(proc: ProcessorMap, chi_target,
                             tol: float = DEFAULT_TOL) -> Tuple[DensityMatrix, float]:
    """Joint minimization of the diamond cost over program states.

    The value is the joint solve's Z block repaired for the projected
    program pi' (``_repaired_value`` on chi - Lambda(pi')).  Only when the
    joint solve is not optimal, or that value lies more than 100 tol above
    its dual objective, is Watrous's program on chi - Lambda(pi') solved again.
    """
    chi_e = hermitize(_target(proc, chi_target))
    d_in, d_out = proc.d_in, proc.d_out
    real = _real_data(chi_e, proc)
    tpl = _template(proc, ("diamond", real), lambda: _watrous_template(proc, real, d_in, d_out))
    program, sol = tpl.solve(proc, chi_e, tol, "optimize_program_diamond")
    delta = hermitize(chi_e - proc.apply_matrix(program))
    value = _repaired_value(sol.primal_blocks[tpl.blk], delta, d_in, d_out)
    if sol.status != "optimal" or value > sol.dual_objective + 100.0 * tol:
        tpl = _free_watrous_template(d_in, d_out, _real_data(delta))
        _, sol = tpl.solve(None, delta, tol, "optimize_program_diamond")
        value = _repaired_value(sol.primal_blocks[tpl.blk], delta, d_in, d_out)
    return program, value


def _fidelity_template(proc: ProcessorMap, real: bool, r: int) -> _Template:
    n = proc.d_choi
    bld = _SdpBuilder(proc, real)
    g_blk = bld.add_block(r + n)
    # top-left corner = D, bottom-right corner = Lambda(pi)
    top, basis = bld.basis(r), bld.basis(n)
    corner = np.zeros((len(top), r + n, r + n), dtype=top.dtype)
    corner[:, :r, :r] = top
    bld.add_target_group({g_blk: corner}, top)
    corner = np.zeros((len(basis), r + n, r + n), dtype=basis.dtype)
    corner[:, r:, r:] = basis
    lam = bld.terms(proc.dual(-basis, blocks=True))
    bld.groups.append(({g_blk: corner, **lam}, np.zeros(len(basis))))
    return bld.template(g_blk)


def optimize_program_fidelity(proc: ProcessorMap, chi_target,
                              tol: float = DEFAULT_TOL) -> Tuple[DensityMatrix, float]:
    """Joint maximization of the Bures fidelity over program states.

    Uses max Re Tr[V X] over [[D, X], [X^dag, Lambda(pi)]] >= 0, where
    chi_target = V D V^dag restricted to its support.  Working on the
    support keeps the feasible set strictly solvable even for pure
    (unitary) targets, where the unrestricted block could never be
    positive definite.  The program's blocks depend on the target only
    through the support rank r, so its template is kept per r.  A target
    that is zero or has an eigenvalue below -``SQRT_NEG_TOL`` (the bound
    that ``bures_fidelity`` applies) raises ValueError before any solve.
    """
    chi_e = hermitize(_target(proc, chi_target))
    n = proc.d_choi
    real = _real_data(chi_e, proc)
    vals, vecs = _eigh(chi_e.real if real else chi_e)
    if vals[-1] <= 0.0 or vals[0] < -SQRT_NEG_TOL:
        raise ValueError(f"optimize_program_fidelity: chi_target must be PSD and nonzero, "
                         f"has eigenvalues in [{vals[0]:.3e}, {vals[-1]:.3e}]")
    support = vals > 1e-12 * float(vals.max())
    d_supp = np.diag(vals[support]).astype(vecs.dtype)
    v_supp = vecs[:, support]
    r = d_supp.shape[0]

    # objective corner: -Re Tr[V X] for the (r x n) off-diagonal slot X
    obj = np.zeros((r + n, r + n), dtype=vecs.dtype)
    obj[:r, r:] = -0.5 * v_supp.conj().T
    obj[r:, :r] = -0.5 * v_supp
    tpl = _template(proc, ("fidelity", real, r), lambda: _fidelity_template(proc, real, r))
    program, _ = tpl.solve(proc, d_supp, tol, "optimize_program_fidelity", {tpl.blk: obj})
    value = bures_fidelity(chi_e, proc.apply_matrix(program))
    return program, value


def optimize_choi_diamond(n_ports: int, d: int, chi_target,
                          tol: float = DEFAULT_TOL) -> Tuple[ChoiMatrix, float]:
    """Diamond-optimal single-port Choi program of the reduced PBT map.

    ``pbt_reduced_map(n_ports, d)`` is built on the first call per process and
    shared, read-only, by every later call with the same (N, d), and so is
    its diamond program's template."""
    return optimize_program_diamond(pbt_reduced_map(n_ports, d), chi_target, tol=tol)
