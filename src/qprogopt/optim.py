"""First-order optimization of program states.

Gradients of the channel-simulation costs are analytic: with ``L`` the
processor map and ``L*`` its dual,

* trace cost:      grad = L*[sign(chi_pi - chi_target)], with sign(0) = 0;
* fidelity:        grad F = (1/2) L*[ sqrt(t) (sqrt(t) chi_pi sqrt(t))^(-1/2) sqrt(t) ]
  for t = chi_target (pseudo-inverse on the support);
* infidelity:      grad = -2 F grad F;
* smoothed trace:  grad = L*[h'_mu(chi_pi - chi_target)] (Huber derivative).

The value and the observable inside ``L*`` come from one spectral
decomposition, in the value-and-gradient table of ``channels``;
``simulation_cost``, ``simulation_gradient`` and the iterative methods all
read that one table.

A program is a ``DensityMatrix``.  Its feasible set follows the processor's
``program_domain``: the density matrices (Euclidean projection =
spectrum-to-simplex, computed in closed form) or the single-port Choi set of
the reduced port-based-teleportation map (projection by semismooth Newton on
its d x d dual multiplier).  Both searches leave by one step: ``_projection``
projects in block coordinates, every first-order iterate and every SDP
program's solved blocks, and ``_program`` re-embeds and validates.

The first-order methods iterate in the processor's block coordinates
(``ProcessorMap.block_coords``): one (nb, m, m) stack of block matrices per
block size, which the map cannot tell from the whole program.  The gradient
of a block-structured program is block-structured, and so is its projection,
so the iteration is the one on whole programs, with one stacked ``eigh`` per
size class and one simplex projection of the whole spectrum, each eigenvalue
counted once per copy of its block; a class of 1 x 1 blocks (teleportation's
Bell weights) is its own spectrum, a real vector from end to end.  The
Frank-Wolfe vertex is the least eigenvector of the gradient's blocks, spread
evenly over the copies of its block.  A random initial program is replaced by
its block part, which has the same cost.  Iterates are plain ndarrays; one
program per run is re-embedded and validated, the one returned, and the
target is checked once, before the first iterate.  With the single block
V = I (the reduced PBT map), the coordinates are the program itself and the
arithmetic is that of the whole-program loop, bit for bit.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional

import numpy as np

from .channels import _COSTS, ChoiMatrix, DensityMatrix, as_matrix, max_entangled, unitary_channel
from .hermlin import _checked, _eigh, _eigh_desc, _solve, _square, hermitize, partial_trace
from .processors import ProcessorMap, _read_only

__all__ = [
    "OptimConfig",
    "OptimResult",
    "LearningRate",
    "simulation_cost",
    "simulation_gradient",
    "project_to_states",
    "project_to_choi_set",
    "projected_subgradient",
    "frank_wolfe",
    "learn_unitary_program",
]

STALL_WINDOW = 50  # stop once the best cost gained < tolerance over this many iterations
# project_to_choi_set: Newton stops at ||Tr_out chi - I/d||_F <= TOL * max(1, ||x||_F);
# the residual's rounding floor is a few eps * max(1, ||x||_F)
CHOI_PROJECTION_TOL = 1e-14
CHOI_PROJECTION_MAX_ITERS = 500  # Newton steps; inputs of norm 1e6 take ~100
CHOI_PROJECTION_RIDGE = 1e-8  # Jacobian ridge, times min(1, residual)
CHOI_PROJECTION_HALVINGS = 40  # backtracking steps per Newton step
DEGENERACY_TOL = 1e-10  # learn_unitary_program warns below this top-eigenvalue gap
_UNIT_VERTEX = _read_only(np.ones(1))  # Frank-Wolfe's vertex in a 1 x 1 block


@dataclass(frozen=True)
class LearningRate:
    """Step-size schedule: a/sqrt(k) ('inv_sqrt') or a/(b + k) ('harmonic')."""

    kind: str = "inv_sqrt"
    a: float = 1.0
    b: float = 0.0

    def __post_init__(self):
        if self.kind not in ("inv_sqrt", "harmonic"):
            raise ValueError(f"LearningRate: unknown kind {self.kind!r}")
        if not 0 < self.a < math.inf:
            raise ValueError(f"LearningRate: a must be positive and finite, got {self.a}")
        if not math.isfinite(self.b):
            raise ValueError(f"LearningRate: b must be finite, got {self.b}")
        if self.kind == "harmonic" and self.b <= -1:  # a/(b + k) must stay finite and positive
            raise ValueError(f"LearningRate: harmonic b must be > -1, got {self.b}")

    def __call__(self, k: int) -> float:
        if self.kind == "inv_sqrt":
            return self.a / math.sqrt(k)
        return self.a / (self.b + k)


@dataclass(frozen=True)
class OptimConfig:
    max_iters: int = 200
    learning_rate: LearningRate = field(default_factory=LearningRate)
    tolerance: float = 1e-9
    cost_kind: str = "C1"  # C1 | CF | Cmu
    mu: float = 1e-2
    seed: int = 0
    init: str = "maximally_mixed"  # maximally_mixed | random

    def __post_init__(self):
        try:  # a float would pass the range checks and fail inside the run
            max_iters, seed = operator.index(self.max_iters), operator.index(self.seed)
        except TypeError as exc:
            raise TypeError(f"OptimConfig: max_iters and seed must be integers, got "
                            f"{self.max_iters!r} and {self.seed!r}") from exc
        if max_iters < 1:
            raise ValueError("OptimConfig: max_iters must be >= 1")
        if seed < 0:  # checked for every init, although only 'random' reads it
            raise ValueError(f"OptimConfig: seed must be >= 0, got {seed}")
        if self.cost_kind not in GRAD_COST_KINDS:
            raise ValueError(
                f"OptimConfig: cost_kind {self.cost_kind!r} not in {GRAD_COST_KINDS}"
            )
        if not math.isfinite(self.tolerance):
            raise ValueError(f"OptimConfig: tolerance must be finite, got {self.tolerance}")
        if self.cost_kind == "Cmu" and not 0 < self.mu < math.inf:
            raise ValueError(f"OptimConfig: mu must be positive and finite for the "
                             f"smoothed cost, got {self.mu}")
        if self.init not in ("maximally_mixed", "random"):
            raise ValueError(f"OptimConfig: unknown init {self.init!r}")


@dataclass(frozen=True)
class OptimResult:
    """A first-order run's best program and its convergence curve.

    ``cost_trace`` is a read-only float64 array of the best cost after each
    iteration, ``cost_trace[0]`` the initial program's cost, so the run made
    ``len(cost_trace) - 1`` iterations (the CLI's ``iterations`` column) and
    ``final_cost == cost_trace[-1]``.
    """

    program: DensityMatrix
    cost_trace: np.ndarray
    converged: bool
    final_cost: float


# --- costs and gradients ------------------------------------------------------

GRAD_COST_KINDS = tuple(_COSTS)


def _gradient(proc: ProcessorMap, x: np.ndarray) -> np.ndarray:
    return hermitize(proc.dual(x))


def _target(proc: ProcessorMap, chi_target) -> np.ndarray:
    """``chi_target`` as an ndarray, checked once before any cost is made of it."""
    t = _checked(as_matrix(chi_target), "chi_target")
    d = proc.d_choi
    if t.shape != (d, d):
        raise ValueError(f"chi_target: shape {t.shape}, expected ({d}, {d})")
    return t


def _terms(proc: ProcessorMap, chi_target, pi, kind: str, mu: float, who: str):
    if kind not in GRAD_COST_KINDS:
        raise ValueError(f"{who}: unknown kind {kind!r}")
    return _COSTS[kind](_target(proc, chi_target), mu)(proc.apply_matrix(pi))


def simulation_cost(proc: ProcessorMap, chi_target, pi, kind: str = "C1",
                    mu: float = 1e-2) -> float:
    """Cost of simulating ``chi_target`` with program ``pi`` on ``proc``."""
    return _terms(proc, chi_target, pi, kind, mu, "simulation_cost")[0]


def simulation_gradient(proc: ProcessorMap, chi_target, pi, kind: str = "C1",
                        mu: float = 1e-2) -> np.ndarray:
    """Gradient in ``pi`` of ``simulation_cost``; for C1 a subgradient, exact
    at differentiable points."""
    return _gradient(proc, _terms(proc, chi_target, pi, kind, mu, "simulation_gradient")[1])


# --- projections ------------------------------------------------------------


def _simplex(x: np.ndarray, counts: Optional[np.ndarray]) -> np.ndarray:
    """Euclidean projection of a real vector onto the probability simplex.

    With ``counts``, entry i stands for counts[i] equal entries: the result
    is the y >= 0 with sum_i counts_i y_i = 1 nearest to x in the norm
    sum_i counts_i (x_i - y_i)^2, y_i = max(x_i - theta, 0).  Every input
    with a finite entry and no NaN or +inf projects (a -inf entry is never
    active); any other with no active threshold raises ValueError.  ``x`` is
    1-D float and ``counts`` of its length, positive and finite, as the state
    projection's spectra are: this is their projection, and it checks
    neither.
    """
    w = np.ones(x.size) if counts is None else np.asarray(counts, dtype=float)

    def threshold(v, order):
        """t_k = (sum_{j<=k} w_j u_j - 1) / sum_{j<=k} w_j over u = v[order], and t_k at
        the last k with u_k > t_k (None if none): plain floats beat array calls here."""
        theta, wsum, usum = None, 0.0, 0.0
        for wk, uk in zip(w[order].tolist(), v[order].tolist()):
            usum, wsum = usum + wk * uk, wsum + wk
            t = (usum - 1.0) / wsum
            theta = t if uk > t else theta
        return theta

    order = x.argsort()[::-1]
    theta = threshold(x, order)
    if theta is None or theta == -math.inf:  # no finite threshold: the sums lost the 1
        if not ((x < math.inf).all() and np.isfinite(x).any()):
            raise ValueError("project_to_states: no active threshold; the spectrum has a "
                             "NaN or +inf entry, or no finite one")
        # theta >= max(x) - 1/w of the largest entry, so an entry below
        # max(x) - 1/min(w), -inf included, is never active; shifted by max(x),
        # the sums of the others hold the 1 and stay in range
        with np.errstate(over="ignore"):
            x = x - x.max()
        theta = threshold(x, order[x[order] >= -1.0 / w.min()])
    out = np.maximum(x - theta, 0.0)
    return out / (w * out).sum()


def project_to_states(x: np.ndarray) -> DensityMatrix:
    """Closest density matrix in Frobenius norm.

    Keeps the eigenvectors of the (hermitized) input and projects the
    spectrum onto the probability simplex: lambda_i = max(x_i - theta, 0)
    with theta = (sum_{j<=s} x_j - 1)/s and s the largest k for which
    x_k > (sum_{j<=k} x_j - 1)/k.
    """
    x = hermitize(_square(x, "project_to_states"))
    return DensityMatrix(_states_projection([x[None]])[0][0])


def _spectrum(stack: np.ndarray):
    """Ascending eigenvalues and eigenvectors of a Hermitian (nb, m, m) stack;
    a 1 x 1 block is its own spectrum (vectors None)."""
    if stack.shape[-1] == 1:
        return stack[:, :, 0].real, None
    return _eigh(stack)


def _states_projection(stacks: list, counts: Optional[np.ndarray] = None) -> list:
    """``project_to_states`` in block coordinates: one stacked ``eigh`` per class,
    then one simplex projection of the whole spectrum, each eigenvalue counted
    ``counts`` times (once per copy of its block; the identity block by default)."""
    spectra = [_spectrum(st) for st in stacks]
    lam = _simplex(spectra[0][0].ravel() if len(spectra) == 1  # no concatenate
                   else np.concatenate([w.ravel() for w, _ in spectra]), counts)
    out, start = [], 0
    for w, u in spectra:
        lk = lam[start:start + w.size].reshape(w.shape)
        start += w.size
        out.append(lk[:, :, None] if u is None
                   else hermitize((u * lk[:, None, :]) @ u.conj().swapaxes(-1, -2)))
    return out


class _DualPoint(NamedTuple):
    """project_to_choi_set at one multiplier H: x + H (x) I = U diag(lam) U^dag."""

    h: np.ndarray
    lam: np.ndarray
    u: np.ndarray
    pos: np.ndarray  # max(lam, 0)
    g: np.ndarray  # g[(c, e), (i, j)] = (Tr_out |u_i><u_j|)[c, e]
    resid: np.ndarray  # F(H) = Tr_out (x + H (x) I)_+ - I/d
    res: float  # ||F(H)||
    dual: float  # theta(H)


def project_to_choi_set(x: np.ndarray, d: int) -> ChoiMatrix:
    """Euclidean projection onto {chi >= 0, Tr_out chi = I/d, Tr chi = 1}.

    Semismooth Newton on the dual (Malick, SIAM J. Matrix Anal. Appl. 26
    (2004); Qi-Sun, ibid. 28 (2006)): chi = (x + H (x) I)_+, where the d x d
    Hermitian H minimizes the convex theta(H) = ||(x + H (x) I)_+||^2 / 2 -
    Tr H / d, whose gradient is F(H) = Tr_out chi - I/d.  With x + H (x) I =
    U diag(lambda) U^dag, the generalized Jacobian of F is dH -> Tr_out
    U (Omega o U^dag (dH (x) I) U) U^dag, Omega the divided differences of
    max(., 0) over lambda.  It may be singular, so each step adds a small
    ridge and backtracks until theta falls (Armijo) or ||F|| halves (near the
    solution rounding hides theta's decrease).  Newton starts from the affine
    projection H = (I/d - Tr_out x) / d and stops at ||F|| <=
    CHOI_PROJECTION_TOL * max(1, ||x||); a congruence by
    (d Tr_out chi)^(-1/2) (x) I then puts the marginal on I/d to rounding.
    ``x`` must be a finite (d^2, d^2) matrix and ``d`` an integer >= 1.
    Raises on non-convergence with the residual in the message.
    """
    d = operator.index(d)
    if d < 1:
        raise ValueError(f"project_to_choi_set: need d >= 1, got d={d}")
    x = _square(x, "project_to_choi_set")
    if x.shape != (d * d, d * d):
        raise ValueError(f"project_to_choi_set: shape {x.shape}, expected ({d*d}, {d*d})")
    return ChoiMatrix(_choi_projection(x, d), d, d)


def _choi_projection(x: np.ndarray, d: int) -> np.ndarray:
    """``project_to_choi_set`` of a finite (d^2, d^2) matrix without its input checks."""
    x = hermitize(np.asarray(x, dtype=complex))
    eye_d = np.eye(d)
    n = d * d
    diag = np.arange(n)

    def kron_eye(h):  # h (x) I without np.kron's overhead
        return (h[:, None, :, None] * eye_d[:, None, :]).reshape(n, n)

    def evaluate(h):
        lam, u = _eigh(x + kron_eye(h))
        pos = np.clip(lam, 0.0, None)
        rows = u.reshape(d, d, n)
        g = np.einsum("cmi,emj->ceij", rows, rows.conj())
        resid = g[:, :, diag, diag] @ pos - eye_d / d
        return _DualPoint(h, lam, u, pos, g.reshape(n, n * n), resid,
                          float(np.linalg.norm(resid)), 0.5 * (pos @ pos) - np.trace(h).real / d)

    pt = evaluate((eye_d / d - partial_trace(x, [d, d], keep=[0])) / d)
    tol = CHOI_PROJECTION_TOL * max(1.0, float(np.linalg.norm(x)))
    steps = 0
    while pt.res > tol:
        if steps == CHOI_PROJECTION_MAX_ITERS:
            raise RuntimeError(
                f"project_to_choi_set: no convergence in {CHOI_PROJECTION_MAX_ITERS} Newton "
                f"steps (marginal residual {pt.res:.3e})"
            )
        lam, pos = pt.lam, pt.pos
        gap = lam[:, None] - lam[None, :]
        omega = np.where(gap == 0, lam[:, None] > 0,
                         (pos[:, None] - pos[None, :]) / np.where(gap == 0, 1.0, gap))
        jac = (pt.g * omega.ravel()) @ pt.g.conj().T
        jac[diag, diag] += CHOI_PROJECTION_RIDGE * min(1.0, pt.res)
        step = hermitize(_solve(jac, -pt.resid.ravel()).reshape(d, d))
        slope = float(np.vdot(pt.resid, step).real)
        t = 1.0
        for _ in range(CHOI_PROJECTION_HALVINGS):
            trial = evaluate(pt.h + t * step)
            if trial.dual <= pt.dual + 1e-4 * t * slope or trial.res <= 0.5 * pt.res:
                break
            t *= 0.5
        pt = trial
        steps += 1
    w, v = _eigh(d * (pt.resid + eye_d / d))
    a = kron_eye((v * w ** -0.5) @ v.conj().T)
    return hermitize(a @ ((pt.u * pt.pos) @ pt.u.conj().T) @ a)


def _projection(proc: ProcessorMap, stacks: list) -> list:
    """Closest feasible program of ``proc`` in block coordinates, not validated:
    ``project_to_states`` by blocks, or ``project_to_choi_set`` of the
    re-embedded program on the Choi domain."""
    coords = proc.block_coords
    if proc.program_domain == "choi":
        return coords.part(_choi_projection(coords.embed(stacks), proc.d_in))
    return _states_projection(stacks, coords.counts)


def _program(proc: ProcessorMap, stacks: list) -> DensityMatrix:
    """The program of block coordinates, hermitized (a Frank-Wolfe mix is Hermitian
    only to rounding) and validated as a ``ChoiMatrix`` or a ``DensityMatrix``."""
    m = hermitize(proc.block_coords.embed(stacks))
    if proc.program_domain == "choi":
        return ChoiMatrix(m, proc.d_in, proc.d_out)
    return DensityMatrix(m)


# --- iterative methods ------------------------------------------------------


def _initial_program(proc: ProcessorMap, cfg: OptimConfig) -> list:
    """The initial program in block coordinates.  A random program is replaced by
    its block part, a feasible program with the same cost."""
    coords = proc.block_coords
    if cfg.init == "maximally_mixed":
        return [np.tile(np.eye(m, dtype=float if m == 1 else complex) / proc.d_prog, (nb, 1, 1))
                for nb, m, _ in coords.shapes]
    rng = np.random.default_rng(cfg.seed)
    g = rng.normal(size=(proc.d_prog, proc.d_prog)) + 1j * rng.normal(
        size=(proc.d_prog, proc.d_prog)
    )
    m = hermitize(g @ g.conj().T)
    m /= np.trace(m).real
    if proc.program_domain == "choi":
        m = _choi_projection(m, proc.d_in)
    return coords.part(m)


def _run_loop(proc, chi_target, cfg, step) -> OptimResult:
    """Iterate ``step(program, gradient, it)`` from the initial program and
    keep the best iterate.  Programs and gradients are in the processor's
    block coordinates (``ProcessorMap.block_coords``): each iterate costs one
    apply and one dual on the block stacks, and one spectral decomposition of
    the simulated channel, which gives both its cost and its gradient.  The
    best iterate is re-embedded and validated once (``_program``); the target
    is checked once before the first iterate."""
    terms = _COSTS[cfg.cost_kind](_target(proc, chi_target), cfg.mu)
    pi = _initial_program(proc, cfg)
    cost, x = terms(proc.apply_matrix(pi, True))
    best, best_pi = cost, pi
    trace: List[float] = [best]  # the best cost after each iteration
    converged = False
    # a huge step may overflow to inf; the eigen-solvers and the projections then raise
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, cfg.max_iters + 1):
            pi = step(pi, proc.dual(x, True), it)
            cost, x = terms(proc.apply_matrix(pi, True))
            if cost < best:
                best, best_pi = cost, pi
            trace.append(best)
            if it >= STALL_WINDOW and trace[it - STALL_WINDOW] - best < cfg.tolerance:
                converged = True
                break
    return OptimResult(program=_program(proc, best_pi),
                       cost_trace=_read_only(np.array(trace, dtype=float)),
                       converged=converged, final_cost=best)


def projected_subgradient(proc: ProcessorMap, chi_target, cfg: OptimConfig = OptimConfig()) -> OptimResult:
    """Subgradient step followed by projection back to the feasible set."""
    def step(pi, g, it):
        lr = cfg.learning_rate(it)
        return _projection(proc, [pk - lr * gk for pk, gk in zip(pi, g)])

    return _run_loop(proc, chi_target, cfg, step)


def frank_wolfe(proc: ProcessorMap, chi_target, cfg: OptimConfig = OptimConfig()) -> OptimResult:
    """Conditional-gradient iteration with the exact 2/(i+2) step weight.

    Each step mixes toward the eigenvector of the smallest eigenvalue of the
    current gradient, spread evenly over the copies of its block.  Requires
    a differentiable cost; the trace cost is accepted but its subgradient may
    stall near kinks, where the smoothed cost is the better choice.
    """
    if proc.program_domain == "choi":
        raise ValueError(
            "frank_wolfe: pure-state vertices leave the Choi-constrained set; "
            "use projected_subgradient for the reduced map"
        )
    copies = proc.block_coords.copies

    def step(pi, g, it):
        spectra = [_spectrum(gk) for gk in g]
        lows = [vals.argmin() for vals, _ in spectra]
        k = min(range(len(g)), key=lambda c: spectra[c][0].flat[lows[c]])
        vals, vecs = spectra[k]
        b, j = divmod(int(lows[k]), vals.shape[1])
        w = 2.0 / (it + 2.0)
        out = [(1.0 - w) * pk for pk in pi]
        v = vecs[b, :, j] if vecs is not None else _UNIT_VERTEX
        out[k][b] += (w / copies[k][b]) * (v[:, None] * v.conj())
        return out

    return _run_loop(proc, chi_target, cfg, step)


def learn_unitary_program(proc: ProcessorMap, u: np.ndarray) -> DensityMatrix:
    """Closed-form optimal program for a unitary target under the fidelity.

    Returns the top eigenvector of L*[|chi_U><chi_U|] as a pure program; the
    achieved squared fidelity equals that top eigenvalue.  A degenerate top
    eigenvalue emits a warning (any maximizer is returned).
    """
    u = np.asarray(u, dtype=complex)
    d = proc.d_in
    if u.shape != (d, d):
        raise ValueError(f"learn_unitary_program: unitary shape {u.shape}, expected ({d}, {d})")
    unitary_channel(u)  # the one unitarity test
    phi = max_entangled(d).matrix
    ext = np.kron(np.eye(d), u)
    chi_u = ext @ phi @ ext.conj().T
    vals, vecs = _eigh_desc(hermitize(proc.dual(chi_u)))
    if vals.size > 1 and vals[0] - vals[1] < DEGENERACY_TOL:
        warnings.warn(
            "learn_unitary_program: top eigenvalue is degenerate; "
            "returning one maximizer",
            stacklevel=2,
        )
    return DensityMatrix.pure(vecs[:, 0])
