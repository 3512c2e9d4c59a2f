"""First-order optimization of program states.

Gradients of the channel-simulation costs are analytic: with ``L`` the
processor map and ``L*`` its dual,

* trace cost:      grad = L*[sign(chi_pi - chi_target)], with sign(0) = 0;
* fidelity:        grad F = (1/2) L*[ sqrt(t) (sqrt(t) chi_pi sqrt(t))^(-1/2) sqrt(t) ]
  for t = chi_target (pseudo-inverse on the support);
* infidelity:      grad = -2 F grad F;
* smoothed trace:  grad = L*[h'_mu(chi_pi - chi_target)] (Huber derivative).

A program is a ``DensityMatrix``.  Its feasible set follows the processor's
``program_domain``: the density matrices (Euclidean projection =
spectrum-to-simplex, computed in closed form) or the single-port Choi set of
the reduced port-based-teleportation map (projection by Dykstra's
alternating scheme).  ``project_program`` makes that choice for the
first-order methods and for the SDP programs' recovery step.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .channels import (
    ChoiMatrix,
    DensityMatrix,
    as_matrix,
    bures_fidelity,
    cost_eval,
    huber_penalty_deriv,
    max_entangled,
)
from .hermlin import (
    herm_eig,
    hermitize,
    matrix_inv_sqrt,
    matrix_sign,
    matrix_sqrt,
    partial_trace,
)
from .processors import ProcessorMap

__all__ = [
    "OptimConfig",
    "OptimResult",
    "LearningRate",
    "simulation_cost",
    "grad_trace_cost",
    "grad_fidelity",
    "grad_infidelity",
    "grad_smoothed_cost",
    "simplex_project",
    "project_to_states",
    "project_to_choi_set",
    "project_program",
    "projected_subgradient",
    "frank_wolfe",
    "learn_unitary_program",
]

# cost kind -> gradient, called by its global name so a patched name is honored
_GRADIENTS = {
    "C1": lambda proc, chi_target, pi, mu: grad_trace_cost(proc, chi_target, pi),
    "CF": lambda proc, chi_target, pi, mu: grad_infidelity(proc, chi_target, pi),
    "Cmu": lambda proc, chi_target, pi, mu: grad_smoothed_cost(proc, chi_target, pi, mu),
}
GRAD_COST_KINDS = tuple(_GRADIENTS)
STALL_WINDOW = 50  # stop once the best cost gained < tolerance over this many iterations
CHOI_PROJECTION_TOL = 1e-10  # Dykstra: distance between the two alternating iterates
CHOI_PROJECTION_MAX_ITERS = 5000
DEGENERACY_TOL = 1e-10  # learn_unitary_program warns below this top-eigenvalue gap


@dataclass(frozen=True)
class LearningRate:
    """Step-size schedule: a/sqrt(k) ('inv_sqrt') or a/(b + k) ('harmonic')."""

    kind: str = "inv_sqrt"
    a: float = 1.0
    b: float = 0.0

    def __post_init__(self):
        if self.kind not in ("inv_sqrt", "harmonic"):
            raise ValueError(f"LearningRate: unknown kind {self.kind!r}")
        if self.a <= 0:
            raise ValueError("LearningRate: a must be positive")

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
        if self.max_iters < 1:
            raise ValueError("OptimConfig: max_iters must be >= 1")
        if self.cost_kind not in GRAD_COST_KINDS:
            raise ValueError(
                f"OptimConfig: cost_kind {self.cost_kind!r} not in {GRAD_COST_KINDS}"
            )
        if self.cost_kind == "Cmu" and self.mu <= 0:
            raise ValueError("OptimConfig: mu must be positive for the smoothed cost")
        if self.init not in ("maximally_mixed", "random"):
            raise ValueError(f"OptimConfig: unknown init {self.init!r}")


@dataclass(frozen=True)
class OptimResult:
    program: DensityMatrix
    cost_trace: tuple  # (iteration, best cost so far) pairs
    converged: bool
    final_cost: float


def simulation_cost(proc: ProcessorMap, chi_target, pi, kind: str = "C1",
                    mu: float = 1e-2) -> float:
    """Cost of simulating ``chi_target`` with program ``pi`` on ``proc``."""
    if kind not in GRAD_COST_KINDS:
        raise ValueError(f"simulation_cost: unknown kind {kind!r}")
    return cost_eval(kind, chi_target, proc.apply_matrix(pi), mu=mu)


def grad_trace_cost(proc: ProcessorMap, chi_target, pi) -> np.ndarray:
    """Subgradient of the trace cost; exact gradient at differentiable points."""
    delta = hermitize(proc.apply_matrix(pi) - as_matrix(chi_target))
    return hermitize(proc.dual(matrix_sign(delta)))


def grad_fidelity(proc: ProcessorMap, chi_target, pi) -> np.ndarray:
    t = as_matrix(chi_target)
    root = matrix_sqrt(t)
    inner = hermitize(root @ proc.apply_matrix(pi) @ root)
    mid = root @ matrix_inv_sqrt(inner) @ root
    return hermitize(0.5 * proc.dual(hermitize(mid)))


def grad_infidelity(proc: ProcessorMap, chi_target, pi) -> np.ndarray:
    f = bures_fidelity(chi_target, proc.apply_matrix(pi))
    return -2.0 * f * grad_fidelity(proc, chi_target, pi)


def grad_smoothed_cost(proc: ProcessorMap, chi_target, pi, mu: float) -> np.ndarray:
    if mu <= 0:
        raise ValueError(f"grad_smoothed_cost: mu must be positive, got {mu}")
    delta = hermitize(proc.apply_matrix(pi) - as_matrix(chi_target))
    dec = herm_eig(delta)
    h = (dec.eigenvectors * huber_penalty_deriv(dec.eigenvalues, mu)) @ dec.eigenvectors.conj().T
    return hermitize(proc.dual(h))


# --- projections ------------------------------------------------------------


def simplex_project(x: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real vector onto the probability simplex."""
    x = np.asarray(x, dtype=float)
    u = np.sort(x)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, x.size + 1)
    thresholds = (css - 1.0) / ks
    s = int(np.nonzero(u > thresholds)[0][-1]) + 1
    theta = (css[s - 1] - 1.0) / s
    out = np.clip(x - theta, 0.0, None)
    return out / out.sum()


def project_to_states(x: np.ndarray) -> DensityMatrix:
    """Closest density matrix in Frobenius norm.

    Keeps the eigenvectors of the (hermitized) input and projects the
    spectrum onto the probability simplex: lambda_i = max(x_i - theta, 0)
    with theta = (sum_{j<=s} x_j - 1)/s and s the largest k for which
    x_k > (sum_{j<=k} x_j - 1)/k.
    """
    dec = herm_eig(hermitize(np.asarray(x, dtype=complex)))
    lam = simplex_project(dec.eigenvalues)
    u = dec.eigenvectors
    return DensityMatrix(hermitize((u * lam) @ u.conj().T))


def _psd_part(x: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(hermitize(x))
    return (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T


def project_to_choi_set(x: np.ndarray, d: int) -> ChoiMatrix:
    """Euclidean projection onto {chi >= 0, Tr_out chi = I/d, Tr chi = 1}.

    Dykstra's alternating projections between the PSD cone and the affine
    marginal constraint, with correction terms.  Raises on non-convergence
    with the residual in the message.
    """
    x = hermitize(np.asarray(x, dtype=complex))
    if x.shape != (d * d, d * d):
        raise ValueError(f"project_to_choi_set: shape {x.shape}, expected ({d*d}, {d*d})")
    eye_d = np.eye(d)

    def proj_affine(m):
        marg = partial_trace(m, [d, d], keep=[0])
        corr = np.kron(eye_d / d - marg, eye_d / d)
        return m + corr

    p = np.zeros_like(x)
    q = np.zeros_like(x)
    y = x
    for _ in range(CHOI_PROJECTION_MAX_ITERS):
        y = _psd_part(x + p)
        p = x + p - y
        x_new = proj_affine(y + q)
        q = y + q - x_new
        if np.linalg.norm(x_new - y) <= CHOI_PROJECTION_TOL:
            x = x_new
            break
        x = x_new
    else:
        resid = float(np.linalg.norm(x - y))
        raise RuntimeError(
            f"project_to_choi_set: no convergence in {CHOI_PROJECTION_MAX_ITERS} iterations "
            f"(set-distance residual {resid:.3e})"
        )
    out = _psd_part(x)
    out = out / np.trace(out).real
    return ChoiMatrix.from_matrix(hermitize(out), d, d)


def project_program(proc: ProcessorMap, x: np.ndarray) -> DensityMatrix:
    """Closest feasible program of ``proc``: a density matrix, or a
    single-port Choi matrix when the processor's program domain is "choi"."""
    if proc.program_domain == "choi":
        return project_to_choi_set(x, proc.d_in).state
    return project_to_states(x)


# --- iterative methods ------------------------------------------------------


def _initial_program(proc: ProcessorMap, cfg: OptimConfig) -> np.ndarray:
    if cfg.init == "maximally_mixed":
        return np.eye(proc.d_prog, dtype=complex) / proc.d_prog
    rng = np.random.default_rng(cfg.seed)
    g = rng.normal(size=(proc.d_prog, proc.d_prog)) + 1j * rng.normal(
        size=(proc.d_prog, proc.d_prog)
    )
    m = hermitize(g @ g.conj().T)
    m /= np.trace(m).real
    return project_program(proc, m).matrix


def _run_loop(proc, chi_target, cfg, step) -> OptimResult:
    pi = _initial_program(proc, cfg)
    cost = simulation_cost(proc, chi_target, pi, cfg.cost_kind, cfg.mu)
    best = cost
    best_pi = pi
    trace: List[Tuple[int, float]] = [(0, best)]
    converged = False
    for it in range(1, cfg.max_iters + 1):
        pi = step(pi, it)
        cost = simulation_cost(proc, chi_target, pi, cfg.cost_kind, cfg.mu)
        if cost < best:
            best = cost
            best_pi = pi
        trace.append((it, best))
        if it >= STALL_WINDOW and trace[it - STALL_WINDOW][1] - best < cfg.tolerance:
            converged = True
            break
    return OptimResult(
        program=DensityMatrix(hermitize(best_pi)),
        cost_trace=tuple(trace),
        converged=converged,
        final_cost=best,
    )


def projected_subgradient(proc: ProcessorMap, chi_target, cfg: OptimConfig = OptimConfig()) -> OptimResult:
    """Subgradient step followed by projection back to the feasible set."""
    grad = _GRADIENTS[cfg.cost_kind]

    def step(pi, it):
        g = grad(proc, chi_target, pi, cfg.mu)
        return project_program(proc, pi - cfg.learning_rate(it) * g).matrix

    return _run_loop(proc, chi_target, cfg, step)


def frank_wolfe(proc: ProcessorMap, chi_target, cfg: OptimConfig = OptimConfig()) -> OptimResult:
    """Conditional-gradient iteration with the exact 2/(i+2) step weight.

    Each step mixes toward the eigenvector of the smallest eigenvalue of the
    current gradient.  Requires a differentiable cost; the trace cost is
    accepted but its subgradient may stall near kinks, where the smoothed
    cost is the better choice.
    """
    if proc.program_domain == "choi":
        raise ValueError(
            "frank_wolfe: pure-state vertices leave the Choi-constrained set; "
            "use projected_subgradient for the reduced map"
        )
    grad = _GRADIENTS[cfg.cost_kind]

    def step(pi, it):
        g = grad(proc, chi_target, pi, cfg.mu)
        vals, vecs = np.linalg.eigh(hermitize(g))
        v = vecs[:, 0]  # eigenvector of the smallest eigenvalue
        vertex = np.outer(v, v.conj())
        w = 2.0 / (it + 2.0)
        return (1.0 - w) * pi + w * vertex

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
    if np.abs(u.conj().T @ u - np.eye(d)).max() > 1e-10:
        raise ValueError("learn_unitary_program: input is not unitary")
    phi = max_entangled(d).matrix
    ext = np.kron(np.eye(d), u)
    chi_u = ext @ phi @ ext.conj().T
    dec = herm_eig(hermitize(proc.dual(chi_u)))
    if dec.eigenvalues.size > 1 and dec.eigenvalues[0] - dec.eigenvalues[1] < DEGENERACY_TOL:
        warnings.warn(
            "learn_unitary_program: top eigenvalue is degenerate; "
            "returning one maximizer",
            stacklevel=2,
        )
    return DensityMatrix.pure(dec.eigenvectors[:, 0])
