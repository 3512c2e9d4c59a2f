"""Quantum channels, Choi matrices and channel-comparison cost functions.

Conventions used throughout the package:

* Choi matrices are normalized to unit trace, ``chi = (I (x) E)(Phi)`` with
  ``Phi`` the maximally entangled *state*, so the marginal over the output
  factor equals ``I / d_in``.
* Subsystem ordering inside a Choi matrix is fixed as
  (reference / input copy, output).
* The relative-entropy cost uses log base 2 and returns ``inf`` when neither
  support condition holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .hermlin import (
    dag,
    hermitize,
    is_hermitian,
    kron,
    matrix_sqrt,
    partial_trace,
    schatten_norm,
    trace_norm,
)

__all__ = [
    "DensityMatrix",
    "ChoiMatrix",
    "KrausChannel",
    "as_matrix",
    "max_entangled",
    "choi_of_channel",
    "apply_via_choi",
    "amplitude_damping",
    "depolarizing",
    "dephasing",
    "pauli_channel",
    "unitary_channel",
    "rotation",
    "trace_distance_cost",
    "bures_fidelity",
    "infidelity_cost",
    "relative_entropy_cost",
    "schatten_cost",
    "huber_penalty",
    "huber_penalty_deriv",
    "huber_cost",
    "cost_eval",
    "COST_KINDS",
]

PSD_TOL = 1e-10
TRACE_TOL = 1e-10
CHOI_MARGINAL_TOL = 1e-9
KRAUS_COMPLETENESS_TOL = 1e-9
SUPPORT_TOL = 1e-10  # eigenvalues at or below it count as outside the support

MatrixLike = Union[np.ndarray, "DensityMatrix", "ChoiMatrix"]


def as_matrix(x: MatrixLike) -> np.ndarray:
    """Unwrap DensityMatrix / ChoiMatrix values to their ndarray."""
    if isinstance(x, ChoiMatrix):
        return x.state.matrix
    if isinstance(x, DensityMatrix):
        return x.matrix
    return np.asarray(x, dtype=complex)


# Value types holding arrays use eq=False: instances compare and hash by
# identity, since an ndarray field has no scalar ==.
@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Unit-trace positive-semidefinite Hermitian matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"DensityMatrix: expected square matrix, got {m.shape}")
        if not is_hermitian(m):
            raise ValueError("DensityMatrix: matrix is not Hermitian")
        tr = np.trace(m)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"DensityMatrix: trace {tr} differs from 1 beyond {TRACE_TOL}")
        lo = float(np.linalg.eigvalsh(m).min())
        if lo < -PSD_TOL:
            raise ValueError(f"DensityMatrix: min eigenvalue {lo:.3e} below -{PSD_TOL}")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    @classmethod
    def pure(cls, vec: np.ndarray) -> "DensityMatrix":
        v = np.asarray(vec, dtype=complex).reshape(-1)
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim) / dim)


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """Normalized Choi state of a channel, ordered (input copy, output)."""

    state: DensityMatrix
    d_in: int
    d_out: int

    def __post_init__(self):
        if self.state.dim != self.d_in * self.d_out:
            raise ValueError(
                f"ChoiMatrix: state dim {self.state.dim} != d_in*d_out "
                f"= {self.d_in * self.d_out}"
            )
        marg = partial_trace(self.state.matrix, [self.d_in, self.d_out], keep=[0])
        dev = float(np.abs(marg - np.eye(self.d_in) / self.d_in).max())
        if dev > CHOI_MARGINAL_TOL:
            raise ValueError(
                f"ChoiMatrix: input marginal deviates from I/d_in by {dev:.3e} "
                f"(CPTP condition violated beyond {CHOI_MARGINAL_TOL})"
            )

    @property
    def matrix(self) -> np.ndarray:
        return self.state.matrix

    @classmethod
    def from_matrix(cls, m: np.ndarray, d_in: int, d_out: int) -> "ChoiMatrix":
        return cls(DensityMatrix(m), d_in, d_out)


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """CPTP map given by Kraus operators (each d_out x d_in)."""

    kraus_ops: tuple
    d_in: int
    d_out: int

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus_ops)
        if not ops:
            raise ValueError("KrausChannel: need at least one Kraus operator")
        for k in ops:
            if k.shape != (self.d_out, self.d_in):
                raise ValueError(
                    f"KrausChannel: operator shape {k.shape}, expected "
                    f"({self.d_out}, {self.d_in})"
                )
        comp = sum(dag(k) @ k for k in ops)
        dev = float(np.abs(comp - np.eye(self.d_in)).max())
        if dev > KRAUS_COMPLETENESS_TOL:
            raise ValueError(f"KrausChannel: sum K^dag K deviates from I by {dev:.3e}")
        object.__setattr__(self, "kraus_ops", ops)

    @classmethod
    def from_ops(cls, ops: Iterable[np.ndarray]) -> "KrausChannel":
        ops = [np.asarray(k, dtype=complex) for k in ops]
        d_out, d_in = ops[0].shape
        return cls(tuple(ops), d_in, d_out)

    def apply(self, rho: MatrixLike) -> np.ndarray:
        rho = as_matrix(rho)
        return sum(k @ rho @ dag(k) for k in self.kraus_ops)

    def choi(self) -> ChoiMatrix:
        phi = max_entangled(self.d_in).matrix
        out = np.zeros((self.d_in * self.d_out,) * 2, dtype=complex)
        eye = np.eye(self.d_in)
        for k in self.kraus_ops:
            ext = kron(eye, k)
            out += ext @ phi @ dag(ext)
        return ChoiMatrix.from_matrix(hermitize(out), self.d_in, self.d_out)


def max_entangled(d: int) -> DensityMatrix:
    """Maximally entangled state (1/sqrt d) sum_i |ii> as a density matrix."""
    if d < 2:
        raise ValueError(f"max_entangled: need d >= 2, got {d}")
    vec = np.zeros(d * d, dtype=complex)
    vec[:: d + 1] = 1.0 / math.sqrt(d)
    return DensityMatrix(np.outer(vec, vec.conj()))


def choi_of_channel(ch: KrausChannel) -> ChoiMatrix:
    return ch.choi()


def apply_via_choi(choi: ChoiMatrix, rho: MatrixLike) -> np.ndarray:
    """Channel action recovered from the Choi matrix.

    E(rho) = d_in * Tr_in[(rho^T (x) I) chi].
    """
    rho = as_matrix(rho)
    if rho.shape != (choi.d_in, choi.d_in):
        raise ValueError(
            f"apply_via_choi: state shape {rho.shape} does not match d_in={choi.d_in}"
        )
    big = kron(rho.T, np.eye(choi.d_out)) @ choi.matrix
    return choi.d_in * partial_trace(big, [choi.d_in, choi.d_out], keep=[1])


# --- channel zoo -----------------------------------------------------------

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _check_prob(p: float, who: str) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{who}: parameter p={p} outside [0, 1]")


def amplitude_damping(p: float) -> KrausChannel:
    """Qubit amplitude damping, K0 = diag(1, sqrt(1-p)), K1 = sqrt(p)|0><1|."""
    _check_prob(p, "amplitude_damping")
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - p)]], dtype=complex)
    k1 = np.array([[0.0, math.sqrt(p)], [0.0, 0.0]], dtype=complex)
    return KrausChannel((k0, k1), 2, 2)


def depolarizing(p: float, d: int = 2) -> KrausChannel:
    """(1-p) rho + (p/d) Tr[rho] I in dimension d."""
    _check_prob(p, "depolarizing")
    from .processors import weyl_unitaries  # cycle-free: processors imports nothing here at import time

    ops = []
    ws = weyl_unitaries(d)
    w0 = math.sqrt(1.0 - p + p / d**2)
    ops.append(w0 * np.eye(d, dtype=complex))
    for u in ws[1:]:
        ops.append(math.sqrt(p) / d * u)
    return KrausChannel(tuple(ops), d, d)


def dephasing(p: float) -> KrausChannel:
    """Qubit phase flip with probability p."""
    _check_prob(p, "dephasing")
    return KrausChannel(
        (math.sqrt(1.0 - p) * np.eye(2, dtype=complex), math.sqrt(p) * _Z), 2, 2
    )


def pauli_channel(probs: Sequence[float]) -> KrausChannel:
    """Mixture of the d^2 generalized Pauli conjugations with given weights."""
    probs = np.asarray(probs, dtype=float)
    if probs.min() < 0 or abs(probs.sum() - 1.0) > 1e-12:
        raise ValueError("pauli_channel: probabilities must be nonnegative and sum to 1")
    d = math.isqrt(probs.size)
    if d * d != probs.size or d < 2:
        raise ValueError(f"pauli_channel: need d^2 probabilities, got {probs.size}")
    from .processors import weyl_unitaries

    ws = weyl_unitaries(d)
    ops = tuple(math.sqrt(pi) * u for pi, u in zip(probs, ws))
    return KrausChannel(ops, d, d)


def unitary_channel(u: np.ndarray) -> KrausChannel:
    u = np.asarray(u, dtype=complex)
    if np.abs(dag(u) @ u - np.eye(u.shape[0])).max() > 1e-10:
        raise ValueError("unitary_channel: input is not unitary")
    return KrausChannel((u,), u.shape[1], u.shape[0])


def rotation(theta: float) -> KrausChannel:
    """Qubit rotation exp(i theta X)."""
    u = math.cos(theta) * np.eye(2, dtype=complex) + 1j * math.sin(theta) * _X
    return KrausChannel((u,), 2, 2)


# --- cost functions --------------------------------------------------------


def _pair(target: MatrixLike, sim: MatrixLike):
    a = as_matrix(target)
    b = as_matrix(sim)
    if a.shape != b.shape:
        raise ValueError(f"cost: shape mismatch {a.shape} vs {b.shape}")
    return a, b


def trace_distance_cost(target: MatrixLike, sim: MatrixLike) -> float:
    """Trace-norm distance ||chi_target - chi_sim||_1 (in [0, 2] for states)."""
    a, b = _pair(target, sim)
    return trace_norm(a - b)


def bures_fidelity(target: MatrixLike, sim: MatrixLike) -> float:
    """F = Tr sqrt( sqrt(a) b sqrt(a) ), clipped into [0, 1].

    Eigenvalues of the inner matrix below its numerical noise floor are
    dropped: the square root would otherwise amplify O(eps) rounding into
    O(sqrt(eps)) fidelity error on rank-deficient inputs.
    """
    a, b = _pair(target, sim)
    ra = matrix_sqrt(a)
    inner = hermitize(ra @ b @ ra)
    vals = np.linalg.eigvalsh(inner)
    floor = vals.size * np.finfo(float).eps * max(float(vals.max()), 0.0)
    f = float(np.sqrt(vals[vals > floor]).sum())
    return min(max(f, 0.0), 1.0)


def infidelity_cost(target: MatrixLike, sim: MatrixLike) -> float:
    f = bures_fidelity(target, sim)
    return 1.0 - f * f


def relative_entropy_cost(target: MatrixLike, sim: MatrixLike) -> float:
    """min of the two relative entropies S(a||b), S(b||a), log base 2.

    Returns inf when both directions violate the support condition.
    """
    a, b = _pair(target, sim)
    return min(_relative_entropy(a, b), _relative_entropy(b, a))


def _relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    wr, vr = np.linalg.eigh(rho)
    ws, vs = np.linalg.eigh(sigma)
    wr = np.clip(wr, 0.0, None)
    ws = np.clip(ws, 0.0, None)
    # support condition: rho must not overlap the kernel of sigma
    kernel = ws <= SUPPORT_TOL
    if np.any(kernel):
        overlap = np.abs(dag(vs[:, kernel]) @ vr) ** 2 @ wr
        if overlap.sum() > SUPPORT_TOL:
            return math.inf
    pos_r = wr > SUPPORT_TOL
    ent = float(np.sum(wr[pos_r] * np.log2(wr[pos_r])))
    overlap = np.abs(dag(vr) @ vs) ** 2  # overlap[i, j] = |<r_i|s_j>|^2
    pos_s = ws > SUPPORT_TOL
    cross = float(wr @ (overlap[:, pos_s] @ np.log2(ws[pos_s])))
    return ent - cross


def schatten_cost(target: MatrixLike, sim: MatrixLike, p: float) -> float:
    """Schatten p-norm of the Choi difference, real p >= 1."""
    a, b = _pair(target, sim)
    return schatten_norm(a - b, p)


def huber_penalty(x: np.ndarray, mu: float) -> np.ndarray:
    """Quadratic/absolute penalty: x^2/(2 mu) inside |x| < mu, |x| - mu/2 outside."""
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) < mu, x * x / (2.0 * mu), np.abs(x) - mu / 2.0)


def huber_penalty_deriv(x: np.ndarray, mu: float) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) < mu, x / mu, np.sign(x))


def huber_cost(target: MatrixLike, sim: MatrixLike, mu: float) -> float:
    """Smoothed trace distance sum_j h_mu(lambda_j(chi_sim - chi_target))."""
    if mu <= 0:
        raise ValueError(f"huber_cost: mu must be positive, got {mu}")
    a, b = _pair(target, sim)
    vals = np.linalg.eigvalsh(hermitize(b - a))
    return float(huber_penalty(vals, mu).sum())


COST_KINDS = ("C1", "F", "CF", "CR", "Cp", "Cmu")


def cost_eval(
    kind: str,
    target: MatrixLike,
    sim: MatrixLike,
    p: float | None = None,
    mu: float | None = None,
) -> float:
    """Evaluate one of the channel-comparison costs between two Choi matrices."""
    if kind == "C1":
        return trace_distance_cost(target, sim)
    if kind == "F":
        return bures_fidelity(target, sim)
    if kind == "CF":
        return infidelity_cost(target, sim)
    if kind == "CR":
        return relative_entropy_cost(target, sim)
    if kind == "Cp":
        if p is None:
            raise ValueError("cost_eval: kind 'Cp' needs the p parameter")
        return schatten_cost(target, sim, p)
    if kind == "Cmu":
        if mu is None:
            raise ValueError("cost_eval: kind 'Cmu' needs the mu parameter")
        return huber_cost(target, sim, mu)
    raise ValueError(f"cost_eval: unknown cost kind {kind!r}; expected one of {COST_KINDS}")
