"""Quantum channels, Choi matrices and channel-comparison cost functions.

A channel is a ``KrausChannel``, and ``choi_of_channel`` gives its Choi
matrix, a ``ChoiMatrix``: a ``DensityMatrix`` with the input and output
dimensions ``d_in`` and ``d_out``.  The Weyl frame ``weyl_unitaries`` serves
the zoo and ``processors``.

The costs C1, CF and C_mu and their gradient observables live here, in the
one value-and-gradient table ``_COSTS``: from one ``eigh``, read reversed in
place (no copies), the cost and the Choi-space X whose dual L*[X] under a
processor map L is the gradient in the program.  ``cost_eval`` and ``optim``
read it; F, CR and the Schatten-p distance are value-only.

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
from typing import Callable, Sequence, Tuple, Union

import numpy as np

from .hermlin import (
    _checked,
    _eigh,
    _eigh_desc,
    _eigvalsh,
    _inv_sqrt_values,
    _sign_values,
    _square,
    hermitize,
    matrix_sqrt,
    partial_trace,
    schatten_norm,
)

__all__ = [
    "DensityMatrix",
    "ChoiMatrix",
    "KrausChannel",
    "as_matrix",
    "max_entangled",
    "choi_of_channel",
    "weyl_unitaries",
    "amplitude_damping",
    "depolarizing",
    "dephasing",
    "pauli_channel",
    "unitary_channel",
    "rotation",
    "bures_fidelity",
    "relative_entropy_cost",
    "cost_eval",
    "COST_KINDS",
]

PSD_TOL = 1e-10
TRACE_TOL = 1e-10
CHOI_MARGINAL_TOL = 1e-9
KRAUS_COMPLETENESS_TOL = 1e-9
SUPPORT_TOL = 1e-10  # eigenvalues at or below it count as outside the support

MatrixLike = Union[np.ndarray, "DensityMatrix"]


def as_matrix(x: MatrixLike) -> np.ndarray:
    """Unwrap DensityMatrix values, Choi matrices included, to their ndarray."""
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
        m = _checked(self.matrix, "DensityMatrix")
        tr = np.trace(m)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"DensityMatrix: trace {tr} differs from 1 beyond {TRACE_TOL}")
        lo = float(_eigvalsh(m).min())
        if lo < -PSD_TOL:
            raise ValueError(f"DensityMatrix: min eigenvalue {lo:.3e} below -{PSD_TOL}")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def pure(cls, vec: np.ndarray) -> "DensityMatrix":
        v = np.asarray(vec, dtype=complex).reshape(-1)
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()))


@dataclass(frozen=True, eq=False)
class ChoiMatrix(DensityMatrix):
    """Normalized Choi state of a channel, ordered (input copy, output)."""

    d_in: int
    d_out: int

    def __post_init__(self):
        super().__post_init__()
        if self.dim != self.d_in * self.d_out:
            raise ValueError(
                f"ChoiMatrix: dim {self.dim} != d_in*d_out = {self.d_in * self.d_out}"
            )
        marg = partial_trace(self.matrix, [self.d_in, self.d_out], keep=[0])
        dev = float(np.abs(marg - np.eye(self.d_in) / self.d_in).max())
        if dev > CHOI_MARGINAL_TOL:
            raise ValueError(
                f"ChoiMatrix: input marginal deviates from I/d_in by {dev:.3e} "
                f"(CPTP condition violated beyond {CHOI_MARGINAL_TOL})"
            )


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
            if not np.isfinite(k).all():
                raise ValueError("KrausChannel: an operator has a non-finite entry")
        comp = sum(k.conj().T @ k for k in ops)
        dev = float(np.abs(comp - np.eye(self.d_in)).max())
        if dev > KRAUS_COMPLETENESS_TOL:
            raise ValueError(f"KrausChannel: sum K^dag K deviates from I by {dev:.3e}")
        object.__setattr__(self, "kraus_ops", ops)


def max_entangled(d: int) -> DensityMatrix:
    """Maximally entangled state (1/sqrt d) sum_i |ii> as a density matrix."""
    if d < 2:
        raise ValueError(f"max_entangled: need d >= 2, got {d}")
    vec = np.zeros(d * d, dtype=complex)
    vec[:: d + 1] = 1.0 / math.sqrt(d)
    return DensityMatrix(np.outer(vec, vec.conj()))


def choi_of_channel(ch: KrausChannel) -> ChoiMatrix:
    """Normalized Choi matrix sum_k (I (x) K_k) Phi (I (x) K_k)^dag."""
    phi = max_entangled(ch.d_in).matrix
    out = np.zeros((ch.d_in * ch.d_out,) * 2, dtype=complex)
    eye = np.eye(ch.d_in)
    for k in ch.kraus_ops:
        ext = np.kron(eye, k)
        out += ext @ phi @ ext.conj().T
    return ChoiMatrix(hermitize(out), ch.d_in, ch.d_out)


# --- channel zoo -----------------------------------------------------------

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def weyl_unitaries(d: int) -> list:
    """The d^2 clock/shift products W[a*d+b] = X^a Z^b, Tr(W_i^dag W_j) = d delta_ij.

    For d = 2 these are I, Z, X, XZ = -iY, i.e. the Pauli frame up to phase.
    The clock phases omega^k are exact where they are one of 1, i, -1, -i
    (4k divisible by d), so real frames such as d = 2 stay exactly real.
    """
    if d < 2:
        raise ValueError(f"weyl_unitaries: need d >= 2, got {d}")
    k = np.arange(d)
    quarter = np.array([1, 1j, -1, -1j])[(4 * k // d) % 4]
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)  # |j> -> |j+1 mod d>
    clock = np.diag(np.where(4 * k % d == 0, quarter, np.exp(2j * np.pi / d) ** k))
    out = []
    xa = np.eye(d, dtype=complex)
    for _a in range(d):
        zb = np.eye(d, dtype=complex)
        for _b in range(d):
            out.append(xa @ zb)
            zb = zb @ clock
        xa = xa @ shift
    return out


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
    ws = weyl_unitaries(d)
    ops = tuple(math.sqrt(pi) * u for pi, u in zip(probs, ws))
    return KrausChannel(ops, d, d)


def unitary_channel(u: np.ndarray) -> KrausChannel:
    """rho -> U rho U^dag; the package's one unitarity test."""
    u = _square(u, "unitary_channel")
    if np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() > 1e-10:
        raise ValueError("unitary_channel: input is not unitary")
    return KrausChannel((u,), u.shape[1], u.shape[0])


def rotation(theta: float) -> KrausChannel:
    """Qubit rotation exp(i theta X)."""
    u = math.cos(theta) * np.eye(2, dtype=complex) + 1j * math.sin(theta) * _X
    return KrausChannel((u,), 2, 2)


# --- cost functions --------------------------------------------------------


def _pair(target: MatrixLike, sim: MatrixLike):
    a = _checked(as_matrix(target), "cost: target")
    b = _checked(as_matrix(sim), "cost: sim")
    if a.shape != b.shape:
        raise ValueError(f"cost: shape mismatch {a.shape} vs {b.shape}")
    return a, b


def bures_fidelity(target: MatrixLike, sim: MatrixLike) -> float:
    """F = Tr sqrt( sqrt(a) b sqrt(a) ), clipped into [0, 1].

    Eigenvalues of the inner matrix below its numerical noise floor are
    dropped: the square root would otherwise amplify O(eps) rounding into
    O(sqrt(eps)) fidelity error on rank-deficient inputs.
    """
    a, b = _pair(target, sim)
    ra = matrix_sqrt(a)
    return _fidelity_of_spectrum(_eigvalsh(hermitize(ra @ b @ ra)))


def _fidelity_of_spectrum(vals: np.ndarray) -> float:
    """Tr sqrt of the inner matrix from its eigenvalues, floored and clipped
    as in ``bures_fidelity``."""
    floor = vals.size * np.finfo(float).eps * max(float(vals.max()), 0.0)
    f = float(np.sqrt(vals[vals > floor]).sum())
    return min(max(f, 0.0), 1.0)


def relative_entropy_cost(target: MatrixLike, sim: MatrixLike) -> float:
    """min of the two relative entropies S(a||b), S(b||a), log base 2.

    Returns inf when both directions violate the support condition.
    """
    a, b = _pair(target, sim)
    return min(_relative_entropy(a, b), _relative_entropy(b, a))


def _relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    wr, vr = _eigh(rho)
    ws, vs = _eigh(sigma)
    wr = np.clip(wr, 0.0, None)
    ws = np.clip(ws, 0.0, None)
    # support condition: rho must not overlap the kernel of sigma
    kernel = ws <= SUPPORT_TOL
    if np.any(kernel):
        overlap = np.abs(vs[:, kernel].conj().T @ vr) ** 2 @ wr
        if overlap.sum() > SUPPORT_TOL:
            return math.inf
    pos_r = wr > SUPPORT_TOL
    ent = float(np.sum(wr[pos_r] * np.log2(wr[pos_r])))
    overlap = np.abs(vr.conj().T @ vs) ** 2  # overlap[i, j] = |<r_i|s_j>|^2
    pos_s = ws > SUPPORT_TOL
    cross = float(wr @ (overlap[:, pos_s] @ np.log2(ws[pos_s])))
    return ent - cross


def _huber(x: np.ndarray, mu: float) -> Tuple[np.ndarray, np.ndarray]:
    """The Huber penalty of a real x, x^2/(2 mu) inside |x| < mu and |x| - mu/2
    outside, and its derivative, from one abs and one mask."""
    a = np.abs(x)
    inside = a < mu
    return np.where(inside, x * x / (2.0 * mu), a - mu / 2.0), np.where(inside, x / mu, np.sign(x))


# --- the value-and-gradient table --------------------------------------------
#
# A cost maker takes the target Choi matrix and mu once per run and returns
# terms(chi_pi) -> (cost, X), where the gradient in the program is L*[X].


def _trace_cost(target: np.ndarray, mu: float) -> Callable:
    def terms(sim):
        vals, u = _eigh_desc(hermitize(sim - target))
        return float(np.abs(vals).sum()), (u * _sign_values(vals)) @ u.conj().T
    return terms


def _smoothed_cost(target: np.ndarray, mu: float) -> Callable:
    if mu is None or not 0 < mu < math.inf:
        raise ValueError(f"smoothed cost: mu must be positive and finite, got {mu}")

    def terms(sim):
        vals, u = _eigh_desc(hermitize(sim - target))
        value, deriv = _huber(vals, mu)
        return float(value.sum()), (u * deriv) @ u.conj().T
    return terms


def _fidelity_terms(root: np.ndarray, sim: np.ndarray) -> Tuple[float, np.ndarray]:
    """Fidelity F of ``sim`` to ``root``^2 and X with grad F = L*[X]."""
    vals, u = _eigh_desc(hermitize(root @ sim @ root))
    try:
        inv_sqrt = _inv_sqrt_values(vals)
    except ValueError:  # a negative eigenvalue above the support cutoff
        lam = float(_eigvalsh(sim).min())
        raise ValueError(f"CF: sim is not positive semidefinite on the target's support "
                         f"(lambda_min(sim) = {lam:.6g})") from None
    mid = root @ ((u * inv_sqrt) @ u.conj().T) @ root
    return _fidelity_of_spectrum(vals), 0.5 * hermitize(mid)


def _infidelity_cost(target: np.ndarray, mu: float) -> Callable:
    root = matrix_sqrt(target)

    def terms(sim):
        f, x = _fidelity_terms(root, sim)
        return 1.0 - f * f, -2.0 * f * x
    return terms


_COSTS = {"C1": _trace_cost, "CF": _infidelity_cost, "Cmu": _smoothed_cost}
COST_KINDS = ("C1", "F", "CF", "CR", "Cp", "Cmu")


def cost_eval(kind: str, target: MatrixLike, sim: MatrixLike,
              p: float | None = None, mu: float | None = None) -> float:
    """Evaluate one of the channel-comparison costs between two Choi matrices.

    C1, CF and Cmu come from the value-and-gradient table ``_COSTS``; F, CR
    and the Schatten-p distance Cp are value-only.  Both inputs must be
    square, finite, Hermitian and of one shape.
    """
    if kind not in COST_KINDS:
        raise ValueError(f"cost_eval: unknown cost kind {kind!r}; expected one of {COST_KINDS}")
    if kind == "F":
        return bures_fidelity(target, sim)
    if kind == "CR":
        return relative_entropy_cost(target, sim)
    a, b = _pair(target, sim)
    if kind == "Cp":
        if p is None:
            raise ValueError("cost_eval: kind 'Cp' needs the p parameter")
        return schatten_norm(a - b, p)
    return _COSTS[kind](a, mu)(b)[0]
