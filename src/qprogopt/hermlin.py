"""Dense complex Hermitian linear-algebra kernels.

Everything operates on plain ``numpy.ndarray`` values (complex128, row-major).
Matrices are dense and sized for dimensions up to ~1024; there is no sparse
or GPU path.  All functions are pure: inputs are never mutated, so values can
be shared freely across threads.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "HERMITICITY_RTOL",
    "SpectralDecomposition",
    "SchattenNorms",
    "dag",
    "hermitize",
    "is_hermitian",
    "herm_eig",
    "matrix_function",
    "matrix_sqrt",
    "matrix_inv_sqrt",
    "matrix_sign",
    "kron",
    "partial_trace",
    "permute_subsystems",
    "embed_operator",
    "trace_norm",
    "spectral_norm",
    "frobenius_norm",
    "schatten_norm",
    "norms",
]

# Relative deviation max|M - M^dag| / max|M| above which a matrix is rejected
# as non-Hermitian.
HERMITICITY_RTOL = 1e-12
# Spectral cutoffs of matrix_sqrt, matrix_inv_sqrt and matrix_sign (see there).
SPECTRAL_RCOND = 1e-12
SQRT_NEG_TOL = 1e-10
SIGN_CLUSTER_GAP = 1e-10
SIGN_ZERO_TOL = 1e-10

_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A^dag) / 2, over the last two axes of a stack."""
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def is_hermitian(m: np.ndarray) -> bool:
    """True when max|M - M^dag| <= HERMITICITY_RTOL * max|M|."""
    m = np.asarray(m)
    scale = np.abs(m).max() if m.size else 0.0
    if scale == 0.0:
        return True
    return float(np.abs(m - m.conj().T).max()) <= HERMITICITY_RTOL * scale


def _require_hermitian(m: np.ndarray, who: str) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{who}: expected a square matrix, got shape {m.shape}")
    if not is_hermitian(m):
        dev = float(np.abs(m - m.conj().T).max())
        scale = float(np.abs(m).max())
        raise ValueError(
            f"{who}: matrix is not Hermitian "
            f"(max |M - M^dag| = {dev:.3e}, max |M| = {scale:.3e})"
        )
    return m


class SpectralDecomposition(NamedTuple):
    """Eigensystem of a Hermitian matrix, eigenvalues sorted descending."""

    eigenvalues: np.ndarray  # real, shape (n,), descending
    eigenvectors: np.ndarray  # unitary, columns matching eigenvalues

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return (u * self.eigenvalues) @ u.conj().T

    def apply(self, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        u = self.eigenvectors
        return (u * np.asarray(f(self.eigenvalues))) @ u.conj().T


def herm_eig(m: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Raises ValueError with a symmetry diagnostic on non-Hermitian input.
    """
    m = _require_hermitian(m, "herm_eig")
    vals, vecs = np.linalg.eigh(m)
    return SpectralDecomposition(vals[::-1].copy(), vecs[:, ::-1].copy())


def matrix_function(m: np.ndarray, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """U f(lambda) U^dag for Hermitian m = U diag(lambda) U^dag.

    ``f`` is applied to the (real) eigenvalue vector; it may return complex
    values.  Non-finite results raise a domain error.
    """
    dec = herm_eig(m)
    with np.errstate(all="ignore"):
        vals = np.asarray(f(dec.eigenvalues))
    if not np.all(np.isfinite(vals)):
        bad = dec.eigenvalues[~np.isfinite(vals)]
        raise ValueError(f"matrix_function: f undefined at eigenvalue(s) {bad}")
    return (dec.eigenvectors * vals) @ dec.eigenvectors.conj().T


def matrix_sqrt(m: np.ndarray) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix.

    Eigenvalues within SPECTRAL_RCOND * max|lambda| of zero are flushed to
    zero (so rank-deficient inputs do not leak sqrt(eps)-sized noise);
    eigenvalues in [-SQRT_NEG_TOL, 0) are clamped; anything more negative is
    a domain error.
    """
    dec = herm_eig(m)
    vals = dec.eigenvalues
    if vals.size and vals[-1] < -SQRT_NEG_TOL:
        raise ValueError(f"matrix_sqrt: matrix not PSD (min eigenvalue {vals[-1]:.3e})")
    scale = np.abs(vals).max() if vals.size else 0.0
    out = np.where(vals > SPECTRAL_RCOND * scale, vals, 0.0)
    return (dec.eigenvectors * np.sqrt(out)) @ dec.eigenvectors.conj().T


def matrix_inv_sqrt(m: np.ndarray) -> np.ndarray:
    """x^(-1/2) on the support of a PSD Hermitian matrix.

    Eigenvalues with |lambda| <= SPECTRAL_RCOND * max|lambda| count as zero
    and are excluded (pseudo-inverse convention); negative eigenvalues above
    that cutoff raise a domain error.
    """
    dec = herm_eig(m)
    vals = dec.eigenvalues.copy()
    scale = np.abs(vals).max() if vals.size else 0.0
    cutoff = SPECTRAL_RCOND * scale
    support = np.abs(vals) > cutoff
    if np.any(vals[support] < 0):
        raise ValueError("matrix_inv_sqrt: negative eigenvalue above support cutoff")
    out = np.zeros_like(vals)
    out[support] = vals[support] ** -0.5
    return (dec.eigenvectors * out) @ dec.eigenvectors.conj().T


def matrix_sign(m: np.ndarray) -> np.ndarray:
    """Matrix sign with sign(0) := 0, computed spectrally.

    Eigenvalues closer than ``SIGN_CLUSTER_GAP`` are grouped and share one
    sign, so the result does not depend on the arbitrary eigenbasis inside a
    numerically degenerate cluster.  A cluster whose mean is within
    ``SIGN_ZERO_TOL`` of zero maps to 0.
    """
    dec = herm_eig(m)
    vals = dec.eigenvalues
    signs = np.zeros_like(vals)
    i = 0
    n = vals.size
    while i < n:
        j = i + 1
        while j < n and vals[j - 1] - vals[j] < SIGN_CLUSTER_GAP:
            j += 1
        mean = vals[i:j].mean()
        if mean > SIGN_ZERO_TOL:
            signs[i:j] = 1.0
        elif mean < -SIGN_ZERO_TOL:
            signs[i:j] = -1.0
        i = j
    return (dec.eigenvectors * signs) @ dec.eigenvectors.conj().T


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, (A kron B)[i*rB+k, j*cB+l] = A[i,j] B[k,l]."""
    return np.kron(a, b)


def _check_shape(m: np.ndarray, dims: Sequence[int], who: str) -> None:
    total = int(np.prod(dims))
    if any(d <= 0 for d in dims):
        raise ValueError(f"{who}: subsystem dimensions must be positive, got {list(dims)}")
    if m.shape != (total, total):
        raise ValueError(
            f"{who}: shape {m.shape} inconsistent with subsystem dims {list(dims)}"
        )


def partial_trace(m: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Trace out all subsystems not listed in ``keep``.

    ``dims`` lists the subsystem dimensions in tensor order; ``keep`` is a set
    of subsystem indices.  Kept subsystems stay in ascending original order.
    """
    m = np.asarray(m, dtype=complex)
    dims = list(dims)
    _check_shape(m, dims, "partial_trace")
    k = len(dims)
    keep = sorted(set(keep))
    if keep and (keep[0] < 0 or keep[-1] >= k):
        raise ValueError(f"partial_trace: keep indices {keep} out of range for {k} subsystems")
    if 2 * k > len(_LETTERS):
        raise ValueError("partial_trace: too many subsystems")
    row = list(_LETTERS[:k])
    col = list(_LETTERS[k : 2 * k])
    for i in range(k):
        if i not in keep:
            col[i] = row[i]
    out = "".join(row[i] for i in keep) + "".join(col[i] for i in keep)
    tens = m.reshape(dims + dims)
    res = np.einsum("".join(row) + "".join(col) + "->" + out, tens)
    dkeep = int(np.prod([dims[i] for i in keep])) if keep else 1
    return res.reshape(dkeep, dkeep)


def permute_subsystems(m: np.ndarray, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Reorder tensor factors so new subsystem i is old subsystem perm[i]."""
    m = np.asarray(m, dtype=complex)
    dims = list(dims)
    _check_shape(m, dims, "permute_subsystems")
    k = len(dims)
    if sorted(perm) != list(range(k)):
        raise ValueError(f"permute_subsystems: invalid permutation {list(perm)}")
    perm = list(perm)
    tens = m.reshape(dims + dims)
    tens = tens.transpose(perm + [k + p for p in perm])
    total = int(np.prod(dims))
    return np.ascontiguousarray(tens.reshape(total, total))


def embed_operator(op: np.ndarray, dims: Sequence[int], targets: Sequence[int]) -> np.ndarray:
    """Embed ``op`` acting on the listed subsystems into the full space.

    ``op`` must act on the tensor product of ``dims[t] for t in targets``, in
    the order given by ``targets``; identity is applied everywhere else.
    """
    dims = list(dims)
    targets = list(targets)
    if len(set(targets)) != len(targets):
        raise ValueError("embed_operator: duplicate target subsystems")
    rest = [i for i in range(len(dims)) if i not in targets]
    d_rest = int(np.prod([dims[i] for i in rest])) if rest else 1
    big = np.kron(np.asarray(op, dtype=complex), np.eye(d_rest))
    # big currently lives on ordering targets + rest; send subsystem j of the
    # current ordering back to its canonical slot.
    cur_order = targets + rest
    perm = [cur_order.index(i) for i in range(len(dims))]
    cur_dims = [dims[i] for i in cur_order]
    return permute_subsystems(big, cur_dims, perm)


def trace_norm(m: np.ndarray) -> float:
    """Schatten-1 norm (sum of singular values)."""
    return schatten_norm(m, 1.0)


def spectral_norm(m: np.ndarray) -> float:
    """Schatten-inf norm (largest singular value)."""
    m = np.asarray(m, dtype=complex)
    if is_hermitian(m):
        return float(np.abs(np.linalg.eigvalsh(m)).max())
    return float(np.linalg.svd(m, compute_uv=False).max())


def frobenius_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def schatten_norm(m: np.ndarray, p: float) -> float:
    """Schatten p-norm for real p >= 1, via singular values.

    Hermitian input uses |eigenvalues| instead of a full SVD.
    """
    if p < 1:
        raise ValueError(f"schatten_norm: p must be >= 1, got {p}")
    m = np.asarray(m, dtype=complex)
    if is_hermitian(m):
        s = np.abs(np.linalg.eigvalsh(m))
    else:
        s = np.linalg.svd(m, compute_uv=False)
    if np.isinf(p):
        return float(s.max()) if s.size else 0.0
    return float(np.sum(s**p) ** (1.0 / p))


class SchattenNorms(NamedTuple):
    trace_norm: float
    spectral_norm: float
    frobenius_norm: float


def norms(m: np.ndarray) -> SchattenNorms:
    """Trace, spectral and Frobenius norms of one matrix."""
    m = np.asarray(m, dtype=complex)
    if is_hermitian(m):
        s = np.abs(np.linalg.eigvalsh(m))
    else:
        s = np.linalg.svd(m, compute_uv=False)
    return SchattenNorms(
        trace_norm=float(s.sum()),
        spectral_norm=float(s.max()) if s.size else 0.0,
        frobenius_norm=float(np.sqrt(np.sum(s**2))),
    )
