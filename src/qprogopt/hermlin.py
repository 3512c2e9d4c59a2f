"""Dense complex Hermitian linear-algebra kernels.

Everything operates on plain ``numpy.ndarray`` values (complex128, row-major).
Matrices are dense and sized for dimensions up to ~1024; there is no sparse
or GPU path.  All functions are pure: inputs are never mutated, so values can
be shared freely across threads.  Every singular-value norm is a
``schatten_norm``; Kronecker products are plain ``np.kron``.

A matrix from outside passes one gate, each defined once here: ``_checked``
(square, finite and ``is_hermitian``) in ``herm_eig``, ``DensityMatrix``, the
costs, the search targets and the PQC Hamiltonians; ``_square`` (square and
finite) in ``unitary_channel``, ``diamond_distance``, the Schatten norms,
``project_to_states`` and ``project_to_choi_set``.  Checks live at the public
boundary, never per iterate.

One LAPACK layer: ``_eigh``, ``_eigvalsh``, ``_solve`` and ``_cholesky`` call
numpy's gufuncs (``numpy.linalg._umath_linalg``) on float64 or complex128
operands of one dtype, skipping ``np.linalg``'s per-call wrapper, bit for bit,
under its error state: a failed factorization or a non-converged ``eigh``
raises ``LinAlgError``.  Other dtypes, mixed operands or a numpy without that
private module (``_lapack`` None) take ``np.linalg`` itself.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

try:  # private numpy API: the kernels below fall back to np.linalg without it
    from numpy.linalg import _umath_linalg as _lapack
except ImportError:
    _lapack = None

__all__ = [
    "HERMITICITY_RTOL",
    "SpectralDecomposition",
    "hermitize",
    "is_hermitian",
    "herm_eig",
    "matrix_function",
    "matrix_sqrt",
    "matrix_inv_sqrt",
    "partial_trace",
    "permute_subsystems",
    "embed_operator",
    "trace_norm",
    "spectral_norm",
    "schatten_norm",
]

# Relative deviation max|M - M^dag| / max|M| above which a matrix is rejected
# as non-Hermitian.
HERMITICITY_RTOL = 1e-12
# Spectral cutoffs of matrix_sqrt, matrix_inv_sqrt and _sign_values (see there).
SPECTRAL_RCOND = 1e-12
SQRT_NEG_TOL = 1e-10
SIGN_CLUSTER_GAP = 1e-10
SIGN_ZERO_TOL = 1e-10

_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
_LAPACK_DTYPES = frozenset((np.dtype(float), np.dtype(complex)))


def _lapack_errors(message: str) -> np.errstate:
    """np.linalg's error state for a gufunc: a NaN result raises LinAlgError(message)."""
    def fail(err, flag):
        raise np.linalg.LinAlgError(message)
    return np.errstate(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore")


@_lapack_errors("Eigenvalues did not converge")
def _eigh(a: np.ndarray) -> tuple:
    """``np.linalg.eigh(a)``: ascending eigenvalues and eigenvectors of a Hermitian stack."""
    if _lapack is not None and a.dtype in _LAPACK_DTYPES:
        return _lapack.eigh_lo(a)
    return np.linalg.eigh(a)


@_lapack_errors("Eigenvalues did not converge")
def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvalsh(a)``: ascending eigenvalues of a Hermitian matrix or stack."""
    if _lapack is not None and a.dtype in _LAPACK_DTYPES:
        return _lapack.eigvalsh_lo(a)
    return np.linalg.eigvalsh(a)


@_lapack_errors("Singular matrix")
def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(a, b)``: a vector ``b`` is one right-hand side (numpy 2's rule)."""
    if _lapack is not None and a.dtype in _LAPACK_DTYPES and b.dtype == a.dtype:
        return (_lapack.solve1 if b.ndim == 1 else _lapack.solve)(a, b)
    return np.linalg.solve(a, b)


@_lapack_errors("Matrix is not positive definite")
def _cholesky(a: np.ndarray) -> np.ndarray:
    """``np.linalg.cholesky(a)``: lower Cholesky factors of a matrix or stack."""
    if _lapack is not None and a.dtype in _LAPACK_DTYPES:
        return _lapack.cholesky_lo(a)
    return np.linalg.cholesky(a)


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


def _square(m: np.ndarray, who: str) -> np.ndarray:
    """``m`` as a complex ndarray, rejected unless it is a square, finite matrix."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{who}: expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{who}: entries must be finite")
    return m


def _checked(m: np.ndarray, who: str) -> np.ndarray:
    """``_square``, and rejected unless Hermitian (``is_hermitian``)."""
    m = _square(m, who)
    if not is_hermitian(m):
        dev, scale = float(np.abs(m - m.conj().T).max()), float(np.abs(m).max())
        raise ValueError(f"{who}: matrix is not Hermitian "
                         f"(max |M - M^dag| = {dev:.3e}, max |M| = {scale:.3e})")
    return m


class SpectralDecomposition(NamedTuple):
    """Eigensystem of a Hermitian matrix, eigenvalues sorted descending."""

    eigenvalues: np.ndarray  # real, shape (n,), descending
    eigenvectors: np.ndarray  # unitary, columns matching eigenvalues

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return (u * self.eigenvalues) @ u.conj().T


def herm_eig(m: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix (``_checked``), eigenvalues descending."""
    return SpectralDecomposition(*(a.copy() for a in _eigh_desc(_checked(m, "herm_eig"))))


def _eigh_desc(h: np.ndarray) -> tuple:
    """Descending eigenvalues and eigenvectors of h, Hermitian by construction (a
    ``hermitize`` output): one ``eigh``, read reversed as views, no copies."""
    vals, vecs = _eigh(h)
    return vals[::-1], vecs[:, ::-1]


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
    """x^(-1/2) on the support of a PSD Hermitian matrix (see ``_inv_sqrt_values``)."""
    dec = herm_eig(m)
    return (dec.eigenvectors * _inv_sqrt_values(dec.eigenvalues)) @ dec.eigenvectors.conj().T


def _inv_sqrt_values(vals: np.ndarray) -> np.ndarray:
    """lambda^(-1/2) on the support, 0 elsewhere.

    Eigenvalues with |lambda| <= SPECTRAL_RCOND * max|lambda| count as zero
    and are excluded (pseudo-inverse convention); negative eigenvalues above
    that cutoff raise a domain error.
    """
    scale = np.abs(vals).max() if vals.size else 0.0
    support = np.abs(vals) > SPECTRAL_RCOND * scale
    if np.any(vals[support] < 0):
        raise ValueError("matrix_inv_sqrt: negative eigenvalue above support cutoff")
    out = np.zeros_like(vals)
    out[support] = vals[support] ** -0.5
    return out


def _sign_values(vals: np.ndarray) -> np.ndarray:
    """Signs of descending eigenvalues, one sign per numerical cluster.

    Eigenvalues closer than ``SIGN_CLUSTER_GAP`` are grouped and share one
    sign, so the result does not depend on the arbitrary eigenbasis inside a
    numerically degenerate cluster.  A cluster whose mean is within
    ``SIGN_ZERO_TOL`` of zero maps to 0.
    """
    v = vals.tolist()  # a few values: plain floats beat per-cluster array calls
    signs = [0.0] * len(v)
    i = 0
    n = len(v)
    while i < n:
        j = i + 1
        while j < n and v[j - 1] - v[j] < SIGN_CLUSTER_GAP:
            j += 1
        mean = sum(v[i:j]) / (j - i)
        if mean > SIGN_ZERO_TOL:
            signs[i:j] = [1.0] * (j - i)
        elif mean < -SIGN_ZERO_TOL:
            signs[i:j] = [-1.0] * (j - i)
        i = j
    return np.array(signs)


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
    return _schatten(m, 1.0, "trace_norm")


def spectral_norm(m: np.ndarray) -> float:
    """Schatten-inf norm (largest singular value)."""
    return _schatten(m, np.inf, "spectral_norm")


def schatten_norm(m: np.ndarray, p: float) -> float:
    """Schatten p-norm of a square, finite matrix (``_square``) for real p >= 1,
    via singular values; Hermitian input uses |eigenvalues| instead of a full SVD."""
    if not p >= 1:  # NaN too
        raise ValueError(f"schatten_norm: p must be >= 1, got {p}")
    return _schatten(m, p, "schatten_norm")


def _schatten(m: np.ndarray, p: float, who: str) -> float:
    m = _square(m, who)
    s = np.abs(_eigvalsh(m)) if is_hermitian(m) else np.linalg.svd(m, compute_uv=False)
    if np.isinf(p):
        return float(s.max()) if s.size else 0.0
    return float(np.sum(s**p) ** (1.0 / p))
