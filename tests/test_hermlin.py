import math

import numpy as np
import pytest

from qprogopt import hermlin
from qprogopt.hermlin import (
    _sign_values,
    embed_operator,
    herm_eig,
    hermitize,
    is_hermitian,
    matrix_function,
    matrix_inv_sqrt,
    matrix_sqrt,
    partial_trace,
    permute_subsystems,
    schatten_norm,
    spectral_norm,
    trace_norm,
)
from qprogopt.channels import max_entangled
from qprogopt.rand import random_density, random_hermitian

from oracles import cluster_signs, matrix_sign


def test_herm_eig_identity():
    dec = herm_eig(np.eye(4, dtype=complex))
    assert np.allclose(dec.eigenvalues, np.ones(4))


def test_herm_eig_diagonal_sorted():
    dec = herm_eig(np.diag([3.0, -1.0]).astype(complex))
    assert np.allclose(dec.eigenvalues, [3.0, -1.0])
    # eigenvectors are the standard basis up to phase
    assert np.allclose(np.abs(dec.eigenvectors), np.eye(2))


def test_herm_eig_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="not Hermitian"):
        herm_eig(m)


@pytest.mark.parametrize("dim", [8, 64, 256, 1024])
def test_herm_eig_reconstruction(dim):
    rng = np.random.default_rng(dim)
    m = random_hermitian(dim, rng)
    dec = herm_eig(m)
    err = np.linalg.norm(dec.reconstruct() - m)
    assert err <= 1e-10 * (1.0 + np.linalg.norm(m))
    u = dec.eigenvectors
    assert np.abs(u.conj().T @ u - np.eye(dim)).max() <= 1e-10
    assert np.all(np.diff(dec.eigenvalues) <= 1e-12)


def test_matrix_sqrt_example():
    assert np.allclose(matrix_sqrt(4.0 * np.eye(3, dtype=complex)), 2.0 * np.eye(3))


def test_matrix_sqrt_squares_back():
    rng = np.random.default_rng(5)
    for _ in range(10):
        g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        m = hermitize(g @ g.conj().T)
        r = matrix_sqrt(m)
        assert np.abs(r @ r - m).max() <= 1e-9 * max(1.0, np.abs(m).max())


def test_matrix_sign_convention():
    s = matrix_sign(np.diag([2.0, 0.0, -3.0]).astype(complex))
    assert np.allclose(s, np.diag([1.0, 0.0, -1.0]))


def test_sign_values_match_the_cluster_rule():
    # spectra with clusters straddling the gap and zero tolerances
    rng = np.random.default_rng(70)
    levels = [0.0, 1e-10, -1e-10, 5e-11, -5e-11, 2e-10, -2e-10, 1.0, -1.0]
    for _ in range(3000):
        n = int(rng.integers(0, 9))
        noise = rng.choice([0.0, 1e-12, 1e-11, 1e-10, 1.0])
        vals = np.sort(rng.choice(levels, size=n) + noise * rng.normal(size=n))[::-1].copy()
        assert np.array_equal(_sign_values(vals), cluster_signs(vals))


def test_matrix_function_exp():
    out = matrix_function(np.diag([math.pi, 0.0]).astype(complex),
                          lambda x: np.exp(1j * x))
    assert np.allclose(out, np.diag([-1.0, 1.0]))


def test_matrix_function_domain_error():
    with pytest.raises(ValueError, match="undefined"):
        matrix_function(np.diag([1.0, -1.0]).astype(complex), np.log)


def test_matrix_inv_sqrt_support():
    m = np.diag([4.0, 0.0]).astype(complex)
    out = matrix_inv_sqrt(m)
    assert np.allclose(out, np.diag([0.5, 0.0]))


def test_partial_trace_max_entangled():
    phi = max_entangled(2).matrix
    assert np.allclose(partial_trace(phi, [2, 2], [0]), np.eye(2) / 2)
    assert np.allclose(partial_trace(phi, [2, 2], [1]), np.eye(2) / 2)


def test_partial_trace_product():
    rng = np.random.default_rng(2)
    rho = random_density(3, rng).matrix
    sigma = random_hermitian(4, rng)
    out = partial_trace(np.kron(rho, sigma), [3, 4], [0])
    assert np.allclose(out, rho * np.trace(sigma))


def test_partial_trace_full_trace_and_linearity():
    rng = np.random.default_rng(3)
    m1 = random_hermitian(12, rng)
    m2 = random_hermitian(12, rng)
    assert np.isclose(partial_trace(m1, [3, 4], [])[0, 0], np.trace(m1))
    lhs = partial_trace(0.3 * m1 + 0.7 * m2, [3, 4], [1])
    rhs = 0.3 * partial_trace(m1, [3, 4], [1]) + 0.7 * partial_trace(m2, [3, 4], [1])
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())


def test_partial_trace_shape_error():
    with pytest.raises(ValueError, match="inconsistent"):
        partial_trace(np.eye(6), [2, 2], [0])


def test_permute_swap():
    rng = np.random.default_rng(4)
    rho = random_density(2, rng).matrix
    sigma = random_density(3, rng).matrix
    out = permute_subsystems(np.kron(rho, sigma), [2, 3], [1, 0])
    assert np.allclose(out, np.kron(sigma, rho))


def test_permute_involution():
    rng = np.random.default_rng(5)
    m = random_hermitian(6, rng)
    out = permute_subsystems(permute_subsystems(m, [2, 3], [1, 0]), [3, 2], [1, 0])
    assert np.allclose(out, m)


def test_permute_cyclic_shift_index_oracle():
    # a 3-qubit computational projector must relabel by the same bit shuffle
    dims = [2, 2, 2]
    perm = [1, 2, 0]  # new subsystem i = old subsystem perm[i]
    bits = (1, 0, 1)
    idx = bits[0] * 4 + bits[1] * 2 + bits[2]
    proj = np.zeros((8, 8), dtype=complex)
    proj[idx, idx] = 1.0
    out = permute_subsystems(proj, dims, perm)
    new_bits = tuple(bits[p] for p in perm)
    new_idx = new_bits[0] * 4 + new_bits[1] * 2 + new_bits[2]
    expected = np.zeros((8, 8), dtype=complex)
    expected[new_idx, new_idx] = 1.0
    assert np.allclose(out, expected)


def test_permute_invalid():
    with pytest.raises(ValueError, match="permutation"):
        permute_subsystems(np.eye(4), [2, 2], [0, 0])


def test_norms_example():
    m = np.diag([1.0, -2.0]).astype(complex)
    assert np.isclose(schatten_norm(m, 1), 3.0)
    assert np.isclose(schatten_norm(m, np.inf), 2.0)
    assert np.isclose(schatten_norm(m, 2), math.sqrt(5.0))


def test_norms_density():
    rng = np.random.default_rng(6)
    rho = random_density(5, rng).matrix
    assert np.isclose(schatten_norm(rho, 1), 1.0)


def test_schatten_monotonicity_chain():
    rng = np.random.default_rng(7)
    for _ in range(100):
        m = random_hermitian(6, rng)
        s_inf, s_2, s_1 = (schatten_norm(m, p) for p in (np.inf, 2, 1))
        assert s_inf <= s_2 + 1e-12
        assert s_2 <= s_1 + 1e-12


def test_schatten_norm_general_matrix():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # not Hermitian
    assert np.isclose(schatten_norm(m, 1), 1.0)
    assert np.isclose(schatten_norm(m, 2), 1.0)


def test_is_hermitian_tolerance():
    m = np.eye(2, dtype=complex)
    m[0, 1] = 1e-11
    assert not is_hermitian(m)
    m[0, 1] = 1e-14
    assert is_hermitian(m)


@pytest.mark.parametrize("call, match", [
    (lambda: matrix_sqrt(np.diag([1.0, -1.0])), "matrix not PSD"),
    (lambda: herm_eig(np.ones((2, 3))), r"herm_eig: expected a square matrix, got shape \(2, 3\)"),
    (lambda: herm_eig(np.full((2, 2), np.nan)), "herm_eig: entries must be finite"),
    (lambda: partial_trace(np.eye(2), [2, 0], keep=[0]), "dimensions must be positive"),
    (lambda: partial_trace(np.eye(4), [2, 2], keep=[2]), "keep indices"),
    (lambda: partial_trace(np.eye(1), [1] * 27, keep=[0]), "too many subsystems"),
    (lambda: embed_operator(np.eye(4), [2, 2], targets=[0, 0]), "duplicate target"),
    (lambda: schatten_norm(np.eye(2), 0.5), "p must be >= 1"),
    # NaN passed a p < 1 test, and the norm was NaN
    (lambda: schatten_norm(np.eye(2), np.nan), "p must be >= 1, got nan"),
    # a ValueError naming the function, not LinAlgError's "SVD did not converge"
    (lambda: schatten_norm(np.full((2, 2), np.nan), 1), "schatten_norm: entries must be finite"),
    (lambda: schatten_norm(np.ones((2, 3)), 2),
     r"schatten_norm: expected a square matrix, got shape \(2, 3\)"),
    (lambda: trace_norm(np.full((2, 2), np.nan)), "trace_norm: entries must be finite"),
    (lambda: spectral_norm(np.ones((3, 2))),
     r"spectral_norm: expected a square matrix, got shape \(3, 2\)"),
], ids=["sqrt-not-psd", "eig-not-square", "eig-nan", "dims", "keep", "too-many",
        "duplicate-targets", "schatten-p", "schatten-p-nan", "schatten-nan", "schatten-not-square",
        "trace-norm-nan", "spectral-norm-not-square"])
def test_hermlin_rejects_malformed_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()


# --- the LAPACK layer -------------------------------------------------------------


def _bits(out) -> list:
    """dtype, shape and bytes of an array, or of each array of a tuple."""
    return [(a.dtype, a.shape, a.tobytes()) for a in (out if isinstance(out, tuple) else (out,))]


def _random(rng, shape, dtype) -> np.ndarray:
    a = rng.normal(size=shape)
    return (a + 1j * rng.normal(size=shape)).astype(dtype) if dtype is complex else a.astype(dtype)


def _kernel_cases(rng, lead, dtype) -> list:
    """(kernel, np.linalg function, arguments) over a Hermitian matrix, a positive
    definite one, its Cholesky factor and that factor transposed (not contiguous,
    as the Schur factor's in the Newton step), with vector and matrix right-hand
    sides."""
    g = _random(rng, lead + (5, 5), dtype)
    h = g + g.conj().swapaxes(-1, -2)
    pd = g @ g.conj().swapaxes(-1, -2) + np.eye(5, dtype=dtype)
    low = np.linalg.cholesky(pd)
    up = low.swapaxes(-1, -2)
    assert not up.flags.c_contiguous
    vec, mat = _random(rng, (5,), dtype), _random(rng, lead + (5, 2), dtype)
    return [(hermlin._eigh, np.linalg.eigh, (h,)), (hermlin._eigvalsh, np.linalg.eigvalsh, (h,)),
            (hermlin._cholesky, np.linalg.cholesky, (pd,))] + [
        (hermlin._solve, np.linalg.solve, (a, b)) for a in (pd, low, up) for b in (vec, mat)]


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("lead", [(), (3,)], ids=["single", "stacked"])
def test_lapack_kernels_match_numpy_bit_for_bit(dtype, lead):
    rng = np.random.default_rng(90)
    cases = _kernel_cases(rng, lead, dtype)
    # mixed operands: a positive definite matrix of the other dtype of the two
    pd = cases[2][2][0]
    pd = pd.astype(complex) if dtype is float else pd.real
    cases += [(hermlin._solve, np.linalg.solve, (pd, b))
              for b in (_random(rng, (5,), dtype), _random(rng, lead + (5, 2), dtype))]
    for kernel, numpy_fn, args in cases:
        assert _bits(kernel(*args)) == _bits(numpy_fn(*args)), kernel.__name__


@pytest.mark.parametrize("call, message", [
    (lambda: hermlin._eigh(np.full((3, 3), np.nan)), "Eigenvalues did not converge"),
    (lambda: hermlin._eigvalsh(np.full((2, 3, 3), np.nan, dtype=complex)),
     "Eigenvalues did not converge"),
    (lambda: hermlin._solve(np.ones((3, 3)), np.ones(3)), "Singular matrix"),
    (lambda: hermlin._cholesky(np.diag([1.0, -1.0, 1.0]).astype(complex)),
     "Matrix is not positive definite"),
], ids=["eigh-nan", "eigvalsh-nan", "solve-singular", "cholesky-indefinite"])
@pytest.mark.parametrize("quiet", [False, True], ids=["default", "loop-errstate"])
def test_lapack_kernels_raise_linalg_error(call, message, quiet):
    # as np.linalg does, also under the loops' errstate(invalid="ignore"), so the
    # solver's Cholesky retries still see the failure
    with np.errstate(over="ignore", invalid="ignore" if quiet else "warn"):
        with pytest.raises(np.linalg.LinAlgError, match=message):
            call()
