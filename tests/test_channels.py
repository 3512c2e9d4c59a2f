import math

import numpy as np
import pytest

from qprogopt.channels import (
    COST_KINDS,
    ChoiMatrix,
    DensityMatrix,
    KrausChannel,
    amplitude_damping,
    bures_fidelity,
    choi_of_channel,
    cost_eval,
    dephasing,
    depolarizing,
    max_entangled,
    pauli_channel,
    relative_entropy_cost,
    rotation,
    unitary_channel,
)
from qprogopt.hermlin import partial_trace
from qprogopt.rand import random_channel, random_choi, random_density

from oracles import apply_via_choi

PINSKER = math.sqrt(2.0 * math.log(2.0))


def test_density_matrix_validation():
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="eigenvalue"):
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex))
    dm = DensityMatrix(np.eye(3) / 3)
    assert dm.dim == 3 and np.isclose(np.trace(dm.matrix @ dm.matrix).real, 1.0 / 3.0)


def test_max_entangled_structure():
    phi = max_entangled(2)
    expected = np.zeros((4, 4), dtype=complex)
    for i in (0, 3):
        for j in (0, 3):
            expected[i, j] = 0.5
    assert np.allclose(phi.matrix, expected)
    assert np.allclose(partial_trace(phi.matrix, [2, 2], [0]), np.eye(2) / 2)
    assert np.isclose(np.trace(phi.matrix @ phi.matrix).real, 1.0)
    with pytest.raises(ValueError):
        max_entangled(1)


def test_choi_identity_channel():
    chi = choi_of_channel(unitary_channel(np.eye(2, dtype=complex)))
    assert np.allclose(chi.matrix, max_entangled(2).matrix)


def test_choi_reset_channel():
    chi = choi_of_channel(amplitude_damping(1.0))
    ket0 = np.zeros((2, 2), dtype=complex)
    ket0[0, 0] = 1.0
    assert np.allclose(chi.matrix, np.kron(np.eye(2) / 2, ket0))


def test_choi_fully_depolarizing():
    chi = choi_of_channel(depolarizing(1.0, 2))
    assert np.allclose(chi.matrix, np.eye(4) / 4)


def test_choi_marginal_invariant_zoo():
    channels = [
        amplitude_damping(0.3),
        depolarizing(0.6),
        dephasing(0.2),
        pauli_channel([0.4, 0.3, 0.2, 0.1]),
        rotation(0.7),
        depolarizing(0.5, d=3),
    ]
    for channel in channels:
        chi = choi_of_channel(channel)  # constructor enforces the marginal
        marg = partial_trace(chi.matrix, [chi.d_in, chi.d_out], [0])
        assert np.abs(marg - np.eye(chi.d_in) / chi.d_in).max() <= 1e-9


def test_apply_via_choi_identity_and_reset():
    rng = np.random.default_rng(0)
    rho = random_density(2, rng).matrix
    chi_id = choi_of_channel(unitary_channel(np.eye(2, dtype=complex)))
    assert np.abs(apply_via_choi(chi_id.matrix, 2, rho) - rho).max() <= 1e-10
    chi_reset = choi_of_channel(amplitude_damping(1.0))
    ket0 = np.zeros((2, 2), dtype=complex)
    ket0[0, 0] = 1.0
    assert np.abs(apply_via_choi(chi_reset.matrix, 2, rho) - ket0).max() <= 1e-10


def test_apply_via_choi_round_trip():
    rng = np.random.default_rng(1)
    for d in (2, 3):
        channel = random_channel(d, rng=rng)
        chi = choi_of_channel(channel).matrix
        for _ in range(5):
            rho = random_density(d, rng).matrix
            kraus_action = sum(k @ rho @ k.conj().T for k in channel.kraus_ops)
            assert np.abs(apply_via_choi(chi, d, rho) - kraus_action).max() <= 1e-10


def test_zoo_kraus_forms():
    ad = amplitude_damping(0.36)
    assert np.allclose(ad.kraus_ops[0], np.diag([1.0, 0.8]))
    expected = np.zeros((2, 2))
    expected[0, 1] = 0.6
    assert np.allclose(ad.kraus_ops[1], expected)
    assert np.allclose(
        choi_of_channel(amplitude_damping(0.0)).matrix, max_entangled(2).matrix
    )
    assert np.allclose(
        choi_of_channel(pauli_channel([1.0, 0.0, 0.0, 0.0])).matrix,
        max_entangled(2).matrix,
    )


def test_zoo_parameter_validation():
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            amplitude_damping(bad)
        with pytest.raises(ValueError):
            depolarizing(bad)
    with pytest.raises(ValueError):
        pauli_channel([0.5, 0.6, 0.0, 0.0])
    with pytest.raises(ValueError, match="unitary"):
        unitary_channel(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_rotation_choi_is_pure_derived():
    theta = math.pi / 2
    chi = choi_of_channel(rotation(theta)).matrix
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    u = math.cos(theta) * np.eye(2) + 1j * math.sin(theta) * x
    phi_vec = np.zeros(4, dtype=complex)
    phi_vec[0] = phi_vec[3] = 1.0 / math.sqrt(2)
    vec = np.kron(np.eye(2), u) @ phi_vec
    assert np.abs(chi - np.outer(vec, vec.conj())).max() <= 1e-12


def test_cost_eval_identical_inputs():
    rng = np.random.default_rng(2)
    chi = random_choi(2, rng).matrix
    assert cost_eval("C1", chi, chi) <= 1e-12
    assert np.isclose(cost_eval("F", chi, chi), 1.0, atol=1e-10)
    assert cost_eval("CF", chi, chi) <= 1e-9
    assert cost_eval("CR", chi, chi) <= 1e-9
    assert cost_eval("Cp", chi, chi, p=3.0) <= 1e-12
    assert cost_eval("Cmu", chi, chi, mu=1e-2) <= 1e-12


def test_cost_eval_rank_one_fidelity():
    phi = max_entangled(2).matrix
    f = cost_eval("F", phi, np.eye(4) / 4)
    assert np.isclose(f, 0.5, atol=1e-10)


def test_cost_eval_unknown_kind():
    chi = max_entangled(2).matrix
    with pytest.raises(ValueError, match="unknown cost kind"):
        cost_eval("C2norm", chi, chi)


def test_cost_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        cost_eval("C1", np.eye(4) / 4, np.eye(9) / 9)


@pytest.mark.parametrize("fault", ["non_square", "nan", "non_hermitian"])
def test_cost_rejects_bad_input(fault):
    # no silent hermitizing, no reading of one triangle, no opaque numpy error
    chi = np.eye(4, dtype=complex) / 4
    bad = chi.copy()
    if fault == "non_square":
        bad, match = np.ones((4, 2)) / 8, r"expected a square matrix, got shape \(4, 2\)"
    elif fault == "nan":
        bad[1, 1], match = np.nan, "entries must be finite"
    else:
        bad[0, 1], match = 0.05, "matrix is not Hermitian"  # strictly upper-triangular
    for kind in COST_KINDS:
        for target, sim in ((chi, bad), (bad, chi)):
            with pytest.raises(ValueError, match=match):
                cost_eval(kind, target, sim, p=2.0, mu=1e-2)


def test_infidelity_names_an_indefinite_sim():
    # a Hermitian sim with a negative eigenvalue on the target's support: the
    # error names sim and its least eigenvalue, not CF's inverse square root
    with pytest.raises(ValueError, match=r"CF: sim .* \(lambda_min\(sim\) = -0\.1\)"):
        cost_eval("CF", np.eye(4) / 4, np.diag([0.5, 0.3, 0.3, -0.1]))


def test_fuchs_van_de_graaf_chain():
    rng = np.random.default_rng(3)
    d = 2
    for _ in range(25):
        a = random_choi(d, rng).matrix
        b = random_choi(d, rng).matrix
        c1 = cost_eval("C1", a, b)
        cf = cost_eval("CF", a, b)
        assert c1 <= 2.0 * math.sqrt(cf) + 1e-9
        assert d * c1 <= 2.0 * d * math.sqrt(cf) + 1e-9


def test_quantum_pinsker():
    # C1 <= sqrt(2 ln 2) sqrt(CR) with CR in bits
    rng = np.random.default_rng(4)
    for _ in range(25):
        a = random_choi(2, rng).matrix
        b = random_choi(2, rng).matrix
        c1 = cost_eval("C1", a, b)
        cr = relative_entropy_cost(a, b)
        assert math.isfinite(cr)
        assert c1 <= PINSKER * math.sqrt(cr) + 1e-9


def test_relative_entropy_support_sentinel():
    # orthogonal pure Chois violate both support conditions
    chi_i = choi_of_channel(unitary_channel(np.eye(2, dtype=complex))).matrix
    chi_x = choi_of_channel(pauli_channel([0.0, 1.0, 0.0, 0.0])).matrix
    assert relative_entropy_cost(chi_i, chi_x) == math.inf


def test_huber_sandwich():
    rng = np.random.default_rng(5)
    for mu in (1e-1, 1e-2, 1e-3):
        for _ in range(10):
            a = random_choi(2, rng).matrix
            b = random_choi(2, rng).matrix
            c1 = cost_eval("C1", a, b)
            cmu = cost_eval("Cmu", a, b, mu=mu)
            d = a.shape[0]
            assert cmu <= c1 + 1e-9
            assert c1 <= cmu + mu * d / 2.0 + 1e-9


def test_huber_rejects_bad_mu():
    chi = max_entangled(2).matrix
    with pytest.raises(ValueError):
        cost_eval("Cmu", chi, chi, mu=0.0)
    for mu in (math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            cost_eval("Cmu", chi, chi, mu=mu)


def test_choi_linear_in_channel_mixture():
    rng = np.random.default_rng(6)
    ch_a = random_channel(2, rng=rng)
    ch_b = random_channel(2, rng=rng)
    ops = tuple(math.sqrt(0.3) * k for k in ch_a.kraus_ops) + tuple(
        math.sqrt(0.7) * k for k in ch_b.kraus_ops
    )
    mixed = KrausChannel(ops, 2, 2)
    lhs = choi_of_channel(mixed).matrix
    rhs = 0.3 * choi_of_channel(ch_a).matrix + 0.7 * choi_of_channel(ch_b).matrix
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_kraus_channel_completeness_check():
    bad = (np.eye(2, dtype=complex) * 0.5,)
    with pytest.raises(ValueError, match="deviates"):
        KrausChannel(bad, 2, 2)
    with pytest.raises(ValueError, match="at least one Kraus operator"):
        KrausChannel((), 2, 2)
    with pytest.raises(ValueError, match=r"operator shape \(2, 3\), expected \(2, 2\)"):
        KrausChannel((np.eye(2, 3),), 2, 2)
    # NaN fails no comparison with the tolerance, so it is rejected on its own
    with pytest.raises(ValueError, match="non-finite"):
        KrausChannel((np.full((2, 2), np.nan),), 2, 2)
    with pytest.raises(ValueError, match="non-finite"):
        rotation(math.nan)


def test_choi_matrix_marginal_check():
    # |00><00| is a unit-trace state but not a Choi state
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 1.0
    with pytest.raises(ValueError, match="marginal"):
        ChoiMatrix(m, 2, 2)


def test_bures_fidelity_symmetric():
    rng = np.random.default_rng(7)
    a = random_choi(2, rng).matrix
    b = random_choi(2, rng).matrix
    assert np.isclose(bures_fidelity(a, b), bures_fidelity(b, a), atol=1e-10)


@pytest.mark.parametrize("call, match", [
    (lambda: DensityMatrix(np.ones((2, 3)) / 2), "expected a square matrix"),
    (lambda: DensityMatrix(np.full((2, 2), np.nan)), "DensityMatrix: entries must be finite"),
    (lambda: DensityMatrix(np.array([[0.5, 0.1], [0.0, 0.5]])), "not Hermitian"),
    (lambda: ChoiMatrix(np.eye(4) / 4, 2, 3), r"dim 4 != d_in\*d_out = 6"),
    (lambda: pauli_channel(np.ones(3) / 3), "need d\\^2 probabilities, got 3"),
    (lambda: cost_eval("Cp", np.eye(4) / 4, np.eye(4) / 4), "needs the p parameter"),
    (lambda: unitary_channel(np.eye(4, 2)),
     r"unitary_channel: expected a square matrix, got shape \(4, 2\)"),
], ids=["density-not-square", "density-nan", "density-not-hermitian", "choi-dims", "pauli-count",
        "Cp-no-p", "unitary-not-square"])
def test_channels_reject_malformed_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()
