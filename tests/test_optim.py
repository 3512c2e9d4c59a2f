import gc
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from qprogopt.channels import (
    _COSTS,
    ChoiMatrix,
    DensityMatrix,
    choi_of_channel,
    cost_eval,
    depolarizing,
    max_entangled,
    pauli_channel,
    rotation,
    unitary_channel,
)
from qprogopt.hermlin import (
    hermitize,
    matrix_function,
    matrix_inv_sqrt,
    matrix_sqrt,
    partial_trace,
)
from qprogopt import hermlin, optim, sdp
from qprogopt.optim import (
    _simplex,
    LearningRate,
    OptimConfig,
    frank_wolfe,
    learn_unitary_program,
    project_to_choi_set,
    project_to_states,
    projected_subgradient,
    simulation_cost,
    simulation_gradient,
)
from qprogopt.processors import (
    ProcessorMap,
    pbt_processor,
    pbt_reduced_map,
    pqc_processor,
    teleportation_processor,
)
from qprogopt.rand import (
    random_choi,
    random_density,
    random_traceless_direction,
)

from oracles import (
    count_calls,
    dense_first_order,
    matrix_sign,
    random_program,
    simplex_grid_project,
    simplex_project_arrays,
)

TELE = teleportation_processor(2)
PHI = max_entangled(2).matrix


def _interior_program(dim, rng, mix=0.4):
    return (1 - mix) * random_density(dim, rng).matrix + mix * np.eye(dim) / dim


def _directional(proc, chi_e, pi, kind, mu, direction, eps=1e-5):
    cp = simulation_cost(proc, chi_e, pi + eps * direction, kind, mu)
    cm = simulation_cost(proc, chi_e, pi - eps * direction, kind, mu)
    return (cp - cm) / (2 * eps)


def test_grad_zero_at_exact_match():
    # the Choi program reproduces a Pauli channel exactly; all eigenvalues of
    # the difference vanish and sign(0) = 0 gives a zero gradient
    chi_p = choi_of_channel(pauli_channel([0.4, 0.3, 0.2, 0.1])).matrix
    g = simulation_gradient(TELE, chi_p, chi_p, "C1")
    assert np.abs(g).max() <= 1e-9
    g = simulation_gradient(TELE, chi_p, chi_p, "Cmu", 1e-3)
    assert np.abs(g).max() <= 1e-9


@pytest.mark.parametrize(
    "kind,mu,tol",
    [("C1", None, 1e-4), ("CF", None, 1e-6), ("Cmu", 1e-2, 1e-6)],
)
def test_gradient_finite_difference(kind, mu, tol):
    rng = np.random.default_rng(30)
    chi_e = random_choi(2, rng).matrix  # full rank almost surely
    pi = _interior_program(4, rng)
    if kind == "C1":
        # keep away from kinks of the trace cost
        delta = hermitize(TELE.apply_matrix(pi) - chi_e)
        assert np.abs(np.linalg.eigvalsh(delta)).min() > 1e-3
    g = simulation_gradient(TELE, chi_e, pi, kind, mu or 1e-2)
    assert np.abs(g - g.conj().T).max() <= 1e-12
    for _ in range(20):
        direction = random_traceless_direction(4, rng)
        fd = _directional(TELE, chi_e, pi, kind, mu or 1e-2, direction)
        an = float(np.real(np.trace(g @ direction)))
        assert abs(fd - an) <= tol * max(1.0, abs(fd))


def test_subgradient_inequality():
    rng = np.random.default_rng(31)
    chi_e = choi_of_channel(depolarizing(0.35)).matrix
    pi = _interior_program(4, rng)
    g = simulation_gradient(TELE, chi_e, pi, "C1")
    c_pi = simulation_cost(TELE, chi_e, pi, "C1")
    for _ in range(50):
        sigma = random_density(4, rng).matrix
        c_sigma = simulation_cost(TELE, chi_e, sigma, "C1")
        inner = float(np.real(np.trace(g @ (sigma - pi))))
        assert c_sigma - c_pi >= inner - 1e-10


def test_grad_infidelity_pure_target_independent_of_program():
    theta = 0.6
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    u = math.cos(theta) * np.eye(2) + 1j * math.sin(theta) * x
    chi_u = choi_of_channel(unitary_channel(u)).matrix
    rng = np.random.default_rng(32)
    g_ref = -hermitize(TELE.dual(chi_u))
    for _ in range(5):
        pi = random_density(4, rng).matrix
        g = simulation_gradient(TELE, chi_u, pi, "CF")
        assert np.abs(g - g_ref).max() <= 1e-9


def test_grad_infidelity_chain_rule():
    rng = np.random.default_rng(33)
    chi_e = random_choi(2, rng).matrix
    pi = _interior_program(4, rng)
    sim = TELE.apply_matrix(pi)
    f = cost_eval("F", chi_e, sim)
    # grad F = (1/2) L*[sqrt(t) (sqrt(t) sim sqrt(t))^(-1/2) sqrt(t)], t = chi_e
    root = matrix_sqrt(chi_e)
    grad_f = 0.5 * hermitize(TELE.dual(hermitize(
        root @ matrix_inv_sqrt(hermitize(root @ sim @ root)) @ root)))
    lhs = simulation_gradient(TELE, chi_e, pi, "CF")
    rhs = -2.0 * f * grad_f
    assert np.abs(lhs - rhs).max() <= 1e-10


def test_grad_smoothed_approaches_trace_gradient():
    rng = np.random.default_rng(34)
    chi_e = random_choi(2, rng).matrix
    pi = _interior_program(4, rng)
    delta = hermitize(TELE.apply_matrix(pi) - chi_e)
    gap = np.abs(np.linalg.eigvalsh(delta)).min()
    assert gap > 1e-8  # generic instance: no eigenvalue inside (-mu, mu)
    g_trace = simulation_gradient(TELE, chi_e, pi, "C1")
    g_smooth = simulation_gradient(TELE, chi_e, pi, "Cmu", 1e-8)
    assert np.abs(g_trace - g_smooth).max() <= 1e-10


def test_grad_smoothed_lipschitz_bound():
    rng = np.random.default_rng(35)
    chi_e = random_choi(2, rng).matrix
    mu = 1e-2
    lip = TELE.d_prog / mu
    for _ in range(10):
        a = random_density(4, rng).matrix
        b = random_density(4, rng).matrix
        ga = simulation_gradient(TELE, chi_e, a, "Cmu", mu)
        gb = simulation_gradient(TELE, chi_e, b, "Cmu", mu)
        assert np.linalg.norm(ga - gb) <= lip * np.linalg.norm(a - b) + 1e-12


# --- the value-and-gradient table -----------------------------------------------

FUSED_PROCS = {
    "tele": TELE,
    "pbt2": pbt_processor(2),
    "pqc3": pqc_processor(3),
    "red4": pbt_reduced_map(4),
}


def _reference_value(chi, sim, kind, mu):
    """C1, C_mu and CF built here: SVD trace norm, Huber on eigvalsh, 1 - F^2 by sqrtm."""
    if kind == "C1":
        return float(np.linalg.svd(sim - chi, compute_uv=False).sum())
    if kind == "Cmu":
        v = np.linalg.eigvalsh(sim - chi)
        return float(np.where(np.abs(v) < mu, v * v / (2 * mu), np.abs(v) - mu / 2).sum())
    root = scipy.linalg.sqrtm(chi)
    f = np.trace(scipy.linalg.sqrtm(root @ sim @ root)).real
    return 1.0 - f * f


def _reference_gradient(proc, chi, pi, kind, mu):
    """The gradient formulas of the ``optim`` module docstring, from hermlin's matrix functions."""
    sim = proc.apply_matrix(pi)
    if kind == "C1":
        x = matrix_sign(hermitize(sim - chi))
    elif kind == "Cmu":
        x = matrix_function(hermitize(sim - chi),
                            lambda v: np.where(np.abs(v) < mu, v / mu, np.sign(v)))
    else:
        root = matrix_sqrt(chi)
        f = cost_eval("F", chi, sim)
        x = -f * root @ matrix_inv_sqrt(hermitize(root @ sim @ root)) @ root
    return hermitize(proc.dual(hermitize(x)))


@pytest.mark.parametrize("key", sorted(FUSED_PROCS))
@pytest.mark.parametrize("kind", ["C1", "Cmu", "CF"])
def test_cost_table_value_and_gradient(key, kind):
    proc = FUSED_PROCS[key]
    rng = np.random.default_rng(60)
    mu = 1e-2
    for _ in range(3):
        chi = random_choi(2, rng).matrix
        pi = random_program(proc, rng).matrix
        sim = proc.apply_matrix(pi)
        value, x = _COSTS[kind](chi, mu)(sim)
        assert abs(value - simulation_cost(proc, chi, pi, kind, mu)) <= 1e-12
        # measured max 3.1e-15 over these 36 draws (CF; C1 4.4e-16, C_mu 3.3e-16)
        assert abs(value - _reference_value(chi, sim, kind, mu)) <= 1e-12
        grad = optim._gradient(proc, x)
        assert np.abs(grad - simulation_gradient(proc, chi, pi, kind, mu)).max() <= 1e-12
        ref = _reference_gradient(proc, chi, pi, kind, mu)
        assert np.abs(grad - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())


@pytest.mark.parametrize("key,method", [  # Frank-Wolfe leaves the reduced map's Choi set
    (key, method) for key in sorted(FUSED_PROCS) for method in ("subgradient", "frank_wolfe")
    if not (key == "red4" and method == "frank_wolfe")])
def test_one_apply_per_iterate(key, method, monkeypatch):
    proc = FUSED_PROCS[key]
    calls = []
    apply = ProcessorMap.apply_matrix

    def counting(self, pi, blocks=False):
        calls.append(blocks)
        return apply(self, pi, blocks)

    monkeypatch.setattr(ProcessorMap, "apply_matrix", counting)
    run = projected_subgradient if method == "subgradient" else frank_wolfe
    chi = random_choi(2, np.random.default_rng(61)).matrix
    for kind in ("C1", "Cmu", "CF"):
        calls.clear()
        res = run(proc, chi, OptimConfig(max_iters=12, cost_kind=kind, tolerance=0.0))
        assert len(res.cost_trace) == 13
        # the initial program and one per iteration, all in block coordinates
        assert calls == [True] * 13


@pytest.mark.parametrize("method", ["subgradient", "frank_wolfe"])
def test_bell_weights_stay_real(method, monkeypatch):
    # teleportation's Bell weights are one class of 1 x 1 blocks, a real vector:
    # the dual and the projection return it as float64, with no hermitize
    rng = np.random.default_rng(62)
    x = hermitize(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    parts = TELE.dual(x, blocks=True)
    assert [p.dtype for p in parts] == [np.float64]
    assert [s.dtype for s in optim._projection(TELE, parts)] == [np.float64]
    # so an iterate costs two hermitize calls (the apply and the cost table's
    # difference) and one eigh, of the 4 x 4 simulated channel
    herm_calls = count_calls(monkeypatch, hermlin.hermitize)
    eigh_shapes = count_calls(monkeypatch, hermlin._eigh)
    run = projected_subgradient if method == "subgradient" else frank_wolfe
    chi = random_choi(2, rng).matrix
    for kind in ("C1", "Cmu"):
        counts = []
        for iters in (12, 24):
            herm_calls.clear()
            eigh_shapes.clear()
            res = run(TELE, chi, OptimConfig(max_iters=iters, cost_kind=kind, tolerance=0.0))
            assert len(res.cost_trace) == iters + 1
            counts.append((len(herm_calls), len(eigh_shapes), eigh_shapes.count((4, 4))))
        (h12, e12, f12), (h24, e24, f24) = counts
        assert (h24 - h12, e24 - e12, f24 - f12) == (2 * 12, 12, 12)


def test_grad_smoothed_rejects_bad_mu():
    with pytest.raises(ValueError):
        simulation_gradient(TELE, PHI, PHI, "Cmu", -1.0)


def test_convexity_witness():
    rng = np.random.default_rng(36)
    chi_e = random_choi(2, rng).matrix

    def costs(pi):
        sim = TELE.apply_matrix(pi)
        return [
            cost_eval("C1", chi_e, sim),
            cost_eval("CF", chi_e, sim),
            cost_eval("Cmu", chi_e, sim, mu=1e-2),
            cost_eval("Cp", chi_e, sim, p=1.5),
            cost_eval("Cp", chi_e, sim, p=3.0),
        ]

    for _ in range(10):
        a = random_density(4, rng).matrix
        b = random_density(4, rng).matrix
        ca, cb = costs(a), costs(b)
        for t in (0.25, 0.5, 0.75):
            cm = costs(t * a + (1 - t) * b)
            for mix, ca_i, cb_i in zip(cm, ca, cb):
                assert mix <= t * ca_i + (1 - t) * cb_i + 1e-10


# --- projections ----------------------------------------------------------------


def test_project_identity_on_states():
    rng = np.random.default_rng(37)
    rho = random_density(4, rng).matrix
    assert np.abs(project_to_states(rho).matrix - rho).max() <= 1e-12


def test_project_examples_against_grid_oracle():
    x = np.array([0.9, 0.6, -0.1])
    grid = simplex_grid_project(x)
    analytic = _simplex(x, None)
    assert np.abs(grid - analytic).max() <= 3e-3  # grid resolution
    assert np.allclose(analytic, [0.65, 0.35, 0.0], atol=1e-12)
    out = project_to_states(np.diag(x).astype(complex))
    assert np.allclose(np.diag(out.matrix).real, [0.65, 0.35, 0.0], atol=1e-12)

    x2 = np.array([2.0, -1.0])
    assert np.abs(simplex_grid_project(x2) - _simplex(x2, None)).max() <= 3e-3
    out2 = project_to_states(np.diag(x2).astype(complex))
    assert np.allclose(np.diag(out2.matrix).real, [1.0, 0.0], atol=1e-12)

    # no threshold is active on a non-finite input
    for bad in ([np.inf, 0.0], [np.nan, 1.0]):
        with pytest.raises(ValueError, match="project_to_states: no active threshold"):
            _simplex(np.array(bad), None)


def test_simplex_project_of_a_huge_finite_input():
    # the sums of entries from about 2^53 up lose the 1 of every threshold;
    # the projection of x - max(x) is the same and keeps it
    assert np.array_equal(_simplex(np.array([1e16, 0.0]), None), [1.0, 0.0])
    assert np.array_equal(_simplex(np.array([0.0, 1e16]), np.array([2.0, 4.0])), [0.0, 0.25])


@pytest.mark.parametrize("x, counts, expected", [
    # the shift by max(x) overflows, or the sums do: each raised or gave NaN
    ([9.43e307, -9.43e307, -5e307, -5e307], None, [1.0, 0.0, 0.0, 0.0]),
    ([1e308, -1e308], None, [1.0, 0.0]),
    ([1e308, 1e308], None, [0.5, 0.5]),
    ([0.5, -1e308, -1e308], None, [1.0, 0.0, 0.0]),
    ([0.5, -1e308, -1e308], [2, 1, 3], [0.5, 0.0, 0.0]),
], ids=["shift-overflows", "two-entries", "sums-overflow", "sums-underflow", "weighted"])
def test_simplex_projects_every_finite_input(x, counts, expected):
    x = np.array(x)
    counts = None if counts is None else np.array(counts)
    assert np.array_equal(_simplex(x, counts), expected)
    assert np.array_equal(simplex_project_arrays(x, counts), expected)


def test_simplex_project_matches_the_array_oracle():
    # the plain-float thresholds are the array version's cumsums, bit for bit
    rng = np.random.default_rng(71)
    inputs = [(np.array([1e16, 0.0]), None), (np.array([0.0, 1e16]), np.array([2, 4])),
              # the shift by max(x) overflows: it raised at first, and now projects
              (np.array([9.43e307, -9.43e307, -5e307, -5e307]), None)]
    for n in range(1, 65):
        for _ in range(3):
            x = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
            ties = rng.choice([-0.5, 0.0, 0.125, 0.25, 1.0], size=n)  # tied entries
            counts = rng.integers(1, 5, size=n)  # integer copy counts, as PBT's
            inputs += [(x, None), (x, counts), (ties, None), (ties, counts)]
    pbt_counts = pbt_processor(3).block_coords.counts  # copies 1 and 2
    inputs.append((np.full(pbt_counts.size, 1.0 / 64), pbt_counts))  # maximally mixed: all tied
    for x, counts in inputs:
        assert np.array_equal(_simplex(x, counts), simplex_project_arrays(x, counts))
    # the raise path: a NaN or +inf entry
    for bad in ([0.5, np.nan, 0.2], [0.5, np.inf, 0.2]):
        with pytest.raises(ValueError, match="no active threshold"):
            simplex_project_arrays(np.array(bad))
        with pytest.raises(ValueError, match="no active threshold"):
            _simplex(np.array(bad), None)


@pytest.mark.parametrize("x, expected", [
    ([0.5, -np.inf], [1.0, 0.0]),  # the first pass finds the finite threshold
    ([1e308, -np.inf], [1.0, 0.0]),  # only the retry does: it used to raise
    ([-np.inf, 0.25, -np.inf], [0.0, 1.0, 0.0]),
    ([0.5, np.nan], ValueError),
    ([0.5, np.inf], ValueError),
    ([np.nan, -np.inf], ValueError),
    ([-np.inf, -np.inf], ValueError),
], ids=["first-pass", "retry", "middle", "nan", "plus-inf", "nan-minus-inf", "all-minus-inf"])
def test_simplex_minus_inf_entry_is_never_active(x, expected):
    x = np.array(x)
    if expected is ValueError:
        for project in (lambda: _simplex(x, None), lambda: simplex_project_arrays(x)):
            with pytest.raises(ValueError, match="no active threshold"):
                project()
    else:
        assert np.array_equal(_simplex(x, None), expected)
        assert np.array_equal(simplex_project_arrays(x), expected)


def test_projection_firmly_nonexpansive():
    rng = np.random.default_rng(38)
    for _ in range(10):
        x = 2.0 * np.random.default_rng(rng.integers(1 << 30)).normal()  # scale
        h = x * random_traceless_direction(4, rng) + np.eye(4) / 4
        p = project_to_states(h).matrix
        for _ in range(5):
            rho = random_density(4, rng).matrix
            assert np.linalg.norm(p - rho) <= np.linalg.norm(h - rho) + 1e-12


def test_project_to_choi_set():
    rng = np.random.default_rng(39)
    chi = random_choi(2, rng).matrix
    out = project_to_choi_set(chi, 2)
    assert np.abs(out.matrix - chi).max() <= 1e-9  # already feasible

    pert = PHI + 0.1 * random_traceless_direction(4, rng)
    proj = project_to_choi_set(pert, 2)
    marg = partial_trace(proj.matrix, [2, 2], [0])
    assert np.abs(marg - np.eye(2) / 2).max() <= 1e-8
    assert np.linalg.norm(proj.matrix - pert) <= np.linalg.norm(PHI - pert) + 1e-9
    twice = project_to_choi_set(proj.matrix, 2)
    assert np.abs(twice.matrix - proj.matrix).max() <= 1e-9


def test_project_to_choi_set_optimality_on_slice():
    # compare against a fine parameter grid on a commuting two-parameter slice
    rng = np.random.default_rng(40)
    z = np.diag([1.0, -1.0]).astype(complex)
    a = np.kron(z, z)
    b = np.kron(z, np.eye(2))
    x = PHI + 0.07 * a + 0.05 * b
    proj = project_to_choi_set(x, 2).matrix
    best = math.inf
    for u in np.linspace(-0.2, 0.2, 81):
        cand = PHI + u * a  # feasible direction: keeps marginal and PSD (small u)
        if np.linalg.eigvalsh(cand).min() < -1e-12:
            continue
        best = min(best, np.linalg.norm(cand - x))
    assert np.linalg.norm(proj - x) <= best + 1e-6


# --- iterative optimizers --------------------------------------------------------


def test_learning_rate_validation():
    with pytest.raises(ValueError):
        LearningRate("inv_sqrt", a=0.0)
    with pytest.raises(ValueError):
        LearningRate("geometric")
    with pytest.raises(ValueError, match="harmonic b"):
        LearningRate("harmonic", b=-1.0)
    # a non-finite step size used to reach the simplex projection as an IndexError
    for a in (math.inf, math.nan):
        with pytest.raises(ValueError, match="a must be positive and finite"):
            LearningRate("inv_sqrt", a=a)
    for b in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="b must be finite"):
            LearningRate("harmonic", b=b)
    assert LearningRate("harmonic", a=2.0, b=3.0)(1) == 0.5


def test_optim_config_validation():
    with pytest.raises(ValueError):
        OptimConfig(max_iters=0)
    with pytest.raises(ValueError):
        OptimConfig(cost_kind="CR")
    with pytest.raises(ValueError):
        OptimConfig(cost_kind="Cmu", mu=0.0)
    # a NaN tolerance used to run every iteration, and mu = inf to report cost 0
    for tolerance in (math.nan, math.inf):
        with pytest.raises(ValueError, match="tolerance must be finite"):
            OptimConfig(tolerance=tolerance)
    for mu in (math.inf, math.nan):
        with pytest.raises(ValueError, match="mu must be positive and finite"):
            OptimConfig(cost_kind="Cmu", mu=mu)
    # a float max_iters used to pass and fail inside the run, after the first
    # cost; a negative seed was numpy's error under 'random' and ignored otherwise
    for max_iters in (2.5, math.nan, 3.0):
        with pytest.raises(TypeError, match="max_iters and seed must be integers"):
            OptimConfig(max_iters=max_iters)
    for init in ("maximally_mixed", "random"):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            OptimConfig(seed=-1, init=init)
    cfg = OptimConfig(max_iters=np.int64(3), seed=np.int64(0), tolerance=0.0)
    assert len(projected_subgradient(TELE, PHI, cfg).cost_trace) == 4


def test_subgradient_pauli_target():
    # Pauli channels are exactly simulable; the harmonic schedule converges
    # to numerical zero on this instance
    chi_p = choi_of_channel(pauli_channel([0.7, 0.1, 0.1, 0.1])).matrix
    cfg = OptimConfig(max_iters=200, cost_kind="C1", tolerance=0.0,
                      learning_rate=LearningRate("harmonic", a=1.0, b=1.0))
    res = projected_subgradient(TELE, chi_p, cfg)
    assert res.final_cost <= 1e-6


def test_subgradient_rotation_targets():
    for theta in (0.0, math.pi / 2, math.pi):
        chi = choi_of_channel(rotation(theta)).matrix
        res = projected_subgradient(TELE, chi, OptimConfig(max_iters=200))
        assert res.final_cost <= 1e-4
        assert len(res.cost_trace) - 1 <= 200
    chi = choi_of_channel(rotation(math.pi / 4)).matrix
    res = projected_subgradient(TELE, chi, OptimConfig(max_iters=200))
    assert res.final_cost > 1e-2  # strictly positive plateau


def test_subgradient_recovers_feasible_target():
    rng = np.random.default_rng(41)
    pi0 = random_density(4, rng).matrix
    target = TELE.apply_matrix(pi0)
    cfg = OptimConfig(max_iters=200, cost_kind="C1", tolerance=0.0,
                      learning_rate=LearningRate("harmonic", a=1.0, b=1.0))
    res = projected_subgradient(TELE, target, cfg)
    initial = res.cost_trace[0]
    # subgradient progress is instance dependent; near-exact recovery of a
    # feasible target is exercised through the SDP route in test_sdp
    assert res.final_cost <= 1e-2
    assert res.final_cost <= initial
    # iterates remain density matrices and the best trace never increases
    costs = res.cost_trace.tolist()
    assert all(b <= a + 1e-15 for a, b in zip(costs, costs[1:]))
    assert np.isclose(np.trace(res.program.matrix).real, 1.0, atol=1e-10)


def test_subgradient_deterministic_given_seed():
    chi = choi_of_channel(depolarizing(0.4)).matrix
    cfg = OptimConfig(max_iters=40, seed=5, init="random")
    a = projected_subgradient(TELE, chi, cfg)
    b = projected_subgradient(TELE, chi, cfg)
    assert a.final_cost == b.final_cost
    assert np.array_equal(a.program.matrix, b.program.matrix)


def test_frank_wolfe_unitary_mixing_law():
    theta = 0.7
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    u = math.cos(theta) * np.eye(2) + 1j * math.sin(theta) * x
    chi_u = choi_of_channel(unitary_channel(u)).matrix
    fixed = learn_unitary_program(TELE, u).matrix
    pi1 = np.eye(4, dtype=complex) / 4

    # replay the exact iteration and check the closed-form mixture
    pi = pi1.copy()
    for k in range(1, 51):
        g = simulation_gradient(TELE, chi_u, pi, "CF")
        vals, vecs = np.linalg.eigh(hermitize(g))
        v = vecs[:, 0]
        pi = (k / (k + 2)) * pi + (2 / (k + 2)) * np.outer(v, v.conj())
        w = 2.0 / ((k + 1) + (k + 1) ** 2)
        predicted = w * pi1 + (1 - w) * fixed
        assert np.abs(pi - predicted).max() <= 1e-12


def test_frank_wolfe_beats_choi_program_on_depolarizing():
    proc = pbt_processor(2, 2)
    chi_d = choi_of_channel(depolarizing(0.8)).matrix
    res = frank_wolfe(proc, chi_d, OptimConfig(max_iters=200, cost_kind="C1",
                                               tolerance=0.0))
    baseline = cost_eval("C1", chi_d, proc.apply_matrix(np.kron(chi_d, chi_d)))
    assert res.final_cost <= baseline
    costs = res.cost_trace.tolist()
    assert all(b <= a + 1e-15 for a, b in zip(costs, costs[1:]))


def test_frank_wolfe_rejects_choi_domain():
    red = pbt_reduced_map(2, 2)
    with pytest.raises(ValueError, match="Choi"):
        frank_wolfe(red, PHI, OptimConfig(cost_kind="CF"))


def test_subgradient_on_reduced_map_stays_feasible():
    red = pbt_reduced_map(2, 2)
    chi_a = choi_of_channel(depolarizing(0.5)).matrix
    res = projected_subgradient(red, chi_a, OptimConfig(max_iters=60, cost_kind="C1"))
    assert isinstance(res.program, DensityMatrix)
    marg = partial_trace(res.program.matrix, [2, 2], [0])
    assert np.abs(marg - np.eye(2) / 2).max() <= 1e-8
    baseline = cost_eval("C1", chi_a, red.apply_matrix(chi_a))
    assert res.final_cost <= baseline + 1e-12


def test_first_order_program_keeps_its_domain_type():
    red = pbt_reduced_map(3, 2)
    chi = choi_of_channel(depolarizing(0.5)).matrix
    # the last target is the initial program's own output, so that program stays the best
    for target in (chi, red.apply_matrix(np.eye(4) / 4)):
        for init in ("maximally_mixed", "random"):
            cfg = OptimConfig(max_iters=5, cost_kind="C1", init=init)
            assert type(projected_subgradient(red, target, cfg).program) is ChoiMatrix
            for run in (projected_subgradient, frank_wolfe):
                assert type(run(TELE, target, cfg).program) is DensityMatrix


def test_optim_result_invariants():
    chi = choi_of_channel(rotation(0.3)).matrix
    res = projected_subgradient(TELE, chi, OptimConfig(max_iters=30))
    assert len(res.cost_trace) >= 1
    assert res.final_cost == res.cost_trace[-1]


@pytest.mark.parametrize("key,method", [("tele", "subgradient"), ("tele", "frank_wolfe"),
                                        ("red2", "subgradient")])
def test_cost_trace_is_one_read_only_float_array(key, method, monkeypatch):
    # entry i is the best cost after iteration i, entry 0 the initial program's,
    # so a run that stops on the stall rule has one entry per apply
    proc = TELE if key == "tele" else pbt_reduced_map(2)
    run = projected_subgradient if method == "subgradient" else frank_wolfe
    chi = choi_of_channel(depolarizing(0.3)).matrix
    calls, apply = [], ProcessorMap.apply_matrix

    def counting(self, pi, blocks=False):
        calls.append(blocks)
        return apply(self, pi, blocks)

    monkeypatch.setattr(ProcessorMap, "apply_matrix", counting)
    for cfg in (OptimConfig(max_iters=30, tolerance=0.0), OptimConfig(max_iters=2000)):
        calls.clear()
        res = run(proc, chi, cfg)
        trace = res.cost_trace
        assert type(trace) is np.ndarray and trace.dtype == np.float64 and trace.ndim == 1
        assert trace.flags.owndata and not trace.flags.writeable
        assert len(trace) == len(calls) <= cfg.max_iters + 1
        assert res.final_cost == trace[-1]
        with pytest.raises(ValueError, match="read-only"):
            trace[0] = 0.0
    assert res.converged and len(trace) < 2001  # the stall rule stopped the second run


def test_first_order_result_retains_little_memory():
    # 201 floats and a 4 x 4 program: 2.9 KB measured (CPython 3.11, numpy 2.4);
    # the (iteration, cost) pairs this array replaced retained 14.3 KB
    chi = choi_of_channel(rotation(0.3)).matrix
    cfg = OptimConfig(max_iters=200, cost_kind="C1", tolerance=0.0)
    projected_subgradient(TELE, chi, cfg)  # warm-up: the processor's lazy caches
    gc.collect()
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = projected_subgradient(TELE, chi, cfg)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(res.cost_trace) == 201
    assert retained <= 4096, retained


def test_learn_unitary_teleportation_unitaries():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    prog = learn_unitary_program(TELE, x)
    chi_x = choi_of_channel(unitary_channel(x)).matrix
    assert np.abs(prog.matrix - chi_x).max() <= 1e-10
    assert np.isclose(cost_eval("F", chi_x, TELE.apply_matrix(prog.matrix)), 1.0,
                      atol=1e-9)

    u = rotation(math.pi / 2).kraus_ops[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # covariant target has a flat optimum
        prog = learn_unitary_program(TELE, u)
    chi_u = choi_of_channel(unitary_channel(u)).matrix
    assert np.isclose(cost_eval("F", chi_u, TELE.apply_matrix(prog.matrix)), 1.0,
                      atol=1e-9)


def test_learn_unitary_self_consistent_fidelity():
    theta = 0.3
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    u = math.cos(theta) * np.eye(2) + 1j * math.sin(theta) * x
    chi_u = choi_of_channel(unitary_channel(u)).matrix
    prog = learn_unitary_program(TELE, u)
    top = float(np.linalg.eigvalsh(hermitize(TELE.dual(chi_u))).max())
    f = cost_eval("F", chi_u, TELE.apply_matrix(prog.matrix))
    assert np.isclose(f * f, top, atol=1e-9)


def test_learn_unitary_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        learn_unitary_program(TELE, np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_pqc_subgradient_improves():
    proc = pqc_processor(2)
    chi_a = choi_of_channel(depolarizing(0.5)).matrix
    res = projected_subgradient(proc, chi_a, OptimConfig(max_iters=80, cost_kind="Cmu",
                                                         mu=1e-2))
    assert res.final_cost <= res.cost_trace[0]


@pytest.mark.parametrize("case", ["non_hermitian", "shape", "inf", "nan"])
@pytest.mark.parametrize("kind", ["C1", "Cmu", "CF"])
def test_first_order_target_is_checked_once(case, kind):
    chi = choi_of_channel(depolarizing(0.5)).matrix.copy()
    if case == "non_hermitian":
        chi[0, 1] += 0.1
    elif case == "shape":
        chi = chi[:3, :3]
    else:
        chi[1, 1] = np.inf if case == "inf" else np.nan
    match = {"non_hermitian": "chi_target: matrix is not Hermitian",
             "shape": r"chi_target: shape \(3, 3\), expected \(4, 4\)",
             "inf": "chi_target: entries must be finite",
             "nan": "chi_target: entries must be finite"}[case]
    cfg = OptimConfig(max_iters=5, cost_kind=kind)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in (projected_subgradient, frank_wolfe):
            with pytest.raises(ValueError, match=match):
                run(TELE, chi, cfg)
        with pytest.raises(ValueError, match=match):
            simulation_cost(TELE, chi, np.eye(4) / 4, kind)


# final_cost of 20 iterations, recorded before the iterates became plain arrays
FIRST_ORDER_PINS = {
    ("tele", "subgradient", "C1"): 0.61485411005943,
    ("tele", "frank_wolfe", "C1"): 0.6202965309277906,
    ("tele", "subgradient", "Cmu"): 0.6550610651250027,
    ("tele", "frank_wolfe", "Cmu"): 0.6594851825169358,
    ("tele", "subgradient", "CF"): 0.1465870629135274,
    ("tele", "frank_wolfe", "CF"): 0.14680982608925852,
    ("pbt2", "subgradient", "C1"): 0.4999827511476558,
    ("pbt2", "frank_wolfe", "C1"): 0.1805286560129753,
    ("pbt2", "subgradient", "Cmu"): 0.4620043613891076,
    ("pbt2", "frank_wolfe", "Cmu"): 0.11314646688567195,
    ("pbt2", "subgradient", "CF"): 0.043800562950184196,
    ("pbt2", "frank_wolfe", "CF"): 0.03413201104987351,
    ("pqc3", "subgradient", "C1"): 0.42070463770304545,
    ("pqc3", "frank_wolfe", "C1"): 0.17397082711205922,
    ("pqc3", "subgradient", "Cmu"): 0.4588157144099694,
    ("pqc3", "frank_wolfe", "Cmu"): 0.3042422767254902,
    ("pqc3", "subgradient", "CF"): 0.021032860929171893,
    ("pqc3", "frank_wolfe", "CF"): 0.024394703276690688,
    ("red2", "subgradient", "C1"): 0.5638602646401373,
    ("red2", "subgradient", "Cmu"): 0.3523348988583742,
    ("red2", "subgradient", "CF"): 0.11323418154519982,
}


def test_first_order_path_is_pinned():
    procs = {"tele": TELE, "pbt2": pbt_processor(2), "pqc3": pqc_processor(3),
             "red2": pbt_reduced_map(2)}
    runs = {"subgradient": projected_subgradient, "frank_wolfe": frank_wolfe}
    for (key, method, kind), pinned in FIRST_ORDER_PINS.items():
        i, j = list(procs).index(key), ("C1", "Cmu", "CF").index(kind)
        chi = random_choi(2, np.random.default_rng(100 + 10 * i + j)).matrix
        res = runs[method](procs[key], chi,
                           OptimConfig(max_iters=20, cost_kind=kind, tolerance=0.0))
        for value in (res.final_cost, res.cost_trace[-1]):
            assert abs(value - pinned) <= 1e-12 * pinned, (key, method, kind)


@pytest.mark.parametrize("key,method", [("tele", "subgradient"), ("tele", "frank_wolfe"),
                                        ("red2", "subgradient")])
def test_first_order_validates_one_program_per_run(key, method, monkeypatch):
    proc = TELE if key == "tele" else pbt_reduced_map(2)
    run = projected_subgradient if method == "subgradient" else frank_wolfe
    chi = choi_of_channel(depolarizing(0.3)).matrix
    calls = []
    post_init = DensityMatrix.__post_init__

    def counting(self):
        calls.append(type(self))
        post_init(self)

    monkeypatch.setattr(DensityMatrix, "__post_init__", counting)
    res = run(proc, chi, OptimConfig(max_iters=30, init="maximally_mixed", tolerance=0.0))
    assert len(res.cost_trace) == 31
    assert calls == [type(res.program)]
    assert type(res.program) is (ChoiMatrix if key == "red2" else DensityMatrix)


def _infeasible_blocks(key):
    """A processor, block coordinates of a program of trace 1 and lambda_min = -1e-6
    (Bell weights on teleportation; on the reduced map the marginal stays I/2) and
    the target that program simulates exactly."""
    proc = TELE if key == "tele" else pbt_reduced_map(2)
    bad = ([np.array([0.4, 0.3, 0.3 + 1e-6, -1e-6], dtype=complex).reshape(4, 1, 1)]
           if key == "tele" else
           [(np.eye(4) / 4 + (0.25 + 1e-6) * np.diag([1.0, -1.0, -1.0, 1.0]))[None] + 0j])
    return proc, bad, hermitize(proc.apply_matrix(bad, blocks=True))


@pytest.mark.parametrize("key", ["tele", "red2"])
def test_first_order_returned_program_is_still_checked(key, monkeypatch):
    proc, bad, chi = _infeasible_blocks(key)
    # the bad program simulates the target exactly, so it becomes the best iterate
    monkeypatch.setattr(optim, "_projection", lambda proc, x: bad)
    with pytest.raises(ValueError, match="min eigenvalue -1.000e-06"):
        projected_subgradient(proc, chi, OptimConfig(max_iters=3, cost_kind="C1"))


@pytest.mark.parametrize("key", ["tele", "red2"])
def test_sdp_returned_program_is_still_checked(key, monkeypatch):
    # the SDP recovery projects the solved blocks by the same step, so its
    # program is validated where the first-order methods' is
    proc, bad, chi = _infeasible_blocks(key)
    monkeypatch.setattr(sdp, "_projection", lambda proc, x: bad)
    with pytest.raises(ValueError, match="min eigenvalue -1.000e-06"):
        sdp.optimize_program_trace(proc, chi)


# --- block coordinates against the dense loop -----------------------------------

DENSE_PROCS = {"tele": TELE, "pbt2": pbt_processor(2), "pqc3": pqc_processor(3),
               "pbt3": pbt_processor(3)}
RUNS = {"subgradient": projected_subgradient, "frank_wolfe": frank_wolfe}


@pytest.mark.parametrize("key", list(DENSE_PROCS))
@pytest.mark.parametrize("method", sorted(RUNS))
@pytest.mark.parametrize("kind", ["C1", "Cmu", "CF"])
def test_block_loop_matches_the_dense_loop(key, method, kind):
    # the targets of FIRST_ORDER_PINS, with PBT N=3 after them; measured worst
    # 1.2e-13 over these 24 runs.  CF = 1 - F^2 is rounded on the scale of F^2,
    # so its differences are relative to 1
    proc = DENSE_PROCS[key]
    i, j = list(DENSE_PROCS).index(key), ("C1", "Cmu", "CF").index(kind)
    chi = random_choi(2, np.random.default_rng(100 + 10 * i + j)).matrix
    cfg = OptimConfig(max_iters=60, cost_kind=kind, tolerance=0.0)
    res = RUNS[method](proc, chi, cfg)
    trace, _ = dense_first_order(proc, chi, cfg, method)
    assert list(range(len(res.cost_trace))) == [it for it, _ in trace]
    for got, (_, want) in zip(res.cost_trace.tolist(), trace):
        scale = 1.0 if kind == "CF" else abs(want)
        assert abs(got - want) <= 1e-12 * scale, (got, want)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["C1", "Cmu", "CF"])
def test_reduced_map_loop_is_bit_identical_to_the_dense_loop(n, kind):
    proc = pbt_reduced_map(n)
    chi = random_choi(2, np.random.default_rng(230 + n)).matrix
    cfg = OptimConfig(max_iters=30, cost_kind=kind, tolerance=0.0)
    res = projected_subgradient(proc, chi, cfg)
    trace, best = dense_first_order(proc, chi, cfg, "subgradient")
    assert tuple(enumerate(res.cost_trace.tolist())) == trace
    assert np.array_equal(res.program.matrix, hermitize(best))


@pytest.mark.parametrize("call, match", [
    (lambda: simulation_cost(TELE, PHI, np.eye(4) / 4, "C2"), "simulation_cost: unknown kind"),
    (lambda: learn_unitary_program(TELE, np.eye(3)), r"unitary shape \(3, 3\), expected"),
    # a ValueError naming the fault, not LinAlgError's "Eigenvalues did not converge"
    (lambda: learn_unitary_program(TELE, np.diag([np.nan, 1.0])), "entries must be finite"),
    # and not LinAlgError's "Eigenvalues did not converge" or numpy's broadcast error
    (lambda: project_to_states(np.full((4, 4), np.nan)), "project_to_states: entries must be finite"),
    (lambda: project_to_states(np.ones((2, 3))),
     r"project_to_states: expected a square matrix, got shape \(2, 3\)"),
], ids=["cost-kind", "unitary-shape", "unitary-nan", "states-nan", "states-not-square"])
def test_optim_rejects_malformed_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("x, d, match", [
    # each raised LinAlgError's "Eigenvalues did not converge", or ran with
    # RuntimeWarnings, or was checked only inside the projection
    (np.full((4, 4), np.nan), 2, "entries must be finite"),
    (np.full((4, 4), np.inf), 2, "entries must be finite"),
    (np.eye(9) / 9, 2, r"shape \(9, 9\), expected \(4, 4\)"),
    (np.ones((4, 2)), 2, r"expected a square matrix, got shape \(4, 2\)"),
    (np.eye(1), 0, "need d >= 1, got d=0"),
], ids=["nan", "inf", "shape", "not-square", "d-zero"])
def test_project_to_choi_set_checks_its_input_before_any_eigh(monkeypatch, x, d, match):
    eighs = count_calls(monkeypatch, hermlin._eigh)
    with pytest.raises(ValueError, match="project_to_choi_set: " + match):
        project_to_choi_set(x, d)
    assert eighs == []
