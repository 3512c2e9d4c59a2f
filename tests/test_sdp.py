import math

import numpy as np
import pytest

from qprogopt.channels import (
    choi_of_channel,
    amplitude_damping,
    cost_eval,
    depolarizing,
    max_entangled,
    pauli_channel,
    rotation,
    trace_distance_cost,
    unitary_channel,
)
from qprogopt.hermlin import partial_trace
from qprogopt.optim import learn_unitary_program
from qprogopt.processors import (
    pbt_processor,
    pbt_reduced_map,
    teleportation_processor,
)
from qprogopt.rand import random_choi, random_density
from qprogopt.sdp import (
    SdpProblem,
    diamond_distance,
    hermitian_basis,
    optimize_choi_diamond,
    optimize_program_diamond,
    optimize_program_fidelity,
    optimize_program_trace,
    solve_sdp,
    trace_norm_via_sdp,
)

from oracles import admm_baseline, diamond_grid_oracle, random_sdp

TELE = teleportation_processor(2)
PHI = max_entangled(2).matrix


def test_hermitian_basis_orthonormal():
    basis = hermitian_basis(3)
    assert basis.shape == (9, 3, 3)
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            ip = np.trace(a.conj().T @ b).real
            assert np.isclose(ip, 1.0 if i == j else 0.0, atol=1e-12)
    # element order: the diagonal units, then for each k < l (row-major) the
    # real and the imaginary off-diagonal pair
    ref = [np.diag(np.eye(3)[k]) for k in range(3)]
    for k in range(3):
        for l in range(k + 1, 3):
            for w in (1.0, 1j):
                e = np.zeros((3, 3), dtype=complex)
                e[k, l], e[l, k] = w / math.sqrt(2.0), np.conj(w) / math.sqrt(2.0)
                ref.append(e)
    assert np.array_equal(basis, np.array(ref))


def _diag_example_parts():
    """min Tr X s.t. X_00 = X_11 = 1, one 2 x 2 block: (objective, constraints, rhs)."""
    return [np.eye(2)], [np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])], [1.0, 1.0]


def test_solve_sdp_diag_example():
    prob = SdpProblem(*_diag_example_parts())
    assert prob.block_dims == [2]
    sol = solve_sdp(prob)
    assert sol.status == "optimal"
    assert abs(sol.primal_objective - 2.0) <= 1e-6
    assert sol.gap <= 1e-6


def test_solve_sdp_weak_duality_when_feasible():
    rng = np.random.default_rng(51)
    prob = random_sdp(rng)
    sol = solve_sdp(prob)
    assert sol.status == "optimal"
    # once both residuals are small, the primal objective of this
    # minimization dominates the dual one up to the residual scale
    for pobj, dobj, rp, rd, _mu in sol.history:
        if rp <= 1e-7 and rd <= 1e-7:
            assert pobj >= dobj - 1e-6


def test_solve_sdp_matches_first_order_baseline():
    rng = np.random.default_rng(52)
    for _ in range(10):
        prob = random_sdp(rng, block_dims=(3, 2), m=4)
        sol = solve_sdp(prob)
        assert sol.status == "optimal"
        ref = admm_baseline(prob)
        assert abs(sol.primal_objective - ref) <= 1e-6 * max(1.0, abs(ref))


@pytest.mark.parametrize("case", ["block_count", "stack_vs_objective", "stack_vs_rhs",
                                  "non_hermitian"])
def test_sdp_problem_rejects_malformed_input(case):
    objective, constraints, rhs = _diag_example_parts()
    if case == "block_count":
        constraints, match = constraints * 2, "2 constraint stacks for 1 blocks"
    elif case == "stack_vs_objective":
        constraints, match = [np.zeros((2, 3, 3))], r"constraints, block 0: shape \(2, 3, 3\)"
    elif case == "stack_vs_rhs":
        rhs, match = rhs + [1.0], r"constraints, block 0: shape \(2, 2, 2\)"
    else:
        constraints[0][1, 0, 1] = 0.5  # constraint 1 loses its symmetry
        match = "constraint 1, block 0 is not Hermitian"
    with pytest.raises(ValueError, match=match):
        SdpProblem(objective, constraints, rhs)


@pytest.mark.parametrize("case", ["block_without_constraints"])
def test_solve_sdp_blocks_missing_from_constraints(case):
    base = random_sdp(np.random.default_rng(53), block_dims=(4, 3), m=5)
    # zero block 1 in constraints 0, 2 and 4, and take the right-hand sides
    # at X = I so the problem stays strictly feasible; the trailing trace row
    # keeps the dual strictly feasible
    stacks = [a.copy() for a in base.constraints]
    stacks[1][[0, 2, 4]] = 0.0
    rhs = sum(np.trace(a, axis1=1, axis2=2) for a in stacks)
    ref = solve_sdp(SdpProblem(base.objective, stacks, rhs))
    assert ref.status == "optimal"
    # a block with a positive definite cost and no constraint entries sits at X = 0
    extra = np.array([[2.0, 0.5], [0.5, 1.0]])
    sol = solve_sdp(SdpProblem(base.objective + [extra],
                               stacks + [np.zeros((rhs.size, 2, 2))], rhs))
    assert sol.status == "optimal"
    assert abs(sol.primal_objective - ref.primal_objective) <= 1e-7 * max(
        1.0, abs(ref.primal_objective))


def test_solve_sdp_detects_infeasible():
    prob = SdpProblem(objective=[np.zeros((2, 2))], constraints=[np.eye(2)[None]], rhs=[-1.0])
    sol = solve_sdp(prob, max_iters=200)
    assert sol.status in ("infeasible", "max_iter")
    assert sol.status != "optimal"


def test_solve_sdp_hermitian_blocks():
    # min <Y, X0> + <diag(1, 2), X1> s.t. Tr X0 = Tr X1 = 1: X0 is the -1
    # eigenprojector of Pauli Y, and the real block X1 stays real
    pauli_y = np.array([[0, -1j], [1j, 0]])
    eye, zero = np.eye(2), np.zeros((2, 2))
    prob = SdpProblem(
        objective=[pauli_y, np.diag([1.0, 2.0])],
        constraints=[np.array([eye, zero]), np.array([zero, eye])],
        rhs=[1.0, 1.0],
    )
    sol = solve_sdp(prob)
    assert sol.status == "optimal"
    assert abs(sol.primal_objective) <= 1e-7
    x0, x1 = sol.primal_blocks
    assert np.abs(x0 - np.array([[0.5, 0.5j], [-0.5j, 0.5]])).max() <= 1e-6
    assert x1.dtype == np.float64
    assert np.abs(x1 - np.diag([1.0, 0.0])).max() <= 1e-6


@pytest.mark.parametrize("seed, block_dims", [(3104, (3, 2)), (9034, (2, 2, 2))])
def test_solve_sdp_divergence_keeps_best_iterate(seed, block_dims):
    # these strictly feasible instances stall and then blow up; without a
    # Farkas ray that must not be reported as infeasibility
    prob = random_sdp(np.random.default_rng(seed), block_dims=block_dims, m=7)
    sol = solve_sdp(prob)
    assert sol.status != "infeasible"
    ref = admm_baseline(prob)
    assert abs(sol.primal_objective - ref) <= 1e-6 * max(1.0, abs(ref))


def test_trace_norm_program():
    val = trace_norm_via_sdp(np.diag([1.0, -2.0]).astype(complex))
    assert abs(val - 3.0) <= 1e-6


# --- diamond distance -----------------------------------------------------------


def test_diamond_zero_map():
    assert diamond_distance(np.zeros((4, 4)), 2) == 0.0


def test_diamond_equal_channels():
    chi = choi_of_channel(amplitude_damping(0.35)).matrix
    assert diamond_distance(chi - chi, 2) <= 1e-9


def test_diamond_against_closed_form_depolarizing():
    chi_i = PHI
    for q in (0.2, 0.5, 0.9):
        chi_d = choi_of_channel(depolarizing(q)).matrix
        val = diamond_distance(chi_i - chi_d, 2)
        assert abs(val - 1.5 * q) <= 1e-6


def test_diamond_against_grid_oracle():
    rng = np.random.default_rng(53)
    pairs = [
        (choi_of_channel(amplitude_damping(0.0)).matrix,
         choi_of_channel(amplitude_damping(1.0)).matrix),
        (choi_of_channel(amplitude_damping(0.3)).matrix,
         choi_of_channel(dephasing_like(0.25)).matrix),
        (random_choi(2, rng).matrix, random_choi(2, rng).matrix),
    ]
    for a, b in pairs:
        sdp_val = diamond_distance(a - b, 2)
        oracle = diamond_grid_oracle(a - b)
        assert abs(sdp_val - oracle) <= 1e-3
        assert sdp_val >= oracle - 1e-6  # the SDP upper-bounds any input state


def dephasing_like(p):
    from qprogopt.channels import dephasing

    return dephasing(p)


def test_diamond_symmetric_and_definite():
    rng = np.random.default_rng(54)
    a = random_choi(2, rng).matrix
    b = random_choi(2, rng).matrix
    v1 = diamond_distance(a - b, 2)
    v2 = diamond_distance(b - a, 2)
    assert abs(v1 - v2) <= 1e-6
    assert v1 > 1e-3  # distinct random channels
    assert diamond_distance(a - a, 2) <= 1e-9


def test_diamond_warns_on_trace():
    with pytest.warns(UserWarning, match="traceless"):
        diamond_distance(np.eye(4) * 0.25, 2)


def test_diamond_sandwich_random_instances():
    rng = np.random.default_rng(55)
    for _ in range(5):
        a = random_choi(2, rng).matrix
        b = random_choi(2, rng).matrix
        c1 = trace_distance_cost(a, b)
        cd = diamond_distance(a - b, 2)
        assert c1 <= cd + 1e-7
        assert cd <= 2.0 * c1 + 1e-7


# --- program optimization ---------------------------------------------------------


def test_pauli_targets_are_exact():
    rng = np.random.default_rng(56)
    probs = rng.dirichlet(np.ones(4))
    chi_p = choi_of_channel(pauli_channel(probs)).matrix
    _, v1 = optimize_program_trace(TELE, chi_p)
    assert v1 <= 1e-6
    _, vd = optimize_program_diamond(TELE, chi_p)
    assert vd <= 1e-6
    _, vf = optimize_program_fidelity(TELE, chi_p)
    assert vf >= 1.0 - 1e-6


def test_optimize_trace_value_consistency():
    chi_a = choi_of_channel(amplitude_damping(0.5)).matrix
    prog, val = optimize_program_trace(TELE, chi_a)
    # the reported value is the cost at the returned (feasible) program
    again = cost_eval("C1", chi_a, TELE.apply_matrix(prog.matrix))
    assert abs(val - again) <= 1e-12
    baseline = cost_eval("C1", chi_a, TELE.apply_matrix(chi_a))
    assert val <= baseline + 1e-8


def test_cross_formulation_coherence():
    chi_a = choi_of_channel(amplitude_damping(0.5)).matrix
    prog1, v1 = optimize_program_trace(TELE, chi_a)
    progd, vd = optimize_program_diamond(TELE, chi_a)
    c1_at_d = cost_eval("C1", chi_a, TELE.apply_matrix(progd.matrix))
    cd_at_1 = diamond_distance(chi_a - TELE.apply_matrix(prog1.matrix), 2)
    assert v1 <= c1_at_d + 1e-6
    assert vd <= cd_at_1 + 1e-6
    assert v1 <= vd + 1e-7 and vd <= 2 * v1 + 1e-7


def test_optimize_fidelity_matches_eigenvector_route():
    theta = math.pi / 4
    u = rotation(theta).kraus_ops[0]
    chi_u = choi_of_channel(unitary_channel(u)).matrix
    _, f_sdp = optimize_program_fidelity(TELE, chi_u)
    with pytest.warns(UserWarning, match="degenerate"):
        prog = learn_unitary_program(TELE, u)
    f_eig = cost_eval("F", chi_u, TELE.apply_matrix(prog.matrix))
    assert abs(f_sdp - f_eig) <= 1e-6


def test_optimize_fidelity_achievable_target():
    rng = np.random.default_rng(57)
    pi0 = random_density(4, rng).matrix
    target = TELE.apply_matrix(pi0)
    _, f = optimize_program_fidelity(TELE, target)
    assert f >= 1.0 - 1e-6


def test_recover_feasible_target_via_sdp():
    rng = np.random.default_rng(58)
    pi0 = random_density(4, rng).matrix
    target = TELE.apply_matrix(pi0)
    _, val = optimize_program_trace(TELE, target)
    assert val <= 1e-6


def test_optimize_choi_diamond_identity():
    prev = math.inf
    for n in (2, 3):
        chi, val = optimize_choi_diamond(n, 2, PHI)
        marg = partial_trace(chi.matrix, [2, 2], [0])
        assert np.abs(marg - np.eye(2) / 2).max() <= 1e-8
        assert val <= 4.0 / n + 1e-6
        assert val <= prev + 1e-9
        prev = val
        # for the identity target the optimal Choi program is the
        # maximally entangled state itself
        fixed = diamond_distance(PHI - pbt_reduced_map(n, 2).apply_matrix(PHI), 2)
        assert val <= fixed + 1e-6
        assert abs(np.vdot(chi.matrix, PHI).real - 1.0) <= 0.05 or val <= fixed + 1e-6


def test_optimize_fidelity_monotone_in_ports():
    prev = -math.inf
    for n in (2, 3, 4, 5):
        red = pbt_reduced_map(n, 2)
        _, f = optimize_program_fidelity(red, PHI)
        assert f >= prev - 1e-7
        prev = f
    assert prev > 0.85  # five-port identity simulation is already good


def test_optimize_choi_beats_target_choi_program():
    # amplitude damping: the optimal Choi program beats chi_E itself
    chi_a = choi_of_channel(amplitude_damping(0.5)).matrix
    red = pbt_reduced_map(3, 2)
    chi, val = optimize_choi_diamond(3, 2, chi_a)
    at_choi = diamond_distance(chi_a - red.apply_matrix(chi_a), 2)
    assert val < at_choi - 1e-3


def test_reduced_n1_output_independent_of_correlations():
    # one-port protocol traces the input: only the program's output marginal
    # matters, so the optimum equals the distance to the best
    # trace-and-replace channel
    rng = np.random.default_rng(59)
    red = pbt_reduced_map(1, 2)
    chi_a = choi_of_channel(amplitude_damping(0.3)).matrix
    chi1 = random_choi(2, rng).matrix
    # the output depends on the program's output marginal only
    out1 = red.apply_matrix(chi1)
    expected = np.kron(np.eye(2) / 2, partial_trace(chi1, [2, 2], [1]))
    assert np.abs(out1 - expected).max() <= 1e-10
    _, val = optimize_choi_diamond(1, 2, chi_a)
    # brute-force over replacement states on a Bloch grid
    best = math.inf
    for x in np.linspace(-1, 1, 21):
        for z in np.linspace(-1, 1, 21):
            if x * x + z * z > 1:
                continue
            rho = 0.5 * np.array([[1 + z, x], [x, 1 - z]], dtype=complex)
            cand = np.kron(np.eye(2) / 2, rho)
            best = min(best, diamond_distance(chi_a - cand, 2))
    assert val <= best + 1e-3


def test_pbt_unitary_targets_share_one_error():
    # relabeling ports by the target unitary turns any unitary simulation
    # into an identity simulation, so the optimal error cannot depend on
    # which unitary is being simulated
    proc = pbt_processor(2, 2)
    values = []
    for theta in (0.0, 0.5, 1.1):
        chi_u = choi_of_channel(rotation(theta)).matrix
        _, val = optimize_program_trace(proc, chi_u)
        values.append(val)
    assert max(values) - min(values) <= 1e-6


def test_sdp_handles_full_pbt_program():
    proc = pbt_processor(2, 2)
    chi_d = choi_of_channel(depolarizing(0.75)).matrix
    _, val = optimize_program_diamond(proc, chi_d)
    assert val <= 1e-6  # above the two-port threshold


def test_optimize_program_warns_not_failed(tmp_path):
    # sanity: optimal status reached on a tiny instance without warnings
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        optimize_program_trace(TELE, choi_of_channel(dephasing_like(0.3)).matrix)
