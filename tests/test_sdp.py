import dataclasses
import functools
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
    unitary_channel,
)
from qprogopt.hermlin import hermitize, partial_trace
from qprogopt.optim import learn_unitary_program
from qprogopt.processors import (
    ProcessorMap,
    mpqc_processor,
    pbt_processor,
    pbt_reduced_map,
    pqc_processor,
    teleportation_processor,
)
from qprogopt import processors, sdp
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
)

from oracles import (
    admm_baseline,
    diamond_grid_oracle,
    facial_reduction,
    program_terms,
    random_sdp,
)

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
    """min Tr X s.t. X_00 = X_11 = 1, one 2 x 2 block: (objective, constraints),
    the constraints as one group."""
    rows = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    return [np.eye(2)], [({0: rows}, [1.0, 1.0])]


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
                                  "non_hermitian", "nan_rhs", "nan_objective",
                                  "inf_constraint", "block_out_of_range",
                                  "rows_vs_group_rhs", "rhs_2d", "objective_shape"])
def test_sdp_problem_rejects_malformed_input(case):
    objective, [(terms, rhs)] = _diag_example_parts()
    rows = terms[0]
    constraints = [(terms, rhs)]
    if case == "nan_rhs":
        rhs[1], match = np.nan, "rhs has a non-finite entry"
    elif case == "nan_objective":
        objective[0][1, 1], match = np.nan, "objective, block 0 has a non-finite entry"
    elif case == "inf_constraint":
        rows[1, 0, 0] = np.inf
        match = "constraint 1, block 0 has a non-finite entry"
    elif case == "block_count":
        terms[1], match = rows, "group 0 names block 1 of 1"
    elif case == "block_out_of_range":
        # a negative index would silently name the last block
        constraints, match = [({-1: rows}, rhs)], "group 0 names block -1 of 1"
    elif case == "stack_vs_objective":
        terms[0], match = np.zeros((2, 3, 3)), r"group 0, block 0: shape \(2, 3, 3\)"
    elif case == "stack_vs_rhs":
        rhs.append(1.0)
        match = r"group 0, block 0: shape \(2, 2, 2\), expected \(3, 2, 2\)"
    elif case == "rows_vs_group_rhs":
        # a second group carrying every row of the problem, as a dense stack would
        constraints = [({0: rows[:1]}, rhs[:1]), ({0: rows}, rhs[1:])]
        match = r"group 1, block 0: shape \(2, 2, 2\), expected \(1, 2, 2\)"
    elif case == "rhs_2d":
        constraints, match = [(terms, [rhs])], r"group 0: rhs has shape \(1, 2\), expected \(k,\)"
    elif case == "objective_shape":
        objective, match = [np.ones((2, 3))], r"objective, block 0: shape \(2, 3\)"
    else:
        rows[1, 0, 1] = 0.5  # constraint 1 loses its symmetry
        match = "constraint 1, block 0 is not Hermitian"
    with pytest.raises(ValueError, match=match):
        SdpProblem(objective, constraints)


def test_sdp_problem_rejects_the_non_finite_scalar_problem():
    # used to run one iteration from X = I and return status "breakdown"
    with pytest.raises(ValueError, match="rhs has a non-finite entry"):
        solve_sdp(SdpProblem([np.eye(2)], [({0: np.eye(2)[None]}, [np.nan])]))


@pytest.mark.parametrize("case", ["block_without_constraints"])
def test_solve_sdp_blocks_missing_from_constraints(case):
    base = random_sdp(np.random.default_rng(53), block_dims=(4, 3), m=5)
    # zero block 1 in constraints 0, 2 and 4, and take the right-hand sides
    # at X = I so the problem stays strictly feasible; the trailing trace row
    # keeps the dual strictly feasible
    [(terms, _)] = base.constraints
    terms = {b: a.copy() for b, a in terms.items()}
    terms[1][[0, 2, 4]] = 0.0
    rhs = sum(np.trace(a, axis1=1, axis2=2) for a in terms.values())
    ref = solve_sdp(SdpProblem(base.objective, [(terms, rhs)]))
    assert ref.status == "optimal"
    # a block with a positive definite cost that no group names sits at X = 0
    extra = np.array([[2.0, 0.5], [0.5, 1.0]])
    sol = solve_sdp(SdpProblem(base.objective + [extra], [(terms, rhs)]))
    assert sol.status == "optimal"
    assert abs(sol.primal_objective - ref.primal_objective) <= 1e-7 * max(
        1.0, abs(ref.primal_objective))


def test_solve_sdp_without_constraints():
    # min Tr X over X >= 0 alone: the solver runs X to 0 with no rows at all
    sol = solve_sdp(SdpProblem([np.eye(2)], []))
    assert (sol.status, sol.iterations) == ("optimal", 6)
    assert 0.0 < sol.primal_objective <= 1e-8
    assert sol.dual_vector.shape == (0,)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_solve_sdp_rejects_bad_tol(tol):
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        solve_sdp(SdpProblem(*_diag_example_parts()), tol=tol)


def test_solve_sdp_detects_infeasible():
    prob = SdpProblem(objective=[np.zeros((2, 2))], constraints=[({0: np.eye(2)[None]}, [-1.0])])
    sol = solve_sdp(prob)
    assert sol.status in ("infeasible", "max_iter")
    assert sol.status != "optimal"


def _unbounded_examples():
    """min -X00 + X11 s.t. X11 = 1 (X00 grows without bound), and min -Tr X over
    3 x 3 blocks with X01 + X10 = 0 (any diagonal X)."""
    off = np.zeros((3, 3))
    off[0, 1] = off[1, 0] = 1.0
    return [SdpProblem(objective=[np.diag([-1.0, 1.0])],
                       constraints=[({0: np.diag([0.0, 1.0])[None]}, [1.0])]),
            SdpProblem(objective=[-np.eye(3)], constraints=[({0: off[None]}, [0.0])])]


@pytest.mark.parametrize("case", [0, 1])
def test_solve_sdp_detects_unbounded(case):
    prob = _unbounded_examples()[case]
    sol = solve_sdp(prob)
    assert sol.status == "unbounded"
    # the last iterate is kept: a ray along which the objective falls and A(X) stays put
    (x,) = sol.primal_blocks
    assert sol.primal_objective < -1e3
    [(terms, rhs)] = prob.constraints
    ax = np.einsum("kij,ij->k", terms[0], x)
    assert np.abs(ax - rhs).max() <= 1e-6 * np.linalg.norm(x)
    with pytest.raises(RuntimeError, match="reported the problem unbounded"):
        sdp._warn_if_failed(sol, "test")


def test_solve_sdp_hermitian_blocks():
    # min <Y, X0> + <diag(1, 2), X1> s.t. Tr X0 = Tr X1 = 1: X0 is the -1
    # eigenprojector of Pauli Y, and the real block X1 stays real
    pauli_y = np.array([[0, -1j], [1j, 0]])
    eye = np.eye(2)
    prob = SdpProblem(
        objective=[pauli_y, np.diag([1.0, 2.0])],
        constraints=[({0: eye[None]}, [1.0]), ({1: eye[None]}, [1.0])],
    )
    sol = solve_sdp(prob)
    assert sol.status == "optimal"
    assert abs(sol.primal_objective) <= 1e-7
    x0, x1 = sol.primal_blocks
    assert np.abs(x0 - np.array([[0.5, 0.5j], [-0.5j, 0.5]])).max() <= 1e-6
    assert x1.dtype == np.float64
    assert np.abs(x1 - np.diag([1.0, 0.0])).max() <= 1e-6


def _complex(prob, blocks=lambda b: True):
    """prob with the chosen blocks' objective and constraint stacks cast to complex."""
    [(terms, rhs)] = prob.constraints

    def cast(stacks):
        return [b.astype(complex) if blocks(b) else b for b in stacks]
    return SdpProblem(cast(prob.objective), [(dict(zip(terms, cast(terms.values()))), rhs)])


@pytest.mark.parametrize("seed, block_dims", [(0, (3, 2)), (1, (2, 2, 2))])
def test_solve_sdp_divergence_keeps_best_iterate(seed, block_dims):
    # no X of these instances is strictly feasible, so the iterates run into
    # the face and blow up; without a Farkas ray that is a breakdown, not
    # infeasibility, and the best iterate is kept
    prob = random_sdp(np.random.default_rng(seed), block_dims=block_dims, m=5, face=True)
    sol = solve_sdp(prob)
    assert sol.status == "breakdown"
    ref = admm_baseline(facial_reduction(prob))
    assert abs(sol.primal_objective - ref) <= 1e-6 * max(1.0, abs(ref))


@pytest.mark.parametrize("seed, block_dims, m, cast", [
    (3104, (3, 2), 7, False), (9034, (2, 2, 2), 7, False), (153, (3, 2), 6, True)])
def test_solve_sdp_former_breakdowns_solve(seed, block_dims, m, cast):
    # these strictly feasible instances (the last with every block complex)
    # stalled and blew up before the corrector had its second-order term
    prob = random_sdp(np.random.default_rng(seed), block_dims=block_dims, m=m)
    sol = solve_sdp(_complex(prob) if cast else prob)
    assert sol.status == "optimal"
    ref = admm_baseline(prob)
    assert abs(sol.primal_objective - ref) <= 1e-6 * max(1.0, abs(ref))


def test_solve_sdp_keeps_real_blocks_real_among_complex_ones():
    # three 2 x 2 blocks, complex, real, complex: min <C_b, X_b> s.t. Tr X_b = 1
    # puts each X_b on the lowest eigenvector of C_b
    pauli_y = np.array([[0, -1j], [1j, 0]])
    eye = np.eye(2)[None]
    objective = [pauli_y, np.diag([1.0, 2.0]), np.array([[1.0, 0.5 + 0.5j], [0.5 - 0.5j, 0.0]])]
    sol = solve_sdp(SdpProblem(objective, [({b: eye}, [1.0]) for b in range(3)]))
    assert sol.status == "optimal"
    assert [x.dtype for x in sol.primal_blocks] == [np.complex128, np.float64, np.complex128]
    for c, x in zip(objective, sol.primal_blocks):
        v = np.linalg.eigh(c)[1][:, 0]
        assert np.abs(x - np.outer(v, v.conj())).max() <= 1e-6
    order = [0, 2, 1]
    ref = solve_sdp(SdpProblem([objective[b] for b in order],
                               [({order.index(b): eye}, [1.0]) for b in range(3)]))
    assert ref.primal_blocks[2].dtype == np.float64
    assert abs(sol.primal_objective - ref.primal_objective) <= 1e-10
    for b, x in zip(order, ref.primal_blocks):
        assert np.abs(sol.primal_blocks[b] - x).max() <= 1e-10


# (status, iterations, objective) of the solver's path: a change that moves
# the path re-pins them and says why; one that only restructures must not
_COMPLEX_SCALARS = 64  # this seed's 1 x 1 blocks carry complex dtype
# this seed's face instance (no strictly feasible X) with every block complex;
# its iterates diverge and overflow in the Newton step before the loop's tests
# see a non-finite value, and the suite turns numpy's warnings into errors
_COMPLEX_DIVERGING = 0


@pytest.mark.parametrize("seed, block_dims, status, iterations, objective", [
    pytest.param(61, (4, 4, 2, 1), "optimal", 11, -8.021932510897122, id="61"),
    pytest.param(62, (3, 3, 3, 1, 1), "optimal", 11, -25.65445312058436, id="62"),
    pytest.param(63, (2, 2, 2), "optimal", 8, 18.226784884038562, id="63"),
    pytest.param(_COMPLEX_SCALARS, (3, 1, 2, 1), "optimal", 9, 18.839843519928166,
                 id="complex-scalars"),
    pytest.param(_COMPLEX_DIVERGING, (3, 2), "breakdown", 71, 36.66161550069424,
                 id="complex-diverging"),
])
def test_solve_sdp_path_is_pinned(seed, block_dims, status, iterations, objective):
    prob = random_sdp(np.random.default_rng(seed), block_dims=block_dims, m=6,
                      face=seed == _COMPLEX_DIVERGING)
    if seed == _COMPLEX_SCALARS:
        prob = _complex(prob, lambda b: b.shape[-1] == 1)
    elif seed == _COMPLEX_DIVERGING:
        prob = _complex(prob)
    sol = solve_sdp(prob)
    assert (sol.status, sol.iterations) == (status, iterations)
    assert sol.primal_objective == pytest.approx(objective, rel=1e-12)
    assert [x.dtype for x in sol.primal_blocks] == [c.dtype for c in prob.objective]


def _solves_inside(monkeypatch, call):
    """call()'s result and the SdpSolution of every solve_sdp it ran."""
    solves = []

    def spy(problem, tol=sdp.DEFAULT_TOL):
        solves.append(solve_sdp(problem, tol))
        return solves[-1]

    monkeypatch.setattr(sdp, "solve_sdp", spy)
    return call(), solves


def test_diamond_solve_path_is_pinned(monkeypatch):
    rng = np.random.default_rng(64)
    chi = random_choi(2, rng).matrix - random_choi(2, rng).matrix
    _, [sol] = _solves_inside(monkeypatch, lambda: diamond_distance(chi, 2))
    assert (sol.status, sol.iterations) == ("optimal", 13)
    assert sol.primal_objective == pytest.approx(0.5981100850218776, rel=1e-12)


def test_choi_diamond_solve_paths_are_pinned(monkeypatch):
    # the joint solve's Z block, repaired for the projected program, gives the
    # value, so a second (re-evaluating) solve would be waste; the data are
    # real, so the program is solved on real symmetric blocks
    chi_a = choi_of_channel(amplitude_damping(0.5)).matrix
    (_, value), solves = _solves_inside(monkeypatch, lambda: optimize_choi_diamond(6, 2, chi_a))
    assert len(solves) == 1
    [joint] = solves
    assert (joint.status, joint.iterations) == ("optimal", 11)
    assert joint.primal_objective == pytest.approx(0.14765712095686578, rel=1e-12)
    assert value == pytest.approx(0.14765711877279014, rel=1e-12)
    assert value <= joint.dual_objective + 100 * sdp.DEFAULT_TOL


# --- real arithmetic for conjugation-symmetric data ------------------------------

# the slack optimize_program_diamond allows its repaired value over the dual
# objective; the real and complex paths were measured to differ by at most
# 2.9e-8 on the PBT programs, 8.5e-8 on the Choi programs and 1.6e-11 on
# diamond_distance
_PARITY = 100 * sdp.DEFAULT_TOL


def _both_paths(monkeypatch, call):
    """call()'s result and solves as it runs, then with ``_real_data`` forced
    False (the complex Hermitian path); the first path must run in real
    arithmetic and the second in complex."""
    real, real_solves = _solves_inside(monkeypatch, call)
    monkeypatch.setattr(sdp, "_real_data", lambda *_: False)
    cplx, cplx_solves = _solves_inside(monkeypatch, call)
    monkeypatch.undo()
    assert [s.status for s in real_solves] == [s.status for s in cplx_solves] != []
    assert {x.dtype for s in real_solves for x in s.primal_blocks} == {np.dtype(float)}
    assert {x.dtype for s in cplx_solves for x in s.primal_blocks[:1]} == {np.dtype(complex)}
    return real, cplx


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("optimize", [optimize_program_diamond, optimize_program_trace,
                                      optimize_program_fidelity],
                         ids=["diamond", "trace", "fidelity"])
def test_real_path_matches_complex_path_on_pbt(n, p, optimize, monkeypatch):
    proc, chi_a = pbt_processor(n), choi_of_channel(amplitude_damping(p)).matrix
    (_, real), (_, cplx) = _both_paths(monkeypatch, lambda: optimize(proc, chi_a))
    assert abs(real - cplx) <= _PARITY


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("target", ["identity", "amplitude_damping"])
def test_real_path_matches_complex_path_on_choi_programs(n, target, monkeypatch):
    chi = PHI if target == "identity" else choi_of_channel(amplitude_damping(0.5)).matrix
    (_, real), (_, cplx) = _both_paths(monkeypatch, lambda: optimize_choi_diamond(n, 2, chi))
    assert abs(real - cplx) <= _PARITY


def test_diamond_distance_is_invariant_under_a_complex_local_unitary(monkeypatch):
    # I (x) diag(1, e^{i theta}) on the output leaves the diamond norm as it is
    # and makes the data complex: one solve in real, one in complex arithmetic
    u = np.kron(np.eye(2), np.diag([1.0, np.exp(0.7j)]))
    pairs = [(choi_of_channel(amplitude_damping(p)).matrix, PHI) for p in (0.1, 0.5, 0.9)]
    pairs.append((choi_of_channel(amplitude_damping(0.3)).matrix,
                  choi_of_channel(dephasing_like(0.25)).matrix))
    for a, b in pairs:
        chi = (a - b).real
        real, [sol] = _solves_inside(monkeypatch, lambda: diamond_distance(chi, 2))
        assert sol.primal_blocks[0].dtype == float
        cplx, [sol] = _solves_inside(monkeypatch,
                                     lambda: diamond_distance(u @ chi @ u.conj().T, 2))
        assert sol.primal_blocks[0].dtype == complex
        assert abs(real - cplx) <= _PARITY


@pytest.mark.parametrize("case, real", [("pbt", True), ("pqc", False),
                                        ("pbt-complex-target", False)])
def test_program_blocks_are_real_only_for_real_data(case, real, monkeypatch):
    proc = pqc_processor(2) if case == "pqc" else pbt_processor(2)
    channel = rotation(0.3) if case == "pbt-complex-target" else amplitude_damping(0.5)
    problems = []

    def record(problem, tol=sdp.DEFAULT_TOL):
        problems.append(problem)
        return solve_sdp(problem, tol)

    monkeypatch.setattr(sdp, "solve_sdp", record)
    for optimize in (optimize_program_diamond, optimize_program_trace, optimize_program_fidelity):
        optimize(proc, choi_of_channel(channel).matrix)
    assert len(problems) == 3
    for problem in problems:
        stacks = [*problem.objective, *(a for terms, _ in problem.constraints
                                        for a in terms.values())]
        assert any(np.iscomplexobj(a) for a in stacks) != real


# --- program terms ---------------------------------------------------------------

TERMS = {
    **{f"pbt N={n}": functools.partial(pbt_processor, n) for n in (2, 3)},
    **{f"tele d={d}": functools.partial(teleportation_processor, d) for d in (2, 3)},
    "pqc N=3": functools.partial(pqc_processor, 3),
    "mpqc N=2": functools.partial(mpqc_processor, 2),
    "pbt_reduced N=3": functools.partial(pbt_reduced_map, 3),
}


@pytest.mark.parametrize("real", [False, True], ids=["complex-basis", "real-basis"])
@pytest.mark.parametrize("key", list(TERMS))
def test_program_terms_match_the_isometry_conjugation(key, real):
    # the block parts times the copies are sum_c V_c^dag A V_c, for the
    # Choi-space groups (block dual of the basis) and the feasibility rows; a
    # target with an imaginary part asks for the complex basis
    proc = TERMS[key]()
    target = np.eye(proc.d_choi) if real else sdp.hermitian_basis(proc.d_choi)[proc.d_choi + 1]
    bld = sdp._SdpBuilder(target, proc)
    assert bld.real == (real and proc.block_coords.real)
    basis = bld.basis(proc.d_choi)
    if proc.program_domain == "choi":
        rows = np.kron(bld.basis(proc.d_in), np.eye(proc.d_out))
    else:
        rows = np.eye(proc.d_prog)[None]
    for parts, a in ((proc.dual(-3.0 * basis, blocks=True), -3.0 * hermitize(proc.dual(basis))),
                     (proc.block_coords.part(rows), rows)):
        terms = bld.terms(parts)
        expected = program_terms(proc, a)
        assert list(terms) == [b for blks in bld.pi_blks for b in blks]
        assert not bld.real or all(np.isrealobj(t) for t in terms.values())
        for t, e in zip(terms.values(), expected):
            assert t.shape == e.shape
            assert np.abs(t - e).max() <= 1e-12


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


@pytest.mark.parametrize("case", ["d_in_zero", "d_in_negative", "d_in_not_dividing",
                                  "chi_not_square", "chi_nan", "chi_inf"])
def test_diamond_distance_rejects_malformed_input(case):
    chi, d_in, match = {"d_in_zero": (np.zeros((4, 4)), 0, "need d_in >= 1, got d_in=0"),
                        "d_in_negative": (np.zeros((4, 4)), -2, "need d_in >= 1, got d_in=-2"),
                        "d_in_not_dividing": (np.zeros((4, 4)), 3, "not divisible by d_in=3"),
                        "chi_not_square": (np.zeros((4, 2)), 2, r"chi_omega has shape \(4, 2\)"),
                        "chi_nan": (np.diag([np.nan, 0, 0, 0]), 2, "chi_omega has non-finite"),
                        "chi_inf": (np.diag([np.inf, 0, 0, -np.inf]), 2,
                                    "chi_omega has non-finite")}[case]
    with pytest.raises(ValueError, match=match):
        diamond_distance(chi, d_in)


def test_diamond_warns_on_trace():
    with pytest.warns(UserWarning, match="traceless"):
        diamond_distance(np.eye(4) * 0.25, 2)


def test_diamond_sandwich_random_instances():
    rng = np.random.default_rng(55)
    for _ in range(5):
        a = random_choi(2, rng).matrix
        b = random_choi(2, rng).matrix
        c1 = cost_eval("C1", a, b)
        cd = diamond_distance(a - b, 2)
        assert c1 <= cd + 1e-7
        assert cd <= 2.0 * c1 + 1e-7


def _pauli_pairs(rng):
    """(p, r) Pauli probability pairs on qubits and qutrits, 12 random and
    three depolarizing ones per dimension, whose diamond distance is
    ||p - r||_1."""
    pairs = []
    for d in (2, 3):
        pairs += [(rng.dirichlet(np.ones(d * d)), rng.dirichlet(np.ones(d * d)))
                  for _ in range(12)]
        for q1, q2 in ((0.0, 0.2), (0.0, 0.9), (0.3, 0.7)):
            # depolarizing(q, d) as a Pauli mixture
            pairs.append(tuple(np.r_[1 - q + q / d**2, np.full(d * d - 1, q / d**2)]
                               for q in (q1, q2)))
    return pairs


def test_flat_marginal_certifies_pauli_pairs_without_a_solve(monkeypatch):
    for p, r in _pauli_pairs(np.random.default_rng(171)):
        d = math.isqrt(len(p))
        chi = choi_of_channel(pauli_channel(p)).matrix - choi_of_channel(pauli_channel(r)).matrix
        value, solves = _solves_inside(monkeypatch, lambda: diamond_distance(chi, d))
        assert solves == []
        assert abs(value - np.abs(p - r).sum()) <= 1e-12


def test_diamond_value_lies_between_the_watrous_bounds():
    # random pairs fall through to the SDP, Pauli pairs do not; both kinds
    # stay above the maximally entangled input's value and agree with a
    # Watrous solve of their own
    rng = np.random.default_rng(172)
    pairs = [(d, random_choi(d, rng).matrix - random_choi(d, rng).matrix)
             for d in (2,) * 8 + (3,) * 2]
    for p, r in _pauli_pairs(rng):
        pairs.append((math.isqrt(len(p)), choi_of_channel(pauli_channel(p)).matrix
                      - choi_of_channel(pauli_channel(r)).matrix))
    assert len(pairs) == 40
    for d, chi in pairs:
        value = diamond_distance(chi, d)
        assert value >= np.abs(np.linalg.eigvalsh(chi)).sum() - 1e-12
        bld, _ = sdp._watrous_builder(chi, d, d)
        sol = solve_sdp(bld.build())
        assert sol.status == "optimal"
        assert abs(value - sol.primal_objective) <= 1e-6


@pytest.mark.parametrize("proc", [pbt_processor(2), pbt_processor(3),
                                  *(pbt_reduced_map(n) for n in range(1, 9))],
                         ids=lambda proc: proc.label)
def test_program_diamond_value_comes_from_the_joint_solve(proc, monkeypatch):
    chi_a = choi_of_channel(amplitude_damping(0.5)).matrix
    (program, value), solves = _solves_inside(monkeypatch,
                                              lambda: optimize_program_diamond(proc, chi_a))
    assert len(solves) == 1
    exact = diamond_distance(chi_a - proc.apply_matrix(program), proc.d_in)
    assert abs(value - exact) <= 1e-6


def test_stalled_solve_warns_at_the_caller(monkeypatch):
    # a solve that stops far from tol warns at the line that called the entry point
    def stalled(problem, tol=sdp.DEFAULT_TOL):
        return dataclasses.replace(solve_sdp(problem, tol), status="max_iter",
                                   residual_primal=1.0)

    monkeypatch.setattr(sdp, "solve_sdp", stalled)
    proc, chi_a = pbt_processor(2), choi_of_channel(amplitude_damping(0.5)).matrix
    calls = {"diamond_distance": lambda: diamond_distance(chi_a - PHI, 2),
             **{f.__name__: functools.partial(f, proc, chi_a)
                for f in (optimize_program_trace, optimize_program_diamond,
                          optimize_program_fidelity)}}
    for who, call in calls.items():
        with pytest.warns(UserWarning, match="stopped at status max_iter") as record:
            call()
        for w in record:  # the diamond program's re-solve warns too
            assert str(w.message).startswith(f"{who}:")
            assert w.filename == __file__


@pytest.mark.parametrize("fault", [{"status": "max_iter"}, {"dual_objective": -1.0}],
                         ids=["not-optimal", "dual-far-below"])
def test_program_diamond_re_solves_when_the_joint_solve_is_not_trusted(fault, monkeypatch):
    proc, chi_a = pbt_reduced_map(2), choi_of_channel(amplitude_damping(0.5)).matrix
    solves = []

    def spy(problem, tol=sdp.DEFAULT_TOL):
        solves.append(solve_sdp(problem, tol))
        return dataclasses.replace(solves[-1], **fault) if len(solves) == 1 else solves[-1]

    monkeypatch.setattr(sdp, "solve_sdp", spy)
    program, value = optimize_program_diamond(proc, chi_a)
    assert len(solves) == 2
    monkeypatch.undo()
    assert value == diamond_distance(chi_a - proc.apply_matrix(program), 2)


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


@pytest.mark.parametrize("fault", ["non_hermitian", "shape", "nan"])
@pytest.mark.parametrize("optimize", [optimize_program_trace, optimize_program_diamond,
                                      optimize_program_fidelity], ids=lambda f: f.__name__)
def test_joint_programs_reject_bad_targets(optimize, fault):
    # checked as the first-order methods check it: no silent hermitizing and
    # no opaque numpy error
    chi = np.eye(4, dtype=complex) / 4
    if fault == "non_hermitian":
        chi[0, 1], match = 0.3, "matrix is not Hermitian"
    elif fault == "nan":
        chi[2, 2], match = np.nan, "entries must be finite"
    else:
        chi, match = np.eye(9) / 9, r"shape \(9, 9\), expected \(4, 4\)"
    with pytest.raises(ValueError, match=f"chi_target: {match}"):
        optimize(TELE, chi)


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


def test_optimize_choi_diamond_builds_its_map_once(monkeypatch):
    processors._pbt_reduced_map.cache_clear()
    builds = []
    port_transfer = processors._port_transfer
    monkeypatch.setattr(processors, "_port_transfer",
                        lambda *args: builds.append(args) or port_transfer(*args))
    chi_a = choi_of_channel(amplitude_damping(0.5)).matrix
    (first, v1), (second, v2) = (optimize_choi_diamond(4, 2, chi_a) for _ in range(2))
    assert len(builds) == 1
    assert v1 == v2 and np.array_equal(first.matrix, second.matrix)


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


@pytest.mark.parametrize("optimize", [optimize_program_diamond, optimize_program_trace,
                                      optimize_program_fidelity], ids=lambda f: f.__name__)
def test_block_reduction_is_lossless(optimize):
    blocked = pbt_processor(3)
    trivial = ProcessorMap(blocked.transfer, blocked.d_prog, blocked.d_in, blocked.d_out)
    assert trivial.block_coords.shapes == ((1, 64, 64),)
    assert blocked.block_coords.shapes == ((2, 20, 20), (1, 4, 4))
    for channel in (amplitude_damping(0.3), amplitude_damping(0.7), depolarizing(0.4)):
        chi = choi_of_channel(channel).matrix
        _, value = optimize(blocked, chi)
        _, full = optimize(trivial, chi)
        assert abs(value - full) <= 1e-7


def test_optimize_program_warns_not_failed(tmp_path):
    # sanity: optimal status reached on a tiny instance without warnings
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        optimize_program_trace(TELE, choi_of_channel(dephasing_like(0.3)).matrix)
