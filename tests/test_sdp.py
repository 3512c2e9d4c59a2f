import dataclasses
import functools
import gc
import math
import weakref

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
from qprogopt import hermlin, processors, sdp
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
    count_calls,
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


# no natural instance reaches the exits below, so each test breaks seed 61's
# path-pinned instance (optimal after 11 iterations; classes of 4 x 4, 2 x 2 and
# 1 x 1 blocks, and a 7 x 7 Schur matrix) at iteration 4 with a fake
def _pinned_instance():
    return random_sdp(np.random.default_rng(61), block_dims=(4, 4, 2, 1), m=6)


def _assert_breakdown(sol, iterations):
    """Status ``breakdown`` after ``iterations``, with a finite iterate from the
    history (the best one, not the broken one) returned."""
    assert (sol.status, sol.iterations) == ("breakdown", iterations)
    assert all(np.isfinite(x).all() for x in sol.primal_blocks)
    assert np.isfinite(sol.dual_vector).all()
    assert (sol.residual_primal, sol.residual_dual) in [(h[2], h[3]) for h in sol.history]


@pytest.mark.parametrize("selects, shapes", [
    # the Schur matrix: its 4th factorization fails, and so does the shifted one
    (lambda x: x.shape == (7, 7), [(7, 7)] * 5),
    # the 2 x 2 class: the 4th stack [X; S] fails, then X alone, then X shifted
    (lambda x: x.shape[-1] == 2, [(2, 2, 2)] * 4 + [(2, 2)] * 2),
], ids=["schur", "x-s"])
def test_a_failed_shift_ends_the_solve_as_breakdown(selects, shapes, monkeypatch):
    calls, cholesky = [], sdp._cholesky

    def failing(x):
        """Raise on every matrix that ``selects`` picks from the 4th on."""
        if selects(x):
            calls.append(x.shape)
            if len(calls) >= 4:
                raise np.linalg.LinAlgError("Matrix is not positive definite")
        return cholesky(x)
    monkeypatch.setattr(sdp, "_cholesky", failing)
    sol = solve_sdp(_pinned_instance())
    # one shift, then breakdown: no least-squares step and no larger shift
    assert calls == shapes
    _assert_breakdown(sol, 4)


def _steps_at_iteration_4(monkeypatch, fake):
    """Let ``fake(steps, first, tau, factors, dx, ds)`` answer for ``sdp._steps`` in
    the 4th iteration, given the real ``steps`` and ``first`` for the predictor's
    call; each iteration factors anew, so a new ``factors`` starts one."""
    steps, seen = sdp._steps, []

    def spy(tau, factors, dx, ds):
        first = not seen or seen[-1] is not factors
        if first:
            seen.append(factors)
        if len(seen) == 4:
            return fake(steps, first, tau, factors, dx, ds)
        return steps(tau, factors, dx, ds)
    monkeypatch.setattr(sdp, "_steps", spy)


def test_a_non_finite_direction_ends_the_solve_as_breakdown(monkeypatch):
    # the real step test, handed a NaN predictor direction
    _steps_at_iteration_4(monkeypatch, lambda steps, first, tau, factors, dx, ds: steps(
        tau, factors, [np.full_like(d, np.nan) for d in dx], ds))
    _assert_breakdown(solve_sdp(_pinned_instance()), 4)


@pytest.mark.parametrize("step, blow_up", [
    # X + inf dX is not finite, and neither is mu
    ((math.inf, math.inf), math.isnan),
    # far along dX, <X, S> turns negative; far back along it, it grows past 1e150
    ((1e160, 1.0), lambda mu: mu <= 0.0),
    ((-1e160, 1.0), lambda mu: 1e150 < mu < math.inf),
], ids=["non-finite", "mu-negative", "mu-huge"])
def test_a_blown_up_iterate_ends_the_solve_as_breakdown(step, blow_up, monkeypatch):
    # the corrector's step lengths of iteration 4 are replaced, so the 5th
    # iterate is the blown-up one; the loop head stops before factoring it
    _steps_at_iteration_4(monkeypatch, lambda steps, first, tau, factors, dx, ds: (
        steps(tau, factors, dx, ds) if first else step))
    sol = solve_sdp(_pinned_instance())
    assert blow_up(sol.history[-1][4])
    _assert_breakdown(sol, 5)


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


def _fresh_problem(tpl, x, objective=None) -> SdpProblem:
    """The program of template tpl with the data of target x (and, for the
    blocks ``objective`` names, its objective), scanned anew from the
    template's rows rather than made by ``SdpProblem.with_data``."""
    rows, basis, scale = tpl.target
    groups, start = [], 0
    for terms, rhs in tpl.problem.constraints:
        groups.append((terms, scale * sdp._coords(basis, x) if start == rows.start else rhs))
        start += rhs.size
    obj = list(tpl.problem.objective)
    for blk, c in (objective or {}).items():
        obj[blk] = c
    return SdpProblem(obj, groups)


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


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("d", [2, 4, 20])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_stacked_eigh_halves_are_the_separate_decompositions(k, d, dtype):
    # the solver's premise: one eigh of [X; S] per class is eigh(X) and
    # eigh(S) bit for bit, because LAPACK decomposes each matrix on its own
    rng = np.random.default_rng(100 * k + d)

    def pd_stack():
        g = rng.normal(size=(k, d, d)).astype(dtype)
        if dtype is complex:
            g += 1j * rng.normal(size=(k, d, d))
        return g @ g.conj().swapaxes(1, 2) + 0.1 * np.eye(d)

    x, s = pd_stack(), pd_stack()
    w, v = np.linalg.eigh(np.concatenate([x, s]))
    wx, vx = np.linalg.eigh(x)
    ws, vs = np.linalg.eigh(s)
    assert np.array_equal(w[:k], wx) and np.array_equal(v[:k], vx)
    assert np.array_equal(w[k:], ws) and np.array_equal(v[k:], vs)


def test_each_matrix_class_takes_two_eigh_per_iteration(monkeypatch):
    # Watrous's program on a complex qubit pair has two matrix classes, Z and
    # W (4 x 4) and V (2 x 2), and the elementwise 1 x 1 class t; each stepping
    # iteration decomposes [X; S] and X^1/2 S X^1/2 once per matrix class
    rng = np.random.default_rng(64)
    chi = hermitize(random_choi(2, rng).matrix - random_choi(2, rng).matrix)
    tpl = sdp._free_watrous_template(2, 2, False)
    shapes = count_calls(monkeypatch, hermlin._eigh)
    _, sol = tpl.solve(None, chi, sdp.DEFAULT_TOL, "diamond_distance")
    assert (sol.status, sol.iterations) == ("optimal", 13)
    steps = sol.iterations - 1  # the last iteration stops before its step
    assert sorted(shapes) == sorted([(4, 4, 4), (2, 4, 4), (2, 2, 2), (1, 2, 2)] * steps)


def test_complex_classes_reach_solve_in_one_dtype(monkeypatch):
    # every class starts X and S in its own dtype: a complex class used to start
    # them real, and its first step handed _solve float Cholesky factors with a
    # complex right-hand side, which took np.linalg's casting wrapper
    rng = np.random.default_rng(64)
    chi = hermitize(random_choi(2, rng).matrix - random_choi(2, rng).matrix)
    operands, solve = [], hermlin._solve

    def spy(a, b):
        operands.append((a.dtype, b.dtype))
        return solve(a, b)

    monkeypatch.setattr(sdp, "_solve", spy)
    _, solves = _solves_inside(monkeypatch, lambda: diamond_distance(chi, 2))
    assert [s.status for s in solves] == ["optimal"]  # the bound did not certify it
    assert np.dtype(complex) in {x.dtype for x in solves[0].primal_blocks}
    assert operands and [ab for ab in operands if ab[0] != ab[1]] == []


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
    bld = sdp._SdpBuilder(proc, sdp._real_data(target, proc))
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
                        "chi_not_square": (np.zeros((4, 2)), 2,
                                           r"chi_omega: expected a square matrix, "
                                           r"got shape \(4, 2\)"),
                        "chi_nan": (np.diag([np.nan, 0, 0, 0]), 2,
                                    "chi_omega: entries must be finite"),
                        "chi_inf": (np.diag([np.inf, 0, 0, -np.inf]), 2,
                                    "chi_omega: entries must be finite")}[case]
    with pytest.raises(ValueError, match=match):
        diamond_distance(chi, d_in)


def test_diamond_warns_on_trace():
    with pytest.warns(UserWarning, match="traceless"):
        diamond_distance(np.eye(4) * 0.25, 2)
    # traceless, but Tr_out chi = diag(1, -1) / 2: the program is not the norm
    with pytest.warns(UserWarning, match="traceless"):
        diamond_distance(np.kron(np.diag([1.0, -1.0]), np.eye(2)) / 4, 2)


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


def test_diamond_distance_checks_tol_and_d_in_on_either_path(monkeypatch):
    # a Pauli pair takes the flat-marginal shortcut, a random pair the SDP;
    # both reject the same arguments, before either path runs
    rng = np.random.default_rng(64)
    p, r = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
    pauli = choi_of_channel(pauli_channel(p)).matrix - choi_of_channel(pauli_channel(r)).matrix
    rand = random_choi(2, rng).matrix - random_choi(2, rng).matrix
    for chi, n_solves in ((pauli, 0), (rand, 1)):
        _, solves = _solves_inside(monkeypatch, lambda: diamond_distance(chi, 2))
        assert len(solves) == n_solves
        for tol in (math.inf, 0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="diamond_distance: tol must be finite and > 0"):
                diamond_distance(chi, 2, tol=tol)
        with pytest.raises(TypeError):
            diamond_distance(chi, 2.0)
        assert len(solves) == n_solves


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
        sol = solve_sdp(_fresh_problem(sdp._watrous_template(None, sdp._real_data(chi), d, d), chi))
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


@pytest.mark.parametrize("target", [np.zeros((4, 4)), -np.eye(4) / 4,
                                    np.diag([0.6, 0.5, -0.1, 0.0])],
                         ids=["zero", "negative", "indefinite"])
def test_optimize_fidelity_rejects_a_target_that_is_not_psd_before_solving(target,
                                                                             monkeypatch):
    # an empty support or an eigenvalue below -SQRT_NEG_TOL, which
    # bures_fidelity would refuse after the solve
    solves = []
    monkeypatch.setattr(sdp, "solve_sdp", lambda *args, **kw: solves.append(args))
    with pytest.raises(ValueError, match="chi_target must be PSD and nonzero"):
        optimize_program_fidelity(teleportation_processor(2), target)
    assert not solves


def test_optimize_fidelity_accepts_rounding_below_zero():
    # eigenvalues in [-SQRT_NEG_TOL, 0) are clamped, as bures_fidelity does
    _, f = optimize_program_fidelity(TELE, np.diag([0.5, 0.5, -1e-11, 0.0]))
    assert 0.0 < f <= 1.0


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


# --- templates: each program built once per processor --------------------------

AD_SWEEP = [choi_of_channel(amplitude_damping(p)).matrix for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
PROGRAMS = {"trace": optimize_program_trace, "diamond": optimize_program_diamond,
            "fidelity": optimize_program_fidelity}
TEMPLATE_PROCS = {"pbt N=2": functools.partial(pbt_processor, 2),
                  "pbt_reduced N=3": functools.partial(pbt_reduced_map, 3)}


def _count_builds(monkeypatch) -> list:
    """A list that grows by one per SdpProblem construction."""
    builds = []
    post_init = SdpProblem.__post_init__
    monkeypatch.setattr(SdpProblem, "__post_init__",
                        lambda self: builds.append(1) or post_init(self))
    return builds


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("program", list(PROGRAMS))
@pytest.mark.parametrize("key", list(TEMPLATE_PROCS))
def test_a_target_sweep_builds_each_program_once(key, program, real, monkeypatch):
    proc = TEMPLATE_PROCS[key]()
    sdp._TEMPLATES.pop(proc, None)
    if not real:
        monkeypatch.setattr(sdp, "_real_data", lambda *_: False)
    builds = _count_builds(monkeypatch)
    for chi in AD_SWEEP:
        PROGRAMS[program](proc, chi)
    assert len(builds) == 1
    [(name, is_real, *_)] = sdp._TEMPLATES[proc]
    assert (name, is_real) == (program, real)


def _solutions(monkeypatch, call) -> list:
    _, solves = _solves_inside(monkeypatch, call)
    monkeypatch.undo()
    return solves


def _assert_identical(cold, warm):
    assert len(cold) == len(warm) >= 1
    for a, b in zip(cold, warm):
        assert (a.status, a.iterations) == (b.status, b.iterations)
        assert (a.primal_objective, a.dual_objective, a.gap) == (
            b.primal_objective, b.dual_objective, b.gap)
        assert (a.residual_primal, a.residual_dual) == (b.residual_primal, b.residual_dual)
        assert np.array_equal(a.dual_vector, b.dual_vector)
        assert all(np.array_equal(x, y) for x, y in zip(a.primal_blocks, b.primal_blocks))
        assert a.history == b.history


@pytest.mark.parametrize("program", list(PROGRAMS))
@pytest.mark.parametrize("key", list(TEMPLATE_PROCS))
def test_cold_and_warm_solves_are_identical(key, program, monkeypatch):
    proc, chi = TEMPLATE_PROCS[key](), AD_SWEEP[2]
    sdp._TEMPLATES.pop(proc, None)
    sdp._free_watrous_template.cache_clear()
    cold = _solutions(monkeypatch, lambda: PROGRAMS[program](proc, chi))
    # a warm solve on the template that another target built
    sdp._TEMPLATES.pop(proc, None)
    PROGRAMS[program](proc, AD_SWEEP[0])
    _assert_identical(cold, _solutions(monkeypatch, lambda: PROGRAMS[program](proc, chi)))
    assert len(sdp._TEMPLATES[proc]) == 1


def test_diamond_distance_cold_and_warm_solves_are_identical(monkeypatch):
    rng = np.random.default_rng(64)
    chis = [random_choi(2, rng).matrix - random_choi(2, rng).matrix for _ in range(2)]
    # the template is built without a target: solve as a fresh build on chis[0] does
    fresh = solve_sdp(_fresh_problem(sdp._watrous_template(None, sdp._real_data(chis[0]), 2, 2),
                                     chis[0]))
    sdp._free_watrous_template.cache_clear()
    cold = _solutions(monkeypatch, lambda: diamond_distance(chis[0], 2))
    _assert_identical([fresh], cold)
    sdp._free_watrous_template.cache_clear()
    diamond_distance(chis[1], 2)
    _assert_identical(cold, _solutions(monkeypatch, lambda: diamond_distance(chis[0], 2)))
    assert sdp._free_watrous_template.cache_info().currsize == 1


def _template_solves(monkeypatch, call) -> list:
    """(template, x, objective, tol, solution) of every ``_Template.solve`` inside call()."""
    seen = []
    solve = sdp._Template.solve

    def spy(tpl, proc, x, tol, who, objective=None):
        program, sol = solve(tpl, proc, x, tol, who, objective)
        seen.append((tpl, x, objective, tol, sol))
        return program, sol

    monkeypatch.setattr(sdp._Template, "solve", spy)
    call()
    return seen


def _assert_solved_as_fresh_builds(seen):
    assert seen
    for tpl, x, objective, tol, sol in seen:
        _assert_identical([solve_sdp(_fresh_problem(tpl, x, objective), tol)], [sol])


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("program", list(PROGRAMS))
@pytest.mark.parametrize("key", list(TEMPLATE_PROCS))
def test_a_template_solves_each_target_as_a_fresh_build(key, program, real, monkeypatch):
    # AD_SWEEP[0] builds the template; every other target solves on it
    # exactly as on its program scanned anew
    proc = TEMPLATE_PROCS[key]()
    sdp._TEMPLATES.pop(proc, None)
    if not real:
        monkeypatch.setattr(sdp, "_real_data", lambda *_: False)
    PROGRAMS[program](proc, AD_SWEEP[0])
    seen = _template_solves(monkeypatch,
                            lambda: [PROGRAMS[program](proc, chi) for chi in AD_SWEEP[1:]])
    assert len(seen) >= 4
    assert all(np.isrealobj(tpl.problem._stacks[0]) == real for tpl, *_ in seen)
    _assert_solved_as_fresh_builds(seen)


@pytest.mark.parametrize("d", [2, 3])
def test_a_diamond_distance_template_solves_each_pair_as_a_fresh_build(d, monkeypatch):
    rng = np.random.default_rng(64)
    chis = [random_choi(d, rng).matrix - random_choi(d, rng).matrix for _ in range(3)]
    sdp._free_watrous_template.cache_clear()
    diamond_distance(chis[0], d)  # builds the template
    assert sdp._free_watrous_template.cache_info().currsize == 1
    seen = _template_solves(monkeypatch, lambda: [diamond_distance(chi, d) for chi in chis[1:]])
    assert len(seen) == 2
    _assert_solved_as_fresh_builds(seen)


def test_templates_live_as_long_as_their_processor(monkeypatch):
    # a per-call PQC map and its templates are freed by reference counting
    # alone (the collector is off), so no reference cycle holds them; the
    # shared PBT map keeps its templates across calls
    gc.disable()
    try:
        proc = pqc_processor(2)
        optimize_program_trace(proc, AD_SWEEP[1])
        optimize_program_diamond(proc, AD_SWEEP[1])
        templates = sdp._TEMPLATES[proc]
        assert sorted(name for name, *_ in templates) == ["diamond", "trace"]
        refs = [weakref.ref(proc), *(weakref.ref(tpl.problem) for tpl in templates.values())]
        entries = len(sdp._TEMPLATES)
        del proc, templates
        assert all(ref() is None for ref in refs)
        assert len(sdp._TEMPLATES) == entries - 1
    finally:
        gc.enable()
    optimize_program_trace(pbt_processor(2), AD_SWEEP[1])
    tpl = sdp._TEMPLATES[pbt_processor(2)][("trace", True)]
    builds = _count_builds(monkeypatch)
    optimize_program_trace(pbt_processor(2), AD_SWEEP[3])
    assert not builds
    assert sdp._TEMPLATES[pbt_processor(2)][("trace", True)] is tpl


def test_free_watrous_templates_keep_the_eight_most_recently_used(monkeypatch):
    sdp._free_watrous_template.cache_clear()
    keys = [(d_in, d_out, real) for d_in in (1, 2) for d_out in (1, 2) for real in (True, False)]
    for key in keys:
        sdp._free_watrous_template(*key)
    assert sdp._free_watrous_template.cache_info().currsize == 8
    sdp._free_watrous_template(*keys[0])  # now the most recently used
    sdp._free_watrous_template(1, 3, True)  # a ninth key evicts keys[1]
    builds = _count_builds(monkeypatch)
    sdp._free_watrous_template(*keys[0])
    assert not builds
    sdp._free_watrous_template(*keys[1])
    assert len(builds) == 1


def test_forced_complex_data_get_their_own_template(monkeypatch):
    proc = pbt_processor(2)
    sdp._TEMPLATES.pop(proc, None)
    optimize_program_trace(proc, AD_SWEEP[2])
    monkeypatch.setattr(sdp, "_real_data", lambda *_: False)
    _, [sol] = _solves_inside(monkeypatch, lambda: optimize_program_trace(proc, AD_SWEEP[2]))
    assert sol.primal_blocks[0].dtype == complex
    real, cplx = (sdp._TEMPLATES[proc][("trace", flag)] for flag in (True, False))
    assert not any(np.iscomplexobj(a) for a in real.problem._stacks)
    assert all(np.iscomplexobj(a) for a in cplx.problem._stacks)


def _arrays(obj):
    """Every ndarray in obj, a nest of lists, tuples and dicts."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple, dict)):
        for item in obj.values() if isinstance(obj, dict) else obj:
            yield from _arrays(item)


def test_template_arrays_are_read_only():
    proc = pbt_processor(2)
    optimize_program_fidelity(proc, AD_SWEEP[1])
    tpl = sdp._TEMPLATES[proc][("fidelity", True, 2)]
    arrays = [a for a in _arrays([tpl.target, list(vars(tpl.problem).values())]) if a.size]
    assert len(arrays) >= 10
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 1.0


def test_with_data_checks_only_the_new_data():
    problem = SdpProblem([np.eye(2), np.eye(1)],
                         [({0: np.eye(2)[None], 1: np.ones((1, 1, 1))}, [1.0])])
    new = problem.with_data([2.0], {1: np.array([[3.0]])})
    assert new._stacks is problem._stacks and new._rows is problem._rows
    assert new.constraints[0][0] is problem.constraints[0][0]
    assert new.rhs.tolist() == [2.0] and new.constraints[0][1].tolist() == [2.0]
    assert new.objective[1].tolist() == [[3.0]] and problem.objective[1].tolist() == [[1.0]]
    assert solve_sdp(new).primal_objective == pytest.approx(2.0, abs=1e-7)
    for rhs, objective, message in (([1.0, 2.0], None, "rhs has shape"),
                                    ([np.inf], None, "non-finite"),
                                    ([1.0], {0: np.eye(3)}, "shape"),
                                    ([1.0], {2: np.eye(1)}, "block 2"),
                                    ([1.0], {0: np.triu(np.ones((2, 2)))}, "not Hermitian")):
        with pytest.raises(ValueError, match=message):
            problem.with_data(rhs, objective)
