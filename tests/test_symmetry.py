"""Symmetry checks: the program searches against a second block structure.

PBT is phase covariant: with the program's pairs interleaved (A_1, B_1, ...),
the program action (u (x) u^*)^(x)N, u = diag(1, e^(i theta)), moves the output
Choi matrix by u (x) u^*.  Amplitude-damping, dephasing and depolarizing
targets are invariant under u (x) u^*, so by twirling some optimal program
commutes with the charge Q = sum_i (a_i - b_i).  ``charge_refined`` builds the
same map with each S_N block split by Q, which admits only such programs: on
these targets the three SDP searches (trace, diamond, fidelity) must reach the
stock map's value, and on a target that is not covariant they must not.

Bounds, each set from a measurement of the same seeded checks before the
checks were added: covariance residual 1.1e-16 (bound 1e-12); stock-versus-refined
value gap at most 4.2e-10 (depolarizing p = 0.7, N = 2, diamond, a value of
3.4e-9 at the solver's tolerance) and 1.7e-12 for fidelity (bound 2e-9); stock
programs' entries between charges at most 1.0e-11 for trace and diamond (bound
1e-10) and 5.0e-11 for fidelity (depolarizing p = 0.3, N = 3; bound 5e-10);
random-target loss 0.49 (trace) and 0.55 (diamond) at N = 2, seed 0 (bound
0.1), and 0.077 for fidelity (seeds 1-3: 0.079, 0.081, 0.116; bound 0.03).
"""

import functools

import numpy as np
import pytest

from qprogopt import channels, sdp
from qprogopt.processors import pbt_processor
from qprogopt.rand import random_choi, random_density

from oracles import charge_refined, program_charge


@functools.cache
def _refined(n_ports: int):
    return charge_refined(pbt_processor(n_ports))


@pytest.mark.parametrize("n_ports", [2, 3])
def test_pbt_is_phase_covariant(n_ports):
    proc = pbt_processor(n_ports)
    rng = np.random.default_rng(23)
    worst = 0.0
    for theta in (0.4, 1.3, 2.9):
        u = np.diag([1.0, np.exp(1j * theta)])
        port = np.kron(u, u.conj())
        program = functools.reduce(np.kron, [port] * n_ports)
        for _ in range(3):
            pi = random_density(proc.d_prog, rng).matrix
            moved = proc.apply_matrix(program @ pi @ program.conj().T)
            worst = max(worst, np.abs(moved - port @ proc.apply_matrix(pi) @ port.conj().T).max())
    assert worst < 1e-12


@pytest.mark.parametrize("n_ports, stock_shapes, shapes", [
    (2, ((1, 10, 10), (1, 6, 6)), ((2, 1, 1), (5, 2, 2), (1, 4, 4))),
    (3, ((2, 20, 20), (1, 4, 4)), ((4, 1, 1), (5, 2, 2), (2, 4, 4), (2, 6, 6), (2, 5, 5))),
])
def test_charge_refined_block_classes(n_ports, stock_shapes, shapes):
    stock, refined = pbt_processor(n_ports), _refined(n_ports)
    assert stock.block_coords.shapes == stock_shapes
    assert refined.block_coords.shapes == shapes
    assert np.array_equal(refined.transfer, stock.transfer)


_TARGETS = [(kind, p) for kind in ("amplitude_damping", "dephasing", "depolarizing")
            for p in (0.3, 0.7)]
# per search: the bound on a stock program's entries between charges, and on the
# loss of the refined map on a random target
_BOUNDS = {"optimize_program_trace": (1e-10, 0.1), "optimize_program_diamond": (1e-10, 0.1),
           "optimize_program_fidelity": (5e-10, 0.03)}


@pytest.mark.parametrize("n_ports", [2, 3])
@pytest.mark.parametrize("search", list(_BOUNDS))
def test_searches_agree_on_the_charge_refined_map(n_ports, search):
    stock, refined = pbt_processor(n_ports), _refined(n_ports)
    charge = program_charge(n_ports)
    between = charge[:, None] != charge[None, :]
    for kind, p in _TARGETS:
        chi = channels.choi_of_channel(getattr(channels, kind)(p)).matrix
        program, value = getattr(sdp, search)(stock, chi)
        _, refined_value = getattr(sdp, search)(refined, chi)
        assert abs(value - refined_value) < 2e-9, (kind, p)
        assert np.abs(program.matrix[between]).max() < _BOUNDS[search][0], (kind, p)


@pytest.mark.parametrize("search", list(_BOUNDS))
def test_a_target_that_is_not_covariant_shows_a_gap(search):
    # the check can fail: the refined map's programs commute with Q, which a
    # generic target's optimum does not
    chi = random_choi(2, np.random.default_rng(0)).matrix
    _, value = getattr(sdp, search)(pbt_processor(2), chi)
    _, refined_value = getattr(sdp, search)(_refined(2), chi)
    # the refined map's loss: fidelity is maximized, the distances minimized
    loss = value - refined_value if search == "optimize_program_fidelity" else refined_value - value
    assert loss > _BOUNDS[search][1]
