import functools
import itertools
import math

import numpy as np
import pytest

from qprogopt.channels import (
    ChoiMatrix,
    DensityMatrix,
    amplitude_damping,
    choi_of_channel,
    depolarizing,
    cost_eval,
    max_entangled,
)
from qprogopt import processors
from qprogopt.hermlin import hermitize, matrix_function
from qprogopt.processors import (
    CapacityError,
    ProcessorMap,
    _pbt_fidelity,
    amplitude_damping_hamiltonian,
    default_pqc_hamiltonians,
    mpqc_processor,
    pbt_povm,
    pbt_processor,
    pbt_reduced_map,
    pqc_processor,
    symmetric_param_count,
    teleportation_processor,
    weyl_unitaries,
)
from qprogopt.rand import random_choi, random_density, random_hermitian

from oracles import (
    pbt_apply_dense,
    pbt_reduced_dense,
    pbt_srm_dense,
    permute_ports,
    qubit_bell_basis,
    random_program,
    symmetrize_program,
)

PHI = max_entangled(2).matrix


def _all_processors():
    return [
        (teleportation_processor(2), 20),
        (pbt_processor(2, 2), 10),
        (pbt_reduced_map(3, 2), 10),
        (pqc_processor(2), 10),
        (mpqc_processor(1), 5),
    ]


def test_processor_cptp_and_choi_outputs():
    rng = np.random.default_rng(11)
    for proc, n_programs in _all_processors():
        dc, dp = proc.d_choi, proc.d_prog
        # Choi operator of the map, J[(m, r), (n, c)] = Lambda(|m><n|)[r, c]
        j = proc.transfer.reshape(dc, dc, dp, dp).transpose(2, 0, 3, 1)
        assert np.linalg.eigvalsh(j.reshape(dp * dc, dp * dc)).min() >= -1e-8
        # trace preservation: the partial trace over the Choi factor is I
        assert np.abs(np.einsum("mrnr->mn", j) - np.eye(dp)).max() <= 1e-8
        for _ in range(n_programs):
            prog = random_program(proc, rng)
            # the constructor enforces the Choi invariant
            ChoiMatrix(proc.apply_matrix(prog), proc.d_in, proc.d_out)


def test_adjoint_identity():
    rng = np.random.default_rng(12)
    for proc, _ in _all_processors():
        for _ in range(5):
            x = random_hermitian(proc.d_choi, rng)
            pi = random_program(proc, rng).matrix
            lhs = np.trace(x @ proc.apply_matrix(pi))
            rhs = np.trace(proc.dual(x) @ pi)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_stacked_dual_matches_per_element():
    rng = np.random.default_rng(22)
    for proc, _ in _all_processors():
        xs = np.stack([random_hermitian(proc.d_choi, rng) for _ in range(4)])
        stacked = proc.dual(xs)
        assert stacked.shape == (4, proc.d_prog, proc.d_prog)
        for x, out in zip(xs, stacked):
            assert np.abs(out - proc.dual(x)).max() <= 1e-12


# two equal maps built apart: the named constructors share one map per argument
@pytest.mark.parametrize("make", [
    lambda: ProcessorMap(np.eye(16), d_prog=4, d_in=2, d_out=2),
    lambda: DensityMatrix(np.eye(2) / 2),
    lambda: choi_of_channel(amplitude_damping(0.3)),
    lambda: amplitude_damping(0.3),
], ids=["ProcessorMap", "DensityMatrix", "ChoiMatrix", "KrausChannel"])
def test_array_holding_types_compare_by_identity(make):
    a, b = make(), make()
    assert a != b
    assert a == a
    assert len({a, b, a}) == 2


def test_dual_of_identity_is_identity():
    for proc, _ in _all_processors():
        out = proc.dual(np.eye(proc.d_choi, dtype=complex))
        assert np.abs(out - np.eye(proc.d_prog)).max() <= 1e-8


@pytest.mark.parametrize("p, path", [(1e-10, "cholesky"), (2e-8, "eigvalsh"),
                                     (1e-6, "rejected")])
def test_complete_positivity_check(monkeypatch, p, path):
    # Lambda = (1 - p) id + p transpose on 4 x 4 programs: its Choi operator
    # (1 - p) |Phi><Phi| + p SWAP has a unit diagonal and lambda_min = -p.  A
    # shifted Cholesky factor accepts small p; the spectrum decides the rest
    swap = np.eye(16).reshape(4, 4, 4, 4).transpose(1, 0, 2, 3).reshape(16, 16)
    spectra = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: spectra.append(a.shape) or eigvalsh(a))

    def make():
        return ProcessorMap((1 - p) * np.eye(16) + p * swap, d_prog=4, d_in=2, d_out=2)

    if path == "rejected":
        with pytest.raises(ValueError,
                           match=r"not completely positive \(lambda_min = -1\.000e-06\)"):
            make()
    else:
        make()
    assert spectra == ([] if path == "cholesky" else [(16, 16)])


def test_processor_map_keeps_its_own_arrays():
    # a map that aliased the caller's transfer would change after its checks:
    # zeroing the array used to make dual(I) = 0
    transfer, iso = np.eye(16, dtype=complex), np.eye(4)[None]
    proc = ProcessorMap(transfer, d_prog=4, d_in=2, d_out=2, symmetry=lambda: (iso,))
    coords = proc.block_coords
    assert transfer.flags.writeable and iso.flags.writeable
    transfer[:], iso[:] = 0, 0
    assert np.array_equal(proc.dual(np.eye(4)), np.eye(4))
    assert np.array_equal(coords.isometries[0][0], np.eye(4)[None])


# --- shared maps --------------------------------------------------------------


@pytest.mark.parametrize("calls", [
    [lambda: teleportation_processor(), lambda: teleportation_processor(2),
     lambda: teleportation_processor(d=2)],
    [lambda: pbt_processor(3), lambda: pbt_processor(3, 2), lambda: pbt_processor(n_ports=3),
     lambda: pbt_processor(3, d=2), lambda: pbt_processor(n_ports=3, d=2)],
    [lambda: pbt_reduced_map(4), lambda: pbt_reduced_map(4, 2),
     lambda: pbt_reduced_map(n_ports=4), lambda: pbt_reduced_map(n_ports=4, d=2)],
], ids=["teleportation", "pbt", "pbt_reduced"])
def test_named_constructors_share_one_map_per_argument(calls):
    first = calls[0]()
    assert all(call() is first for call in calls)


@pytest.mark.parametrize("make, build, args", [
    (teleportation_processor, processors._teleportation_processor, (2,)),
    (teleportation_processor, processors._teleportation_processor, (3,)),
    (pbt_processor, processors._pbt_processor, (2, 2)),
    (pbt_processor, processors._pbt_processor, (3, 2)),
    (pbt_reduced_map, processors._pbt_reduced_map, (4, 2)),
])
def test_shared_map_equals_a_fresh_build(make, build, args):
    shared, fresh = make(*args), build.__wrapped__(*args)
    assert shared is not fresh
    assert (shared.label, shared.d_prog, shared.program_domain) == (
        fresh.label, fresh.d_prog, fresh.program_domain)
    assert np.array_equal(shared.transfer, fresh.transfer)
    assert np.array_equal(shared.block_coords.transfer, fresh.block_coords.transfer)


@pytest.mark.parametrize("call, build, error", [
    (lambda: pbt_processor(4), processors._pbt_processor, CapacityError),
    (lambda: teleportation_processor(6), processors._teleportation_processor, CapacityError),
    (lambda: pbt_reduced_map(9), processors._pbt_reduced_map, CapacityError),
    (lambda: pbt_reduced_map(0), processors._pbt_reduced_map, ValueError),
])
def test_invalid_arguments_raise_on_every_call(call, build, error):
    cached = build.cache_info().currsize
    for _ in range(3):
        with pytest.raises(error):
            call()
    assert build.cache_info().currsize == cached


def test_a_float_argument_is_not_the_integer_key():
    pbt_processor(2, 2)
    with pytest.raises(TypeError):
        pbt_processor(2, 2.0)


@pytest.mark.parametrize("make", [
    lambda: teleportation_processor(2),
    lambda: pbt_processor(2),
    lambda: pbt_reduced_map(3),
    lambda: pqc_processor(2),
], ids=["teleportation", "pbt", "pbt_reduced", "pqc"])
def test_processor_arrays_are_read_only(make):
    proc = make()
    coords = proc.block_coords
    arrays = [proc.transfer, coords.transfer, coords.counts, *coords.copies,
              *(v for members in coords.isometries for v in members)]
    for a in arrays:
        corner = (0,) * a.ndim
        with pytest.raises(ValueError, match="read-only"):
            a[corner] = a[corner]  # the same value: a writable array keeps its data


# --- teleportation ------------------------------------------------------------


def test_weyl_qubit_frame():
    ws = weyl_unitaries(2)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    targets = [np.eye(2, dtype=complex), z, x, y]
    for w, t in zip(ws, targets):
        # equal up to a phase
        overlap = abs(np.trace(t.conj().T @ w)) / 2.0
        assert np.isclose(overlap, 1.0, atol=1e-12)


def test_weyl_phases_are_exact():
    # exact +-1 and +-i clock phases keep the qubit frame, and so
    # teleportation's transfer, real: its SDP programs solve in real arithmetic
    x = np.array([[0, 1], [1, 0]])
    z = np.diag([1, -1])
    for w, t in zip(weyl_unitaries(2), [np.eye(2), z, x, x @ z]):
        assert np.array_equal(w, t)
    assert np.array_equal(weyl_unitaries(4)[1], np.diag([1, 1j, -1, -1j]))
    assert not np.any(teleportation_processor(2).transfer.imag)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_weyl_orthogonality_and_unitarity(d):
    ws = weyl_unitaries(d)
    assert len(ws) == d * d
    gram = np.array([[np.trace(a.conj().T @ b) for b in ws] for a in ws])
    assert np.abs(gram - d * np.eye(d * d)).max() <= 1e-12
    for w in ws:
        assert np.abs(w.conj().T @ w - np.eye(d)).max() <= 1e-12


def test_teleportation_fixes_max_entangled():
    tele = teleportation_processor(2)
    assert np.abs(tele.apply_matrix(PHI) - PHI).max() <= 1e-12


def test_teleportation_self_dual():
    rng = np.random.default_rng(13)
    tele = teleportation_processor(2)
    kraus = [np.kron(w.conj(), w) / 2 for w in weyl_unitaries(2)]
    for _ in range(5):
        x = random_hermitian(4, rng)
        forward = sum(k @ x @ k.conj().T for k in kraus)
        assert np.abs(forward - tele.dual(x)).max() <= 1e-10


def test_teleportation_bell_diagonalizes():
    rng = np.random.default_rng(14)
    tele = teleportation_processor(2)
    bells = qubit_bell_basis()
    pi = random_density(4, rng).matrix
    out = tele.apply_matrix(pi)
    expected = sum(
        np.real(np.vdot(b, pi @ b)) * np.outer(b, b.conj()) for b in bells
    )
    assert np.abs(out - expected).max() <= 1e-12


def test_teleportation_erases_bell_coherences():
    tele = teleportation_processor(2)
    bells = qubit_bell_basis()
    coherence = np.outer(bells[0], bells[1].conj())
    pi = 0.5 * (np.outer(bells[0], bells[0].conj()) + np.outer(bells[1], bells[1].conj()))
    assert np.abs(
        tele.apply_matrix(pi + coherence + coherence.conj().T) - tele.apply_matrix(pi)
    ).max() <= 1e-12


def test_processor_apply_affine():
    rng = np.random.default_rng(15)
    proc = pbt_processor(2, 2)
    a = random_density(16, rng).matrix
    b = random_density(16, rng).matrix
    lhs = proc.apply_matrix(0.5 * (a + b))
    rhs = 0.5 * (proc.apply_matrix(a) + proc.apply_matrix(b))
    assert np.abs(lhs - rhs).max() <= 1e-12


# --- port-based teleportation ---------------------------------------------------


def test_pbt_povm_trivial_case():
    (ident,) = pbt_povm(1, 2)
    assert np.allclose(ident, np.eye(4))


def test_pbt_povm_completeness_and_psd():
    for n, d in ((2, 2), (3, 2), (2, 3)):
        povm = pbt_povm(n, d)
        total = sum(povm)
        assert np.abs(total - np.eye(d ** (n + 1))).max() <= 1e-8
        for el in povm:
            assert np.linalg.eigvalsh(el).min() >= -1e-10


def test_pbt_povm_port_permutation():
    from qprogopt.hermlin import permute_subsystems

    povm = pbt_povm(2, 2)
    swapped = permute_subsystems(povm[0], [2, 2, 2], [1, 0, 2])
    assert np.abs(swapped - povm[1]).max() <= 1e-10


def test_pbt_n1_gives_maximally_mixed_output():
    proc = pbt_processor(1, 2)
    assert np.abs(proc.apply_matrix(PHI) - np.eye(4) / 4).max() <= 1e-12


@pytest.mark.parametrize("n, d", [(2, 2), (3, 2), (2, 3)])
def test_pbt_povm_matches_oracle(n, d):
    for el, ref in zip(pbt_povm(n, d), pbt_srm_dense(n, d), strict=True):
        assert np.abs(el - ref).max() <= 1e-12


def test_pbt_full_matches_dense_oracle():
    rng = np.random.default_rng(16)
    for n, d, tol in ((1, 2, 1e-12), (1, 3, 1e-12), (2, 2, 1e-12), (3, 2, 1e-10)):
        povm = pbt_srm_dense(n, d)
        proc = pbt_processor(n, d)
        for _ in range(3):
            pi = random_density(d ** (2 * n), rng).matrix
            dense = pbt_apply_dense(n, d, povm, pi)
            assert np.abs(proc.apply_matrix(pi) - dense).max() <= tol


@pytest.mark.parametrize("d", [2, 3])
def test_pbt_reduced_n1_is_full_n1(d):
    # both maps route their port elements through the same transfer
    assert np.array_equal(pbt_reduced_map(1, d).transfer, pbt_processor(1, d).transfer)


def test_pbt_choi_program_composes_with_channel():
    # program chi_E^(x N) simulates E applied after the identity simulation
    n = 2
    proc = pbt_processor(n, 2)
    channel = amplitude_damping(0.4)
    chi_e = choi_of_channel(channel).matrix
    prog = np.kron(chi_e, chi_e)
    chi_in = proc.apply_matrix(np.kron(PHI, PHI))  # Choi of the identity simulation
    expected = sum(
        np.kron(np.eye(2), k) @ chi_in @ np.kron(np.eye(2), k).conj().T
        for k in channel.kraus_ops
    )
    assert np.abs(proc.apply_matrix(prog) - expected).max() <= 1e-10


def test_pbt_port_permuted_program_same_output():
    rng = np.random.default_rng(17)
    proc = pbt_processor(2, 2)
    pi = random_density(16, rng).matrix
    for order in itertools.permutations(range(2)):
        permuted = permute_ports(pi, 2, 2, order)
        assert np.abs(proc.apply_matrix(permuted) - proc.apply_matrix(pi)).max() <= 1e-9


def test_pbt_capacity_errors():
    with pytest.raises(CapacityError):
        pbt_processor(4, 2)
    with pytest.raises(CapacityError):
        pbt_reduced_map(9, 2)
    with pytest.raises(CapacityError):
        teleportation_processor(6)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pbt_reduced_matches_full(n):
    rng = np.random.default_rng(18 + n)
    full = pbt_processor(n, 2)
    red = pbt_reduced_map(n, 2)
    for _ in range(3):
        chi = random_choi(2, rng).matrix
        prog = chi.copy()
        for _ in range(n - 1):
            prog = np.kron(prog, chi)
        assert np.abs(full.apply_matrix(prog) - red.apply_matrix(chi)).max() <= 1e-8


_DENSE_ORACLE_CASES = [(2, n) for n in range(1, 9)] + [(3, n) for n in range(1, 5)]


# the case ids ("d-n-False") are fixed: recorded suite runs name the cases by them
@pytest.mark.parametrize("d, n", _DENSE_ORACLE_CASES,
                         ids=[f"{d}-{n}-False" for d, n in _DENSE_ORACLE_CASES])
def test_pbt_reduced_matches_dense_oracle(d, n):
    ref = pbt_reduced_dense(n, d)
    assert np.abs(pbt_reduced_map(n, d).transfer - ref).max() <= 1e-12


def test_pbt_fidelity_closed_form():
    for d in (2, 3):
        assert _pbt_fidelity(1, d) == 1.0 / d**2
    # <Phi| Lambda(Phi^(tensor N)) |Phi> of the full processor
    for n, d in ((2, 2), (3, 2), (1, 3)):
        phi = max_entangled(d).matrix
        prog = phi
        for _ in range(n - 1):
            prog = np.kron(prog, phi)
        out = pbt_processor(n, d).apply_matrix(prog)
        assert abs(np.trace(phi @ out).real - _pbt_fidelity(n, d)) <= 1e-12


def test_pbt_reduced_input_errors():
    with pytest.raises(ValueError):
        pbt_reduced_map(0)
    with pytest.raises(ValueError):
        pbt_reduced_map(2, 1)


def test_pbt_reduced_identity_error_decreases():
    prev = math.inf
    for n in range(2, 6):
        red = pbt_reduced_map(n, 2)
        err = cost_eval("C1", PHI, red.apply_matrix(PHI))
        assert err < prev
        prev = err


def test_pbt_identity_simulation_is_depolarizing_threshold():
    # the standard three-port protocol applies exactly a half-depolarizing
    # channel, which is why depolarizing targets with p >= 0.5 are exact
    red = pbt_reduced_map(3, 2)
    out = red.apply_matrix(PHI)
    chi_dep = choi_of_channel(depolarizing(0.5)).matrix
    assert np.abs(out - chi_dep).max() <= 1e-10
    # with the matching complement program the target at threshold is exact
    assert cost_eval("C1", chi_dep, red.apply_matrix(PHI)) <= 1e-10


def test_pbt_reduced_linear():
    rng = np.random.default_rng(19)
    red = pbt_reduced_map(3, 2)
    a = random_choi(2, rng).matrix
    b = random_choi(2, rng).matrix
    lhs = red.apply_matrix(0.25 * a + 0.75 * b)
    rhs = 0.25 * red.apply_matrix(a) + 0.75 * red.apply_matrix(b)
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_symmetrize_program():
    rng = np.random.default_rng(20)
    proc = pbt_processor(2, 2)
    pi = random_density(16, rng).matrix
    sym = symmetrize_program(pi, 2, 2)
    assert isinstance(sym, DensityMatrix)
    # fixed point and port invariance
    again = symmetrize_program(sym.matrix, 2, 2)
    assert np.abs(again.matrix - sym.matrix).max() <= 1e-12
    assert np.abs(permute_ports(sym.matrix, 2, 2, (1, 0)) - sym.matrix).max() <= 1e-12
    # same simulated channel
    assert np.abs(proc.apply_matrix(sym.matrix) - proc.apply_matrix(pi)).max() <= 1e-9


def test_symmetric_param_count():
    assert symmetric_param_count(1, 2) == 16
    assert symmetric_param_count(2, 2) == math.comb(17, 15) == 136
    # polynomial growth: the count is a degree-15 polynomial in N for qubits
    for n in (4, 16, 64):
        assert symmetric_param_count(n, 2) == math.comb(n + 15, 15)
        assert symmetric_param_count(n, 2) <= (n + 15) ** 15


def _isometries(proc):
    """The (copies, d_prog, m) isometry stack of each program block, in class order."""
    return [v for members in proc.block_coords.isometries for v in members]


def _block_part(proc, pi):
    """E(pi) = sum_blocks sum_c V_c (sum_c' V_c'^dag pi V_c' / copies) V_c^dag."""
    return sum(vc @ (sum(w.conj().T @ pi @ w for w in v) / len(v)) @ vc.conj().T
               for v in _isometries(proc) for vc in v)


def _blocked(n):
    """pbt_processor(n), its port relabelings, and the oracle port average of a program."""
    proc = pbt_processor(n)
    us = [permute_ports(np.eye(proc.d_prog), n, 2, order)
          for order in itertools.permutations(range(n))]
    return proc, us, lambda pi: symmetrize_program(pi, n, 2).matrix


BLOCKED = [1, 2, 3]


@pytest.mark.parametrize("n", BLOCKED)
def test_program_blocks_orthonormal_and_complete(n):
    proc, _, _ = _blocked(n)
    cols = np.concatenate([np.concatenate(list(v), axis=1) for v in _isometries(proc)], axis=1)
    assert cols.shape == (proc.d_prog, proc.d_prog)
    assert np.abs(cols.conj().T @ cols - np.eye(proc.d_prog)).max() <= 1e-12


@pytest.mark.parametrize("n", BLOCKED)
def test_program_blocks_commute_with_the_symmetry(n):
    proc, us, _ = _blocked(n)
    rng = np.random.default_rng(23)
    pi = sum(vc @ random_hermitian(v.shape[2], rng) @ vc.conj().T
             for v in _isometries(proc) for vc in v)
    for u in us:
        assert np.abs(u @ pi @ u.conj().T - pi).max() <= 1e-12


@pytest.mark.parametrize("n", BLOCKED)
def test_program_blocks_lose_no_output(n):
    proc, _, average = _blocked(n)
    rng = np.random.default_rng(24)
    pi = random_density(proc.d_prog, rng).matrix
    twirled = average(pi)
    # the block part of pi is the group average, which the map cannot tell from pi
    assert np.abs(_block_part(proc, pi) - twirled).max() <= 1e-12
    assert np.abs(proc.apply_matrix(twirled) - proc.apply_matrix(pi)).max() <= 1e-12


@pytest.mark.parametrize("n, count", [(1, 16), (2, 136), (3, 816)])
def test_pbt_block_sizes_give_symmetric_param_count(n, count):
    sizes = [v.shape[2] for v in _isometries(pbt_processor(n))]
    assert sum(m * m for m in sizes) == symmetric_param_count(n) == count


def test_processor_rejects_blocks_that_are_not_a_basis():
    proc = pbt_processor(2)
    for blocks in (_isometries(proc)[:1], (2.0 * np.eye(proc.d_prog)[None],)):
        bad = ProcessorMap(proc.transfer, proc.d_prog, proc.d_in, proc.d_out,
                           symmetry=lambda b=blocks: b)
        with pytest.raises(ValueError, match="orthonormal basis"):
            bad.block_coords


SYMMETRIC = {
    **{f"tele d={d}": functools.partial(teleportation_processor, d) for d in (2, 3)},
    **{f"pqc N={n}": functools.partial(pqc_processor, n) for n in (1, 2, 3)},
    **{f"pqc N={n} damping": functools.partial(pqc_processor, n,
                                               h0=amplitude_damping_hamiltonian(0.3))
       for n in (1, 2, 3)},
    **{f"mpqc N={n}": functools.partial(mpqc_processor, n) for n in (1, 2)},
    **{f"pbt N={n}": functools.partial(pbt_processor, n) for n in (2, 3)},
}


@pytest.mark.parametrize("key", list(SYMMETRIC))
def test_declared_symmetry_loses_no_output(key):
    proc = SYMMETRIC[key]()
    rng = np.random.default_rng(26)
    for _ in range(3):
        pi = random_density(proc.d_prog, rng).matrix
        lost = proc.apply_matrix(pi) - proc.apply_matrix(_block_part(proc, pi))
        assert np.linalg.norm(lost) <= 1e-12


@pytest.mark.parametrize("key", list(SYMMETRIC))
def test_block_coordinates_apply_and_dual(key):
    proc = SYMMETRIC[key]()
    coords = proc.block_coords
    rng = np.random.default_rng(27)
    pi = random_density(proc.d_prog, rng).matrix
    stacks = coords.part(pi)
    assert [s.shape for s in stacks] == list(coords.shapes)
    assert np.abs(coords.embed(stacks) - _block_part(proc, pi)).max() <= 1e-12
    assert np.abs(proc.apply_matrix(stacks, blocks=True) - proc.apply_matrix(pi)).max() <= 1e-12
    x = random_hermitian(proc.d_choi, rng)
    dual = coords.embed(proc.dual(x, blocks=True))
    assert np.abs(dual - _block_part(proc, hermitize(proc.dual(x)))).max() <= 1e-12
    # each block eigenvalue counts once per copy: the counts add up to d_prog
    assert coords.counts.sum() == proc.d_prog
    # stacks: (k, nb, m, m) per class, matrix by matrix as the single calls
    xs = np.array([random_hermitian(proc.d_choi, rng) for _ in range(3)])
    pis = np.array([random_density(proc.d_prog, rng).matrix for _ in range(3)])
    for stacked, single in ((proc.dual(xs, blocks=True), [proc.dual(x, blocks=True) for x in xs]),
                            (coords.part(pis), [coords.part(p) for p in pis])):
        assert [s.shape for s in stacked] == [(3,) + shape for shape in coords.shapes]
        for k, one in enumerate(single):
            assert all(np.abs(s[k] - o).max() <= 1e-12 for s, o in zip(stacked, one))


def test_processors_without_a_symmetry_keep_the_identity_block():
    tele = teleportation_processor(2)
    plain = ProcessorMap(tele.transfer, tele.d_prog, tele.d_in, tele.d_out)
    for proc in (pbt_reduced_map(2), pbt_reduced_map(3), plain):
        (v,) = _isometries(proc)
        assert np.array_equal(v, np.eye(proc.d_prog)[None])
        # the block coordinates are pi[None] and the block transfer is S, bit for bit
        assert np.array_equal(proc.block_coords.transfer, proc.transfer)


# --- circuit processors ---------------------------------------------------------


def test_pqc_amplitude_damping_special_point():
    for p in (0.25, 0.5, 0.9):
        h_ad = amplitude_damping_hamiltonian(p)
        u = matrix_function(h_ad, lambda x: np.exp(1j * x))
        expected = np.array(
            [
                [1, 0, 0, 0],
                [0, math.sqrt(1 - p), math.sqrt(p), 0],
                [0, -math.sqrt(p), math.sqrt(1 - p), 0],
                [0, 0, 0, 1],
            ],
            dtype=complex,
        )
        assert np.abs(u - expected).max() <= 1e-12
        proc = pqc_processor(1, h0=h_ad)
        prog = np.zeros((4, 4), dtype=complex)
        prog[0, 0] = 1.0
        chi_ad = choi_of_channel(amplitude_damping(p)).matrix
        assert cost_eval("C1", chi_ad, proc.apply_matrix(prog)) <= 1e-10


def test_pqc_basis_program_is_gate_product():
    # registers (b1, b2) = (0, 1): gate 1 applies U0, then gate 2 applies U1
    h0, h1 = default_pqc_hamiltonians()
    proc = pqc_processor(2)
    u0 = matrix_function(h0, lambda x: np.exp(1j * x))
    u1 = matrix_function(h1, lambda x: np.exp(1j * x))
    vec = np.zeros(8, dtype=complex)
    vec[1] = 1.0  # (r0, r1, r2) = (0, 0, 1)
    prog = np.outer(vec, vec.conj())
    big_u = u1 @ u0
    ops = [big_u.reshape(2, 2, 2, 2)[:, m, :, 0].reshape(2, 2) for m in range(2)]
    from qprogopt.channels import KrausChannel

    direct = choi_of_channel(KrausChannel(tuple(ops), 2, 2)).matrix
    assert np.abs(proc.apply_matrix(prog) - direct).max() <= 1e-12


def test_pqc_stinespring_power_program():
    # all registers in |0>: N applications of U0 on (A, R0)
    h0, _ = default_pqc_hamiltonians()
    n = 3
    proc = pqc_processor(n)
    u0 = matrix_function(h0, lambda x: np.exp(1j * x))
    prog = np.zeros((2 ** (n + 1),) * 2, dtype=complex)
    prog[0, 0] = 1.0
    big_u = np.linalg.matrix_power(u0, n)
    ops = [big_u.reshape(2, 2, 2, 2)[:, m, :, 0].reshape(2, 2) for m in range(2)]
    from qprogopt.channels import KrausChannel

    direct = choi_of_channel(KrausChannel(tuple(ops), 2, 2)).matrix
    assert np.abs(proc.apply_matrix(prog) - direct).max() <= 1e-11


def test_mpqc_idle_registers_give_identity():
    proc = mpqc_processor(1)
    theta0 = np.zeros((2, 2), dtype=complex)
    theta0[0, 0] = 1.0
    idle = np.zeros((3, 3), dtype=complex)
    idle[2, 2] = 1.0
    prog = np.kron(theta0, idle)
    assert np.abs(proc.apply_matrix(prog) - PHI).max() <= 1e-12


def test_mpqc_embeds_shallower_pqc():
    rng = np.random.default_rng(21)
    deep = mpqc_processor(2)
    shallow = pqc_processor(1)
    pi = random_density(4, rng).matrix  # program on (R0, R1) qubits
    embed = np.zeros((3, 2), dtype=complex)
    embed[0, 0] = embed[1, 1] = 1.0
    iso = np.kron(np.eye(2), embed)
    idle = np.zeros((3, 3), dtype=complex)
    idle[2, 2] = 1.0
    prog = np.kron(iso @ pi @ iso.conj().T, idle)
    assert np.abs(deep.apply_matrix(prog) - shallow.apply_matrix(pi)).max() <= 1e-11


def test_circuit_capacity_errors():
    with pytest.raises(CapacityError):
        pqc_processor(7)
    with pytest.raises(CapacityError):
        mpqc_processor(5)


def test_program_dimension_mismatch():
    proc = pqc_processor(1)
    with pytest.raises(ValueError, match="program shape"):
        proc.apply_matrix(np.eye(8) / 8)
    with pytest.raises(ValueError, match="observable shape"):
        proc.dual(np.eye(8))


@pytest.mark.parametrize("call, match", [
    (lambda: ProcessorMap(np.zeros((16, 9)), d_prog=4, d_in=2, d_out=2),
     r"transfer shape \(16, 9\), expected \(16, 16\)"),
    (lambda: ProcessorMap(np.zeros((16, 16)), d_prog=4, d_in=2, d_out=2),
     r"dual\(I\) deviates from I"),
    (lambda: pbt_povm(0), "need N >= 1"),
    (lambda: pbt_povm(2, 1), "need d >= 2"),
    (lambda: symmetric_param_count(0), "need N >= 1"),
    (lambda: amplitude_damping_hamiltonian(1.5), r"outside \[0, 1\]"),
    (lambda: pqc_processor(1, np.eye(4), np.eye(2)), "square and same shape"),
    (lambda: mpqc_processor(1, np.eye(3), np.eye(3)), "with a qubit R0"),
], ids=["transfer-shape", "not-trace-preserving", "povm-N", "povm-d", "param-count-N",
        "damping-p", "hamiltonian-shapes", "hamiltonian-odd"])
def test_processors_reject_malformed_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()
