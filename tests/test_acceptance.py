"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line with its measured figure of merit.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import math
import time

import numpy as np

from qprogopt.channels import (
    choi_of_channel,
    amplitude_damping,
    cost_eval,
    depolarizing,
    max_entangled,
    pauli_channel,
    rotation,
    trace_distance_cost,
)
from qprogopt.hermlin import hermitize
from qprogopt.optim import (
    OptimConfig,
    grad_infidelity,
    grad_smoothed_cost,
    grad_trace_cost,
    learn_unitary_program,
    projected_subgradient,
    simulation_cost,
)
from qprogopt.processors import (
    amplitude_damping_hamiltonian,
    mpqc_processor,
    pbt_processor,
    pbt_reduced_map,
    pqc_processor,
    teleportation_processor,
)
from qprogopt.rand import random_channel, random_traceless_direction
from qprogopt.sdp import (
    diamond_distance,
    optimize_choi_diamond,
    optimize_program_diamond,
    optimize_program_trace,
    solve_sdp,
)

from oracles import admm_baseline, diamond_grid_oracle, random_program, random_sdp

TELE = teleportation_processor(2)
PHI = max_entangled(2).matrix
PINSKER = math.sqrt(2.0 * math.log(2.0))


def _report(criterion, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] acceptance {criterion}: {detail}")
    assert ok, f"acceptance {criterion}: {detail}"


def test_criterion_1_pauli_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(10):
        probs = rng.dirichlet(np.ones(4))
        chi_p = choi_of_channel(pauli_channel(probs)).matrix
        _, v1 = optimize_program_trace(TELE, chi_p)
        _, vd = optimize_program_diamond(TELE, chi_p)
        worst = max(worst, v1, vd)
    dt = time.perf_counter() - t0
    _report(
        "1 (Pauli exactness)",
        worst <= 1e-6 and dt < 10.0,
        f"worst cost {worst:.2e} (<= 1e-6), runtime {dt:.1f}s (< 10s)",
    )


def test_criterion_2_teleportation_covariance():
    t0 = time.perf_counter()
    finals = {}
    for theta in (0.0, math.pi / 2, math.pi):
        chi = choi_of_channel(rotation(theta)).matrix
        res = projected_subgradient(TELE, chi, OptimConfig(max_iters=200, cost_kind="C1"))
        finals[theta] = res.final_cost
        assert res.cost_trace[-1][0] <= 200
    chi = choi_of_channel(rotation(math.pi / 4)).matrix
    res = projected_subgradient(TELE, chi, OptimConfig(max_iters=200, cost_kind="C1"))
    plateau = res.final_cost
    dt = time.perf_counter() - t0
    ok = max(finals.values()) <= 1e-4 and plateau > 1e-3 and dt < 30.0
    _report(
        "2 (teleportation covariance)",
        ok,
        f"covariant C1 <= {max(finals.values()):.2e} (<= 1e-4), "
        f"pi/4 plateau {plateau:.3f} (> 0), runtime {dt:.1f}s (< 30s)",
    )


def test_criterion_3_pbt_identity_scaling():
    t0 = time.perf_counter()
    values = []
    for n in range(2, 7):
        _, val = optimize_choi_diamond(n, 2, PHI)
        values.append(val)
    mono = all(b <= a + 1e-6 for a, b in zip(values, values[1:]))
    bound = all(v <= 4.0 / n + 1e-6 for v, n in zip(values, range(2, 7)))
    dt = time.perf_counter() - t0
    _report(
        "3 (PBT identity scaling)",
        mono and bound and dt < 300.0,
        f"errors {['%.4f' % v for v in values]} vs bounds "
        f"{['%.4f' % (4.0 / n) for n in range(2, 7)]}, runtime {dt:.1f}s (< 5min)",
    )


def test_criterion_4_depolarizing_thresholds():
    t0 = time.perf_counter()
    pbt3 = pbt_processor(3, 2)
    pbt2 = pbt_processor(2, 2)
    exact3 = []
    for p in (0.5, 0.6, 0.8):
        chi = choi_of_channel(depolarizing(p)).matrix
        _, val = optimize_program_diamond(pbt3, chi)
        exact3.append(val)
    chi = choi_of_channel(depolarizing(0.75)).matrix
    _, v2_hi = optimize_program_diamond(pbt2, chi)
    chi = choi_of_channel(depolarizing(0.5)).matrix
    _, v2_lo = optimize_program_diamond(pbt2, chi)
    dt = time.perf_counter() - t0
    ok = max(exact3) <= 1e-6 and v2_hi <= 1e-6 and v2_lo > 1e-3 and dt < 120.0
    _report(
        "4 (depolarizing thresholds)",
        ok,
        f"N=3 worst {max(exact3):.2e} (<= 1e-6), N=2 p=0.75 {v2_hi:.2e} (<= 1e-6), "
        f"N=2 p=0.5 {v2_lo:.3f} (> 1e-3), runtime {dt:.1f}s (< 2min)",
    )


def test_criterion_5_optimized_beats_choi():
    t0 = time.perf_counter()
    worst_margin = math.inf
    for n in (2, 3):
        proc = pbt_processor(n, 2)
        for p in np.arange(0.1, 0.95, 0.1):
            chi_e = choi_of_channel(amplitude_damping(float(p))).matrix
            prog_choi = chi_e.copy()
            for _ in range(n - 1):
                prog_choi = np.kron(prog_choi, chi_e)
            base_c1 = trace_distance_cost(chi_e, proc.apply_matrix(prog_choi))
            base_cd = diamond_distance(chi_e - proc.apply_matrix(prog_choi), 2)
            _, v1 = optimize_program_trace(proc, chi_e)
            _, vd = optimize_program_diamond(proc, chi_e)
            worst_margin = min(worst_margin, base_c1 - v1, base_cd - vd)
    dt = time.perf_counter() - t0
    _report(
        "5 (optimized beats Choi program)",
        worst_margin >= -1e-8 and dt < 600.0,
        f"worst margin {worst_margin:.3e} (>= -1e-8), runtime {dt:.1f}s (< 10min)",
    )


def test_criterion_6_unitary_learning_law():
    from qprogopt.channels import unitary_channel

    theta = 0.7
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    u = math.cos(theta) * np.eye(2) + 1j * math.sin(theta) * x
    chi_u = choi_of_channel(unitary_channel(u)).matrix
    fixed = learn_unitary_program(TELE, u).matrix
    pi1 = np.eye(4, dtype=complex) / 4
    pi = pi1.copy()
    worst = 0.0
    for k in range(1, 50):
        g = grad_infidelity(TELE, chi_u, pi)
        vals, vecs = np.linalg.eigh(hermitize(g))
        v = vecs[:, 0]
        pi = (k / (k + 2)) * pi + (2 / (k + 2)) * np.outer(v, v.conj())
        w = 2.0 / ((k + 1) + (k + 1) ** 2)
        predicted = w * pi1 + (1 - w) * fixed
        worst = max(worst, float(np.abs(pi - predicted).max()))
    _report(
        "6 (unitary-learning mixing law)",
        worst <= 1e-12,
        f"max deviation from 2/(k+k^2) weights {worst:.2e} (<= 1e-12, k <= 50)",
    )


def _fd_check(proc, chi_e, pi, kind, mu, eps, rng, n_dirs=20):
    g = {
        "C1": lambda: grad_trace_cost(proc, chi_e, pi),
        "CF": lambda: grad_infidelity(proc, chi_e, pi),
        "Cmu": lambda: grad_smoothed_cost(proc, chi_e, pi, mu),
    }[kind]()
    worst = 0.0
    for _ in range(n_dirs):
        direction = random_traceless_direction(proc.d_prog, rng)
        cp = simulation_cost(proc, chi_e, pi + eps * direction, kind, mu)
        cm = simulation_cost(proc, chi_e, pi - eps * direction, kind, mu)
        fd = (cp - cm) / (2 * eps)
        an = float(np.real(np.trace(g @ direction)))
        worst = max(worst, abs(fd - an) / max(1.0, abs(fd)))
    return worst


def test_criterion_7_gradient_oracles():
    rng = np.random.default_rng(107)
    families = [TELE, pbt_processor(2, 2), pbt_reduced_map(3, 2), pqc_processor(2)]
    details = []
    ok = True
    for proc in families:
        chi_e = choi_of_channel(random_channel(2, rng=rng)).matrix
        pi = 0.6 * random_program(proc, rng).matrix + 0.4 * np.eye(proc.d_prog) / proc.d_prog
        # keep the trace cost away from its kinks
        delta = hermitize(proc.apply_matrix(pi) - chi_e)
        while np.abs(np.linalg.eigvalsh(delta)).min() < 1e-3:
            chi_e = choi_of_channel(random_channel(2, rng=rng)).matrix
            delta = hermitize(proc.apply_matrix(pi) - chi_e)
        w1 = _fd_check(proc, chi_e, pi, "C1", 1e-2, 1e-5, rng)
        wf = _fd_check(proc, chi_e, pi, "CF", 1e-2, 1e-4, rng)
        wm = _fd_check(proc, chi_e, pi, "Cmu", 1e-2, 1e-4, rng)
        ok = ok and w1 <= 1e-4 and wf <= 1e-6 and wm <= 1e-6
        details.append(f"{proc.label}: C1 {w1:.1e}, CF {wf:.1e}, Cmu {wm:.1e}")
    _report(
        "7 (gradient oracles)",
        ok,
        "; ".join(details) + " (tols 1e-4 / 1e-6 / 1e-6)",
    )


def test_criterion_8_cost_hierarchy():
    rng = np.random.default_rng(108)
    families = [TELE, pbt_processor(2, 2), pqc_processor(2)]
    mu = 1e-2
    worst_slack = 0.0
    for proc in families:
        d = proc.d_in
        for _ in range(50):
            chi_e = choi_of_channel(random_channel(2, rng=rng)).matrix
            pi = random_program(proc, rng).matrix
            chi_pi = proc.apply_matrix(pi)
            c1 = cost_eval("C1", chi_e, chi_pi)
            cf = cost_eval("CF", chi_e, chi_pi)
            cr = cost_eval("CR", chi_e, chi_pi)
            cm = cost_eval("Cmu", chi_e, chi_pi, mu=mu)
            cd = diamond_distance(chi_e - chi_pi, d)
            dim_choi = chi_e.shape[0]
            slacks = [
                c1 - cd,
                cd - d * c1,
                d * c1 - 2 * d * math.sqrt(max(cf, 0.0)),
                c1 - PINSKER * math.sqrt(cr) if math.isfinite(cr) else -1.0,
                cm - c1,
                c1 - cm - mu * dim_choi / 2.0,
            ]
            worst_slack = max(worst_slack, max(slacks))
    _report(
        "8 (cost hierarchy)",
        worst_slack <= 1e-9,
        f"worst inequality slack {worst_slack:.2e} (<= 1e-9) over 150 instances",
    )


def test_criterion_9_sdp_soundness():
    rng = np.random.default_rng(109)
    worst_obj = 0.0
    for _ in range(50):
        prob = random_sdp(rng, block_dims=(3, 2), m=4)
        sol = solve_sdp(prob)
        ref = admm_baseline(prob)
        worst_obj = max(worst_obj,
                        abs(sol.primal_objective - ref) / max(1.0, abs(ref)))
    worst_diamond = 0.0
    for seed in range(5):
        prng = np.random.default_rng(200 + seed)
        a = choi_of_channel(random_channel(2, rng=prng)).matrix
        b = choi_of_channel(random_channel(2, rng=prng)).matrix
        sdp_val = diamond_distance(a - b, 2)
        oracle = diamond_grid_oracle(a - b)
        worst_diamond = max(worst_diamond, abs(sdp_val - oracle))
    _report(
        "9 (SDP soundness)",
        worst_obj <= 1e-6 and worst_diamond <= 1e-3,
        f"objective vs first-order baseline {worst_obj:.2e} (<= 1e-6), "
        f"diamond vs grid oracle {worst_diamond:.2e} (<= 1e-3)",
    )


def test_criterion_10_mpqc_monotonicity():
    t0 = time.perf_counter()
    worst = -math.inf
    details = []
    for p in (0.25, 0.5):
        chi_e = choi_of_channel(amplitude_damping(p)).matrix
        pqc_vals = []
        for m in (1, 2, 3):
            _, v = optimize_program_diamond(pqc_processor(m), chi_e)
            pqc_vals.append(v)
        for n in (1, 2, 3):
            _, v_m = optimize_program_diamond(mpqc_processor(n), chi_e)
            gap = v_m - min(pqc_vals[:n])
            worst = max(worst, gap)
            details.append(f"p={p} N={n}: mPQC {v_m:.4f} vs min PQC {min(pqc_vals[:n]):.4f}")
    dt = time.perf_counter() - t0
    _report(
        "10 (mPQC monotonicity)",
        worst <= 1e-6 and dt < 600.0,
        f"worst excess {worst:.2e} (<= 1e-6), runtime {dt:.1f}s (< 10min)",
    )


def test_criterion_11_pqc_special_points():
    worst = 0.0
    for p in (0.25, 0.5, 0.9):
        proc = pqc_processor(1, h0=amplitude_damping_hamiltonian(p))
        prog = np.zeros((4, 4), dtype=complex)
        prog[0, 0] = 1.0
        chi_ad = choi_of_channel(amplitude_damping(p)).matrix
        worst = max(worst, trace_distance_cost(chi_ad, proc.apply_matrix(prog)))
    _report(
        "11 (PQC amplitude-damping points)",
        worst <= 1e-10,
        f"worst C1 {worst:.2e} (<= 1e-10) for p in {{0.25, 0.5, 0.9}}",
    )
