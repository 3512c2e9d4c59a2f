"""The three benchmark workloads: their operations, inputs and output checks.

Every input is generated here from the run's seed with numpy; the library
only receives the generated matrices and configs.  An operation is one call
into the public API of ``qprogopt``; its check runs after the timed pass,
with tracing off, and returns a failure reason or None.

* ``pbt_sweep``   -- the paper's amplitude-damping figure, one in-process
  ``qprogopt optimize`` call per grid point (fixed grid, ignores the seed).
* ``small_sdp``   -- many small exact solves: seeded qubit and qutrit channel
  pairs under ``diamond_distance`` and ``optimize_choi_diamond`` for N=1..8.
* ``first_order`` -- projected subgradient and Frank-Wolfe at a fixed number
  of iterations on four processor families; no SDP at all.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

import spans as sp

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

# pbt_sweep grid: PBT N x damping p x method, in `qprogopt benchmark` grid order
SWEEP_N = (2, 3)
SWEEP_P = (0.1, 0.3, 0.5, 0.7, 0.9)
SWEEP_METHODS = ("sdp_diamond", "sdp_trace", "sdp_fidelity", "choi_baseline")

# small_sdp mix: channel pairs per kind, and the optimize_choi_diamond sweep
SMALL_PAULI_PAIRS = 11
SMALL_GENERAL_PAIRS = 11
SMALL_QUTRIT_PAIRS = 2
SMALL_CHOI_PORTS = range(1, 9)
SMALL_AD_P = 0.5

# first_order mix: (processor, iterations, targets per method); the reduced
# map runs the subgradient method only (Frank-Wolfe leaves the Choi set)
FIRST_ORDER_PLAN = (("pbt3", 30, 1), ("pbt2", 200, 2), ("pqc3", 200, 6), ("tele", 200, 12))
FIRST_ORDER_METHODS = (("subgradient", "C1"), ("frank_wolfe", "Cmu"))
FIRST_ORDER_REDUCED = ("red4", 200)
FIRST_ORDER_MU = 1e-2

VALUE_TOL = 1e-6  # agreement with closed forms and recorded references
FEAS_TOL = 1e-9   # trace and positivity of returned programs
MARGINAL_TOL = 1e-8  # Tr_out chi = I/d of returned Choi programs


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    # (output, {label: output of this pass}) -> failure reason or None
    check: Callable[[object, dict], Optional[str]]


@dataclass
class Workload:
    name: str
    ops: list
    warmup: Callable[[], object]
    # (spans, ops, untraced latencies by label, setup details) -> crosswalk rows
    crosswalk: Callable
    setup_detail: dict = field(default_factory=dict)
    # (outputs by label) -> information-only facts about one pass
    summarize: Optional[Callable[[dict], dict]] = None


# --- inputs -------------------------------------------------------------------


def _phi(d: int) -> np.ndarray:
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0 / math.sqrt(d)
    return v


def random_choi(d: int, rng: np.random.Generator, rank: int) -> np.ndarray:
    """Normalized Choi matrix (input copy, output) of a Haar-random channel."""
    g = rng.normal(size=(d * rank, d)) + 1j * rng.normal(size=(d * rank, d))
    iso, _ = np.linalg.qr(g)  # stacked Kraus operators, sum K^dag K = I
    phi = _phi(d)
    out = np.zeros((d * d, d * d), dtype=complex)
    for k in iso.reshape(rank, d, d):
        v = np.kron(np.eye(d), k) @ phi
        out += np.outer(v, v.conj())
    return out


def pauli_choi(probs: np.ndarray) -> np.ndarray:
    """Bell-diagonal Choi matrix of the qubit Pauli channel with ``probs``."""
    paulis = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.diag([1.0, -1.0]))
    phi = _phi(2)
    out = np.zeros((4, 4), dtype=complex)
    for p, s in zip(probs, paulis):
        v = np.kron(np.eye(2), s) @ phi
        out += p * np.outer(v, v.conj())
    return out


def amplitude_damping_choi(p: float) -> np.ndarray:
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - p)]])
    k1 = np.array([[0.0, math.sqrt(p)], [0.0, 0.0]])
    phi = _phi(2)
    out = np.zeros((4, 4), dtype=complex)
    for k in (k0, k1):
        v = np.kron(np.eye(2), k) @ phi
        out += np.outer(v, v.conj())
    return out


def trace_norm(m: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvalsh(0.5 * (m + m.conj().T))).sum())


def program_infeasibility(m: np.ndarray, d_choi: Optional[int] = None) -> Optional[str]:
    """Why ``m`` is not a density matrix (or single-port Choi matrix), if it is not."""
    m = np.asarray(m, dtype=complex)
    herm = float(np.abs(m - m.conj().T).max())
    if herm > FEAS_TOL:
        return f"program not Hermitian ({herm:.2e})"
    lo = float(np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min())
    if lo < -FEAS_TOL:
        return f"program has eigenvalue {lo:.2e}"
    tr = abs(np.trace(m) - 1.0)
    if tr > FEAS_TOL:
        return f"program trace off by {tr:.2e}"
    if d_choi is not None:
        marg = np.einsum("ajbj->ab", m.reshape(d_choi, d_choi, d_choi, d_choi))
        dev = float(np.abs(marg - np.eye(d_choi) / d_choi).max())
        if dev > MARGINAL_TOL:
            return f"program marginal off I/d by {dev:.2e}"
    return None


def interleave(ops: list) -> list:
    """Fixed low-discrepancy order, so that ops of one kind are spread over a
    whole pass instead of sharing one stretch of machine speed."""
    return [op for _, op in sorted(enumerate(ops), key=lambda t: (t[0] * 0.6180339887498949) % 1.0)]


def api(module, name: str, *args):
    """Call ``module.name`` looked up at call time, so that tracing sees it."""
    return getattr(module, name)(*args)


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


# --- pbt_sweep ----------------------------------------------------------------


def sweep_key(n: int, p: float, method: str) -> str:
    return f"N={n} p={p} {method}"


def sweep_grid(smoke: bool) -> list:
    ns, ps = ((2,), (0.5,)) if smoke else (SWEEP_N, SWEEP_P)
    return [(n, p, m) for n in ns for p in ps for m in SWEEP_METHODS]


def cli_optimize(cli, path: str):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["optimize", "--config", path])
    return code, buf.getvalue()


def sweep_row(out) -> list:
    """CSV fields of the result row printed by ``qprogopt optimize``."""
    code, text = out
    if code != 0:
        raise ValueError(f"exit code {code}")
    lines = text.strip().splitlines()
    if len(lines) != 2 or not lines[0].startswith("param,method,N,cost_kind,cost"):
        raise ValueError(f"unexpected output {text!r}")
    return lines[1].split(",")


def _check_sweep(n, p, method, ref, out, _outputs):
    try:
        cost = float(sweep_row(out)[4])
    except ValueError as exc:
        return str(exc)
    want = ref["sweep"][sweep_key(n, p, method)]
    if not abs(cost - want) <= VALUE_TOL:
        return f"cost {cost!r} differs from reference {want!r}"
    base = ref["sweep"][sweep_key(n, p, "choi_baseline")]
    if method in ("sdp_diamond", "sdp_trace") and not cost <= base + VALUE_TOL:
        return f"optimized cost {cost!r} above choi_baseline {base!r}"
    if method == "sdp_fidelity":
        f_choi = ref["sweep_choi_fidelity"][f"N={n} p={p}"]
        if not cost >= f_choi - VALUE_TOL:
            return f"optimized fidelity {cost!r} below the Choi program's {f_choi!r}"
    return None


def sweep_csv(grid, outputs: dict) -> Optional[str]:
    """The CSV a `qprogopt benchmark` run over the grid would write, or None."""
    lines = ["param,method,N,cost_kind,cost,iterations"]
    for n, p, m in grid:
        try:
            lines.append(",".join(sweep_row(outputs[sweep_key(n, p, m)])[:6]))
        except (KeyError, ValueError, TypeError):
            return None
    return "\n".join(lines) + "\n"


def pbt_sweep(q, rng, smoke: bool, workdir: str, reference: Optional[dict] = None) -> Workload:
    del rng  # the grid is fixed
    ref = load_reference() if reference is None else reference
    grid = sweep_grid(smoke)
    ops = []
    for n, p, method in grid:
        cfg = {"processor": {"kind": "pbt", "N": n, "d": 2},
               "channel": {"kind": "amplitude_damping", "p": p},
               "method": method, "cost": "Cdiamond"}
        path = os.path.join(workdir, f"pbt{n}_p{p}_{method}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        ops.append(Op(sweep_key(n, p, method), functools.partial(cli_optimize, q.cli, path),
                      functools.partial(_check_sweep, n, p, method, ref)))
    warm = next(op for op in ops if op.label.endswith("sdp_diamond") and
                op.label.startswith(f"N={grid[-1][0]} "))

    def summarize(outputs):
        csv = sweep_csv(grid, outputs)
        if csv is None or smoke:
            return {}
        digest = hashlib.sha256(csv.encode()).hexdigest()
        return {"csv_sha256": digest, "csv_identical_to_reference": digest == ref["sweep_csv_sha256"]}

    return Workload("pbt_sweep", interleave(ops), warm.call, _sweep_crosswalk, summarize=summarize)


# --- small_sdp ----------------------------------------------------------------


def _check_pauli(expected, out, _outputs):
    if not abs(out - expected) <= VALUE_TOL:
        return f"diamond {out!r} differs from closed form ||p-q||_1 = {expected!r}"
    return None


def _check_bounds(d, delta_tn, out, _outputs):
    if not delta_tn - VALUE_TOL <= out <= d * delta_tn + VALUE_TOL:
        return f"diamond {out!r} outside [||dchi||_1, d ||dchi||_1] = [{delta_tn!r}, {d * delta_tn!r}]"
    return None


def choi_key(target: str, n: int) -> str:
    return f"choi {target} N={n}"


def _check_choi(target, n, ref, out, outputs):
    chi, value = out
    bad = program_infeasibility(chi.matrix, 2)
    if bad:
        return bad
    want = ref["choi"][choi_key(target, n)]
    if not abs(value - want) <= VALUE_TOL:
        return f"value {value!r} differs from reference {want!r}"
    if target == "identity":
        if n == 3 and not abs(value - 0.75) <= VALUE_TOL:
            return f"N=3 identity value {value!r} is not 0.75"
        if not value <= 4.0 / n + VALUE_TOL:
            return f"identity value {value!r} above 4/N"
        prev = outputs.get(choi_key(target, n - 1))
        if prev is not None and not value <= prev[1] + VALUE_TOL:
            return f"identity value {value!r} increased from {prev[1]!r} at N={n - 1}"
    else:
        base = ref["choi_program_diamond"][choi_key(target, n)]
        if not value <= base + VALUE_TOL:
            return f"value {value!r} above the unoptimized Choi program's {base!r}"
    return None


def choi_targets() -> tuple:
    """Fixed targets of the optimize_choi_diamond sweep: (name, Choi matrix)."""
    return (("identity", np.outer(_phi(2), _phi(2).conj())),
            ("amplitude_damping", amplitude_damping_choi(SMALL_AD_P)))


def small_sdp(q, rng, smoke: bool, workdir: str) -> Workload:
    del workdir
    ref = load_reference()
    sdp = q.sdp
    ops = []
    n_pauli, n_general, n_qutrit = (2, 2, 0) if smoke else (
        SMALL_PAULI_PAIRS, SMALL_GENERAL_PAIRS, SMALL_QUTRIT_PAIRS)
    for i in range(n_pauli):
        p, r = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
        delta = pauli_choi(p) - pauli_choi(r)
        ops.append(Op(f"pauli {i}", functools.partial(api, sdp, "diamond_distance", delta, 2),
                      functools.partial(_check_pauli, float(np.abs(p - r).sum()))))
    for d, count, kind in ((2, n_general, "general"), (3, n_qutrit, "qutrit")):
        for i in range(count):
            delta = (random_choi(d, rng, int(rng.integers(1, d * d + 1)))
                     - random_choi(d, rng, int(rng.integers(1, d * d + 1))))
            ops.append(Op(f"{kind} {i}", functools.partial(api, sdp, "diamond_distance", delta, d),
                          functools.partial(_check_bounds, d, trace_norm(delta))))
    targets = choi_targets()
    ports = range(1, 4) if smoke else SMALL_CHOI_PORTS
    for name, chi in targets:
        for n in ports:
            ops.append(Op(choi_key(name, n),
                          functools.partial(api, sdp, "optimize_choi_diamond", n, 2, chi),
                          functools.partial(_check_choi, name, n, ref)))
    warm = functools.partial(sdp.optimize_choi_diamond, max(ports), 2, targets[0][1])
    return Workload("small_sdp", interleave(ops), warm, _small_crosswalk)


# --- first_order --------------------------------------------------------------


def _check_first_order(q, proc, chi, kind, iters, out, _outputs):
    d_choi = proc.d_in if proc.program_domain == "choi" else None
    bad = program_infeasibility(out.program.matrix, d_choi)
    if bad:
        return bad
    if len(out.cost_trace) - 1 != iters:
        return f"ran {len(out.cost_trace) - 1} iterations, expected {iters}"
    again = q.optim.simulation_cost(proc, chi, out.program.matrix, kind, FIRST_ORDER_MU)
    if not abs(again - out.final_cost) <= 1e-9 * max(1.0, abs(again)):
        return f"final_cost {out.final_cost!r} but the program re-evaluates to {again!r}"
    return None


def build_processors(q, detail: dict) -> dict:
    pr = q.processors
    makers = {"pbt3": lambda: pr.pbt_processor(3), "pbt2": lambda: pr.pbt_processor(2),
              "pqc3": lambda: pr.pqc_processor(3), "tele": lambda: pr.teleportation_processor(2),
              "red4": lambda: pr.pbt_reduced_map(4)}
    procs = {}
    for key, make in makers.items():
        t0 = time.perf_counter()
        procs[key] = make()
        detail[f"build_{key}_s"] = time.perf_counter() - t0
    return procs


def first_order(q, rng, smoke: bool, workdir: str) -> Workload:
    del workdir
    optim = q.optim
    detail: dict = {}
    procs = build_processors(q, detail)
    runners = {"subgradient": "projected_subgradient", "frank_wolfe": "frank_wolfe"}
    plan, reduced = FIRST_ORDER_PLAN, [FIRST_ORDER_REDUCED]
    if smoke:
        plan, reduced = [("pbt2", 10, 1), ("tele", 20, 1)], [("red4", 10)]
    jobs = [(key, iters, method, kind) for key, iters, count in plan
            for method, kind in FIRST_ORDER_METHODS for _ in range(count)]
    jobs += [(key, iters, "subgradient", "C1") for key, iters in reduced]
    ops = []
    for i, (key, iters, method, kind) in enumerate(jobs):
        proc = procs[key]
        chi = random_choi(2, rng, int(rng.integers(1, 5)))
        cfg = optim.OptimConfig(max_iters=iters, cost_kind=kind, mu=FIRST_ORDER_MU,
                                tolerance=0.0)
        ops.append(Op(f"{key} {method} {i}",
                      functools.partial(api, optim, runners[method], proc, chi, cfg),
                      functools.partial(_check_first_order, q, proc, chi, kind, iters)))
    warm_cfg = optim.OptimConfig(max_iters=2, cost_kind="C1", tolerance=0.0)
    warm = functools.partial(optim.projected_subgradient, procs["pbt3"],
                             random_choi(2, np.random.default_rng(0), 2), warm_cfg)
    return Workload("first_order", interleave(ops), warm, _first_order_crosswalk,
                    setup_detail=detail)


WORKLOADS = {"pbt_sweep": pbt_sweep, "small_sdp": small_sdp, "first_order": first_order}


# --- crosswalk to the ROADMAP baseline table -----------------------------------
#
# Each row: (what, ROADMAP low, ROADMAP high, value here in seconds).  A row
# that is a whole op uses the untraced latency; a row inside an op uses the
# inclusive span time of the traced pass, which carries the tracing overhead
# of its nested spans; the cold build is timed in the run's own set-up.


def _ops_where(ops, pred):
    return {i for i, op in enumerate(ops) if pred(op.label)}


def _sweep_crosswalk(recs, ops, untraced, _detail):
    rows = []
    n2 = _ops_where(ops, lambda s: s.startswith("N=2 ") and "sdp_" in s)
    n3 = _ops_where(ops, lambda s: s.startswith("N=3 ") and "sdp_" in s)
    rows.append(("pbt_processor(3) build, warm (inside cli)", 0.030, 0.030,
                 sp.median_or_none(sp.op_span_seconds(recs, "pbt_processor", tag=3))))
    rows.append(("dual on the 16-element basis, PBT N=3", 0.48, 0.48,
                 sp.median_or_none(sp.per_op_sum(recs, "dual", n3.__contains__,
                                                 tag="pbt[N=3,d=2]"))))
    for n, ids, fig_opt, fig_solve in ((2, n2, 0.158, 0.094), (3, n3, 1.19, 0.724)):
        rows.append((f"optimize_program_diamond, PBT N={n}", fig_opt, fig_opt, sp.median_or_none(
            sp.op_span_seconds(recs, "optimize_program_diamond", op_filter=ids.__contains__))))
        solves = [rec[3] - rec[2] for rec in recs if rec[0] == "solve_sdp" and rec[5] in ids
                  and rec[4] >= 0 and recs[rec[4]][0] == "optimize_program_diamond"]
        rows.append((f"solve_sdp inside optimize_program_diamond, PBT N={n}",
                     fig_solve, fig_solve, sp.median_or_none(solves)))
    for name, fig in (("optimize_program_trace", 0.92), ("optimize_program_fidelity", 0.75)):
        rows.append((f"{name}, PBT N=3", fig, fig, sp.median_or_none(
            sp.op_span_seconds(recs, name, op_filter=n3.__contains__))))
    twenty = [t for label, t in untraced.items()
              if label.endswith("sdp_diamond") or label.endswith("choi_baseline")]
    rows.append(("20-point sweep sdp_diamond + choi_baseline, --jobs 1 (untraced sum)",
                 5.7, 8.7, sum(twenty) if len(twenty) == 20 else None))
    return rows


def _small_crosswalk(recs, _ops, untraced, _detail):
    qubit = [t for label, t in untraced.items() if label.split()[0] in ("pauli", "general")]
    rows = [("diamond_distance, 4x4 Choi (untraced op)", 0.057, 0.057, sp.median_or_none(qubit))]
    for n, fig in ((2, 0.162), (8, 1.03)):
        times = [t for label, t in untraced.items()
                 if label.startswith("choi ") and label.endswith(f" N={n}")]
        rows.append((f"optimize_choi_diamond, reduced N={n} (untraced op)", fig, fig,
                     sp.median_or_none(times)))
    rows.append(("pbt_reduced_map(8) build", 0.37, 0.37, sp.median_or_none(
        sp.op_span_seconds(recs, "pbt_reduced_map", tag=8))))
    return rows


def _first_order_crosswalk(recs, _ops, untraced, detail):
    sub2 = [t for label, t in untraced.items() if label.startswith("pbt2 subgradient")]
    return [
        ("pbt_processor(3) build, cold (set-up)", 0.9, 0.9, detail.get("build_pbt3_s")),
        ("ProcessorMap.apply_matrix, PBT N=3", 0.042, 0.042, sp.median_or_none(
            sp.op_span_seconds(recs, "apply_matrix", tag="pbt[N=3,d=2]"))),
        ("projected_subgradient, 200 iterations, PBT N=2 (untraced op)", 0.305, 0.305,
         sp.median_or_none(sub2)),
    ]
