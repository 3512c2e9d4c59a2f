"""Benchmark runner for qprogopt.

    python3 bench/run.py --workload pbt_sweep --seed 1 --seconds 25 --trace 0

Runs one workload (``pbt_sweep``, ``small_sdp`` or ``first_order``, see
``workloads.py``) closed-loop from this one process and one Python thread,
against the library sources in ``src/`` of the checkout holding this file.
BLAS keeps its default thread count, which is recorded.

A run sets up five times (four times in child processes, once here) and
reports the median as ``setup_s``.  It then repeats passes over the
workload's fixed operation list and stops at the pass end nearest to
``--seconds`` (at least one pass), checks every output after each pass, and
prints:

* with ``--trace 0`` the end-to-end metrics: ``wall_s`` (median pass time),
  ``op_p50_s`` and ``op_tail_s`` over all operations, ``setup_s`` and
  ``peak_rss_mb``, all times normalized to one machine speed (``probe``);
* with ``--trace 1`` the per-layer metrics of ``spans.layer_metrics`` from
  traced passes, which alternate with untraced ones, plus the crosswalk to
  the ROADMAP baseline table.

The last line of stdout is the result JSON; the line before it holds run
information and machine metadata.  Details and spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
import warnings

import numpy as np

import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_CHILDREN = 4
CHILD_TIMEOUT_S = 150
TAIL_BEYOND = 10  # op_tail_s: highest percentile with this many ops of one pass beyond it
# probe() time of the reference machine (2 vCPUs) in its fast state; every
# reported time is scaled to this speed
PROBE_NOMINAL_S = 0.6e-3
ROADMAP_NOISE = 1.3  # the ROADMAP baseline table states up to +-30% noise


class Pass:
    def __init__(self, wall, latencies, probes, outputs, failures):
        self.wall = wall
        self.latencies = latencies  # {label: seconds}, in op order
        self.probes = probes  # probe seconds before the first op and after each op
        self.outputs = outputs
        self.failures = failures

    def normalized(self) -> list:
        """Op latencies scaled to the machine speed of ``PROBE_NOMINAL_S``."""
        return [t * 2.0 * PROBE_NOMINAL_S / (a + b) for t, a, b in
                zip(self.latencies.values(), self.probes, self.probes[1:])]


_PROBE_MATRIX = np.random.default_rng(0).normal(size=(48, 48))
_PROBE_MATRIX = _PROBE_MATRIX + _PROBE_MATRIX.T


def _probe_once() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(4000):
        acc += i * i
    for _ in range(3):
        np.linalg.eigvalsh(_PROBE_MATRIX)
    return time.perf_counter() - t0


def probe() -> float:
    """Median of five runs of a fixed 0.7 ms single-threaded kernel
    (interpreter loop and small LAPACK calls): the machine's current speed.

    The reference machine runs the same code up to 1.8x slower for seconds
    at a time, and CPU time grows with wall time then, so it is not
    preemption.  Raw times of identical work differ by 10-30% between runs.
    Every op is bracketed by probes, and its time is scaled by
    PROBE_NOMINAL_S over the mean of the two probes around it.
    """
    return statistics.median(_probe_once() for _ in range(5))


def import_library():
    """Import qprogopt from this checkout's ``src/``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "qprogopt", "__init__.py")):
        raise SystemExit(f"bench: no qprogopt sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import qprogopt
    from qprogopt import channels, cli, optim, processors, sdp

    where = os.path.dirname(os.path.abspath(qprogopt.__file__))
    if where != os.path.join(SRC, "qprogopt"):
        raise SystemExit(f"bench: imported qprogopt from {where}, not from {SRC}")
    return types.SimpleNamespace(channels=channels, cli=cli, optim=optim,
                                 processors=processors, sdp=sdp)


def set_up(name: str, seed: int, smoke: bool, workdir: str):
    """Import, input generation, processor builds and one untimed warm-up op.

    Returns the workload, the set-up seconds and the median of three probes
    taken right after it.
    """
    t0 = time.perf_counter()
    q = import_library()
    wl = workloads.WORKLOADS[name](q, np.random.default_rng(seed), smoke, workdir)
    wl.warmup()
    seconds = time.perf_counter() - t0
    return wl, seconds, statistics.median(probe() for _ in range(3))


def child_setup(name: str, seed: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"setup child exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["probe_s"]


def run_pass(wl, tracer=None) -> Pass:
    """Time every op once; check the outputs afterwards with tracing off."""
    records = []
    probes = [probe()]
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        for i, op in enumerate(wl.ops):
            if tracer is not None:
                tracer.op = i
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                t0 = time.perf_counter()
                try:
                    out, err = op.call(), None
                except Exception as exc:  # a failing op is counted, the run goes on
                    out, err = None, f"raised {type(exc).__name__}: {exc}"
                dt = time.perf_counter() - t0
            if err is None and caught:
                err = f"warned {caught[0].category.__name__}: {caught[0].message}"
            records.append((op, dt, out, err))
            probes.append(probe())
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    outputs = {op.label: out for op, _, out, err in records if err is None}
    failures = []
    for op, _, out, err in records:
        if err is None:
            try:
                err = op.check(out, outputs)
            except Exception as exc:  # a check that cannot run fails the op
                err = f"check raised {type(exc).__name__}: {exc}"
        if err:
            failures.append(f"{op.label}: {err}")
    return Pass(wall, {op.label: dt for op, dt, _, _ in records}, probes, outputs, failures)


def tail_level(ops_per_pass: int) -> int:
    """Highest whole percentile with TAIL_BEYOND ops of one pass beyond it."""
    return max(50, math.floor(100 * (ops_per_pass - TAIL_BEYOND) / ops_per_pass))


def _openblas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def metadata(loadavg) -> dict:
    files = sorted(os.path.join(SRC, "qprogopt", f) for f in os.listdir(os.path.join(SRC, "qprogopt"))
                   if f.endswith(".py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(os.path.basename(path).encode() + b"\0" + data)
        lines += data.count(b"\n")
    git_sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, check=False)
        git_sha = res.stdout.strip() or None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": blas,
        "blas_threads": _openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "loadavg_at_start": loadavg,
    }


def crosswalk_lines(rows) -> list:
    out = []
    for what, lo, hi, here in rows:
        fig = f"{lo:.3g}" if lo == hi else f"{lo:.3g}-{hi:.3g}"
        if here is None:
            out.append({"row": what, "roadmap_s": fig, "here_s": None, "in_band": None})
            continue
        in_band = lo / ROADMAP_NOISE <= here <= hi * ROADMAP_NOISE
        out.append({"row": what, "roadmap_s": fig, "here_s": round(here, 6), "in_band": in_band})
    return out


def run(args):
    loadavg = list(os.getloadavg())
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        children = 0 if args.smoke else SETUP_CHILDREN
        setups = [child_setup(args.workload, args.seed) for _ in range(children)]
        wl, own_setup, own_probe = set_up(args.workload, args.seed, args.smoke, workdir)
        setups.append((own_setup, own_probe))

        tracer = spans.Tracer() if args.trace else None
        untraced, traced = [], []
        begin = time.perf_counter()
        while True:
            use_tracer = tracer is not None and len(untraced) > len(traced)
            (traced if use_tracer else untraced).append(run_pass(wl, tracer if use_tracer else None))
            walls = [p.wall for p in untraced + traced]
            elapsed = time.perf_counter() - begin
            # stop at the pass end nearest to --seconds
            if (tracer is None or traced) and elapsed + statistics.median(walls) / 2 > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = untraced + traced
    failures = [f for p in passes for f in p.failures]
    attempted = len(wl.ops) * len(passes)
    level = tail_level(len(wl.ops))
    probes = [t for p in passes for t in p.probes]
    normalized = [p.normalized() for p in untraced]
    latencies = [t for pass_ in normalized for t in pass_]
    raw = [t for p in untraced for t in p.latencies.values()]
    setup_normalized = [sec * PROBE_NOMINAL_S / pr for sec, pr in setups]
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "passes": len(untraced), "traced_passes": len(traced),
        "ops_per_pass": len(wl.ops), "op_samples": len(latencies),
        "op_tail_level": level,
        "probe_median_s": statistics.median(probes),
        "raw_pass_walls_s": [p.wall for p in untraced],
        "raw_op_p50_s": statistics.median(raw),
        "raw_op_tail_s": float(np.percentile(raw, level)),
        "raw_setup_samples_s": [sec for sec, _ in setups],
        "setup_detail": wl.setup_detail,
        "failed_frac": len(failures) / attempted,
        "failures": failures[:10],
        "pass_summary": wl.summarize(untraced[0].outputs) if wl.summarize else {},
        "meta": metadata(loadavg),
    }
    if tracer is None:
        metrics = {
            "wall_s": (statistics.median(sum(pass_) for pass_ in normalized), "s"),
            "op_p50_s": (statistics.median(latencies), "s"),
            "op_tail_s": (float(np.percentile(latencies, level)), "s"),
            "setup_s": (statistics.median(setup_normalized), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        traced_wall = sum(t for p in traced for t in p.latencies.values())
        layer = spans.layer_metrics(tracer.spans, traced_wall, len(traced))
        layer["trace.overhead_frac"] = (
            statistics.median(sum(p.normalized()) for p in traced)
            / statistics.median(sum(pass_) for pass_ in normalized) - 1.0)
        metrics = {k: (v, UNITS[k]) for k, v in layer.items()}
        info["crosswalk"] = crosswalk_lines(
            wl.crosswalk(tracer.spans, wl.ops, untraced[0].latencies, wl.setup_detail))
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"info": info, "result": result,
                   "passes": [{"traced": p in traced, "latencies": p.latencies, "probes": p.probes}
                              for p in passes],
                   "setups": setups}, fh, indent=1)
    return info, result


with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    UNITS = {m["name"]: m["unit"] for m in json.load(_fh)["per_layer"]}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few ops per workload and a single set-up, for the benchmark's tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
        os.makedirs(workdir, exist_ok=True)
        try:
            _, seconds, probe_s = set_up(args.workload, args.seed, False, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": seconds, "probe_s": probe_s}))
        return 0
    info, result = run(args)
    for row in info.get("crosswalk", []):
        print(f"crosswalk: {row['row']}: ROADMAP {row['roadmap_s']} s, here {row['here_s']} s"
              f"{'' if row['in_band'] is None else ' (in band)' if row['in_band'] else ' (OUT OF BAND)'}")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
