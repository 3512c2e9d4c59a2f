"""Tests of the benchmark itself (not part of the library's suite).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import warnings

import pytest

import run
import spans
import workloads

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def _declared(kind: str) -> set:
    with open(BENCHMARK) as fh:
        return {m["name"] for m in json.load(fh)[kind]}


def _smoke(workload: str, trace: int = 0):
    return run.run(run.parse_args(["--workload", workload, "--seed", "3", "--seconds", "0",
                                   "--trace", str(trace), "--smoke"]))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_passes_its_checks(workload):
    info, result = _smoke(workload)
    assert result["correct"] and result["failed"] == 0, info["failures"]
    assert result["attempted"] == info["ops_per_pass"] * info["passes"] >= 4
    assert set(result["metrics"]) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_declared_workloads_exist():
    with open(BENCHMARK) as fh:
        names = {w["name"] for w in json.load(fh)["workloads"]}
    assert names == set(workloads.WORKLOADS)


def _corrupt_diamond(q, monkeypatch):
    orig = q.sdp.diamond_distance
    monkeypatch.setattr(q.sdp, "diamond_distance", lambda *a, **k: orig(*a, **k) + 1e-3)


def _corrupt_first_order(q, monkeypatch):
    orig = q.optim.projected_subgradient

    def shifted(*args, **kwargs):
        res = orig(*args, **kwargs)
        return type(res)(res.program, res.cost_trace, res.converged, res.final_cost - 1e-3)

    monkeypatch.setattr(q.optim, "projected_subgradient", shifted)


def _stall_warning(q, monkeypatch):
    orig = q.sdp.optimize_program_trace

    def warns(*args, **kwargs):
        warnings.warn("optimize_program_trace: interior point stopped at status max_iter")
        return orig(*args, **kwargs)

    monkeypatch.setattr(q.sdp, "optimize_program_trace", warns)


@pytest.mark.parametrize("workload, corrupt, reason", [
    ("small_sdp", _corrupt_diamond, "closed form"),
    ("first_order", _corrupt_first_order, "re-evaluates"),
    ("pbt_sweep", _stall_warning, "warned"),
])
def test_corrupted_output_counts_as_failure(workload, corrupt, reason, monkeypatch):
    corrupt(run.import_library(), monkeypatch)
    info, result = _smoke(workload)
    assert not result["correct"]
    assert 1 <= result["failed"] < result["attempted"]
    assert info["failed_frac"] == result["failed"] / result["attempted"]
    assert any(reason in f for f in info["failures"]), info["failures"]


def test_traced_run_self_times_add_up():
    info, result = _smoke("first_order", trace=1)
    assert result["correct"], info["failures"]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(m) == _declared("per_layer")
    layers = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layers + m["unattributed_s"] == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert m["unattributed_s"] >= 0.0
    assert m["optim.iterations"] > 0 and m["processors.apply_calls"] > 0
    assert m["sdp.solve_calls"] == 0
    assert info["crosswalk"]


def test_tracer_spans_nest_and_unpatch():
    q = run.import_library()
    originals = (q.sdp.optimize_program_diamond, q.processors.ProcessorMap.dual,
                 q.optim.project_to_states, q.sdp.hermitize)
    proc = q.processors.teleportation_processor(2)
    chi = workloads.amplitude_damping_choi(0.3)
    tracer = spans.Tracer()
    tracer.install()
    try:
        q.sdp.optimize_program_diamond(proc, chi)
    finally:
        tracer.uninstall()
    assert originals == (q.sdp.optimize_program_diamond, q.processors.ProcessorMap.dual,
                         q.optim.project_to_states, q.sdp.hermitize)
    recs = tracer.spans
    dur, child = spans._durations(recs)
    assert all(d - c >= 0.0 for d, c in zip(dur, child))
    names = {rec[0] for rec in recs}
    assert {"optimize_program_diamond", "solve_sdp", "dual", "project_to_states",
            "diamond_distance", "hermitize"} <= names
    top = [rec for rec in recs if rec[4] < 0]
    assert [rec[0] for rec in top] == ["optimize_program_diamond"]
    wall = top[0][3] - top[0][2]
    m = spans.layer_metrics(recs, wall, 1)
    assert m["sdp.reeval_calls"] == 1 and m["sdp.solve_calls"] == 2
    assert sum(m[f"{layer}.self_s"] for layer in spans.LAYERS) == pytest.approx(wall, rel=1e-9)


def test_without_library_sources_exits_nonzero(tmp_path):
    shutil.copytree(os.path.join(run.ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCHMARK, tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "small_sdp", "--seed",
                           "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
