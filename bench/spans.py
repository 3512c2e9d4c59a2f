"""In-memory span tracer for the traced benchmark run.

The tracer wraps the public functions of qprogopt's six modules from the
outside: each wrapper is bound under every name through which the package
looks the original up (the defining module, every module that imported it
with ``from ... import``, and the package namespace), and
``ProcessorMap.apply_matrix`` / ``ProcessorMap.dual`` are replaced on the
class.  No file of the library changes.  Spans live in a list and are written
out when the run ends.

A span is ``[name, layer, start, end, parent, op, tag]``: ``parent`` is the
index of the enclosing wrapped span (-1 at top level), ``op`` the index of
the benchmark operation that caused it, ``tag`` a small summary of the call
(solver iterations and status, a processor label, a port count).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time

LAYERS = ("hermlin", "channels", "processors", "optim", "sdp", "cli")

BUILDERS = {"teleportation_processor", "pbt_processor", "pbt_reduced_map",
            "pqc_processor", "mpqc_processor"}
SDP_PROGRAMS = {"optimize_program_trace", "optimize_program_diamond",
                "optimize_program_fidelity", "optimize_choi_diamond"}
GRADS = {"grad_trace_cost", "grad_fidelity", "grad_infidelity", "grad_smoothed_cost"}
RUNNERS = {"projected_subgradient", "frank_wolfe"}


def _tag(name, args, out):
    """Per-call summary kept on the span; None for most calls."""
    if name == "solve_sdp":
        return [out.iterations, out.status]
    if name in RUNNERS:
        return len(out.cost_trace) - 1
    if name in ("apply_matrix", "dual"):
        return args[0].label
    if name in BUILDERS and args:
        return args[0]
    if name == "diamond_distance":
        return int(args[0].shape[0])
    return None


class Tracer:
    """Collects spans while installed; ``op`` is set by the caller per operation."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, fn, name, layer):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, None]
            spans.append(rec)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                rec[2] = t0
                stack.pop()
            rec[6] = _tag(name, args, out)
            return out

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"qprogopt.{layer}")
            names = getattr(mod, "__all__", None) or ["main"]
            for name in names:
                obj = getattr(mod, name, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(obj, name, layer))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "qprogopt" or modname.startswith("qprogopt.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        pm = importlib.import_module("qprogopt.processors").ProcessorMap
        for meth in ("apply_matrix", "dual"):
            orig = pm.__dict__[meth]
            self._patches.append((pm, meth, orig))
            setattr(pm, meth, self._wrap(orig, meth, "processors"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _durations(spans):
    dur = [rec[3] - rec[2] for rec in spans]
    child = [0.0] * len(spans)
    for rec, d in zip(spans, dur):
        if rec[4] >= 0:
            child[rec[4]] += d
    return dur, child


def _has_ancestor(spans, idx, names) -> bool:
    parent = spans[idx][4]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][4]
    return False


def layer_metrics(spans, traced_wall: float, passes: int) -> dict:
    """Per-layer counts and times per traced pass.

    Self time is a span's duration minus that of its wrapped children, so
    the six ``<layer>.self_s`` plus ``unattributed_s`` add up to
    ``trace.wall_s``.  Inclusive figures (``build_s``, ``apply_s``,
    ``solve_s``, ...) count only spans with no ancestor of the same kind.
    """
    dur, child = _durations(spans)
    acc = {f"{layer}.{k}": 0 for layer in LAYERS for k in ("calls", "self_s")}
    for key in ("processors.build_calls", "processors.build_s",
                "processors.apply_calls", "processors.apply_s",
                "processors.dual_calls", "processors.dual_s",
                "sdp.solve_calls", "sdp.solve_s", "sdp.iterations", "sdp.optimal",
                "sdp.solve_self_s", "sdp.reeval_calls", "sdp.reeval_s",
                "optim.project_states_calls", "optim.project_states_s",
                "optim.project_choi_calls", "optim.project_choi_s",
                "optim.grad_s", "optim.cost_s", "optim.run_self_s", "optim.iterations"):
        acc[key] = 0
    top = 0.0
    for i, rec in enumerate(spans):
        name, layer, parent = rec[0], rec[1], rec[4]
        d, self_t = dur[i], dur[i] - child[i]
        acc[f"{layer}.calls"] += 1
        acc[f"{layer}.self_s"] += self_t
        if parent < 0:
            top += d
        if name in BUILDERS and not _has_ancestor(spans, i, BUILDERS):
            acc["processors.build_calls"] += 1
            acc["processors.build_s"] += d
        elif name in ("apply_matrix", "dual"):
            acc[f"processors.{name.split('_')[0]}_calls"] += 1
            acc[f"processors.{name.split('_')[0]}_s"] += d
        elif name == "solve_sdp":
            acc["sdp.solve_calls"] += 1
            acc["sdp.solve_s"] += d
            acc["sdp.solve_self_s"] += self_t
            acc["sdp.iterations"] += rec[6][0]
            acc["sdp.optimal"] += rec[6][1] == "optimal"
        elif name == "diamond_distance" and _has_ancestor(spans, i, SDP_PROGRAMS):
            acc["sdp.reeval_calls"] += 1
            acc["sdp.reeval_s"] += d
        elif name == "project_to_states":
            acc["optim.project_states_calls"] += 1
            acc["optim.project_states_s"] += d
        elif name == "project_to_choi_set":
            acc["optim.project_choi_calls"] += 1
            acc["optim.project_choi_s"] += d
        elif name in GRADS and not _has_ancestor(spans, i, GRADS):
            acc["optim.grad_s"] += d
        elif name == "simulation_cost":
            acc["optim.cost_s"] += d
        elif name in RUNNERS:
            acc["optim.run_self_s"] += self_t
            acc["optim.iterations"] += rec[6]
    out = {}
    for key, value in acc.items():
        if key in ("sdp.optimal", "sdp.solve_self_s"):
            continue
        out[key] = value / passes
    out["sdp.build_self_s"] = (acc["sdp.self_s"] - acc["sdp.solve_self_s"]) / passes
    out["sdp.s_per_iter"] = (acc["sdp.solve_s"] / acc["sdp.iterations"]
                             if acc["sdp.iterations"] else 0.0)
    out["sdp.optimal_frac"] = (acc["sdp.optimal"] / acc["sdp.solve_calls"]
                               if acc["sdp.solve_calls"] else 0.0)
    out["trace.wall_s"] = traced_wall / passes
    out["trace.spans"] = len(spans) / passes
    out["unattributed_s"] = (traced_wall - top) / passes
    return out


def layer_metric_names() -> list:
    return list(layer_metrics([], 1.0, 1))


def op_span_seconds(spans, name, op_filter=None, tag=None, top_level=False) -> list:
    """Inclusive durations of spans called ``name`` (optionally per op/tag)."""
    out = []
    for rec in spans:
        if rec[0] != name or (tag is not None and rec[6] != tag):
            continue
        if top_level and rec[4] >= 0:
            continue
        if op_filter is not None and not op_filter(rec[5]):
            continue
        out.append(rec[3] - rec[2])
    return out


def per_op_sum(spans, name, op_filter, tag=None) -> list:
    """Total inclusive time of ``name`` spans inside each selected op."""
    sums: dict = {}
    for rec in spans:
        if rec[0] == name and op_filter(rec[5]) and (tag is None or rec[6] == tag):
            sums[rec[5]] = sums.get(rec[5], 0.0) + rec[3] - rec[2]
    return list(sums.values())


def median_or_none(values):
    return statistics.median(values) if values else None
