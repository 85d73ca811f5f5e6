"""Per-layer metrics of one traced pass, derived from the tracer's spans.

A layer is a landscape_lab module. Times are self times (a span's duration
minus what its children cover). Flow counters come from outside the flow
loop: step statistics, termination counts and loop iterations from the
arrays flow_batch returns and the grad calls inside its span; trial
evaluations and halvings from the energy rows evaluated inside its span.
Kernel costs are computed from (rows, n, d), not measured.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from tracer import union_length


def _units():
    """Metric name -> unit of BENCHMARK.json's per_layer list, in its order;
    every workload reports all of them."""
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    with open(path, encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


UNITS = _units()


# totals of a span name reported under another field name
ALIASES = {
    "landscape.hessian_fd_batch.points": ("landscape.hessian_fd_batch", "rows"),
    "gridsim.cells": ("gridsim.coarsen", "rows"),
    "oddsmodel.trials": ("oddsmodel.simulate_merge", "rows"),
}


def _totals(tracer) -> dict:
    """Span name -> calls, rows, self_s (and bytes) summed over the pass."""
    totals: dict[str, dict] = {}
    for (_parent, name), (calls, rows, _dur, self_s, _ops, _bytes) in \
            tracer.aggregates().items():
        t = totals.setdefault(name, {"calls": 0, "rows": 0, "self_s": 0.0})
        t["calls"] += calls
        t["rows"] += rows
        t["self_s"] += self_s
    for span in tracer.spans:
        t = totals.setdefault(span["name"], {"calls": 0, "rows": 0, "self_s": 0.0})
        t["calls"] += 1
        t["rows"] += span["rows"]
        t["self_s"] += span["self_s"]
        if "bytes" in span:
            t["bytes"] = t.get("bytes", 0) + span["bytes"]
    return totals


def _flow_counters(batches) -> dict:
    steps = (np.concatenate([np.asarray(s["steps"]) for s in batches])
             if batches else np.zeros(1, dtype=np.int64))
    total_steps = int(steps.sum())
    trial_evals = sum(s["trial_evals"] for s in batches)
    tail_max = sum(max(s["steps"], default=0) for s in batches)
    tail_mean = sum(float(np.mean(s["steps"])) for s in batches if len(s["steps"]))
    out = {
        "dynamics.steps.total": total_steps,
        "dynamics.steps.p50": float(np.percentile(steps, 50)),
        "dynamics.steps.p99": float(np.percentile(steps, 99)),
        "dynamics.steps.max": int(steps.max()),
        "dynamics.trial_evals": trial_evals,
        "dynamics.halvings": trial_evals - total_steps,
        "dynamics.accept_ratio": total_steps / trial_evals if trial_evals else 0.0,
        "dynamics.loop_iters": sum(s["loop_iters"] for s in batches),
        "dynamics.batch_tail_ratio": tail_max / tail_mean if tail_mean else 0.0,
        "dynamics.max_steps_trial_share": (
            sum(s["max_steps_tail_evals"] for s in batches) / trial_evals
            if trial_evals else 0.0),
    }
    for key in ("rows_unconverged", "rows_max_steps", "rows_nonfinite"):
        out[f"dynamics.{key}"] = sum(s[key] for s in batches)
    return out


def layer_metrics(tracer, traced_wall: float, untraced_wall: float,
                  single_worker_wall: float | None) -> dict:
    """Every metric in UNITS for the traced pass the tracer holds."""
    totals = _totals(tracer)
    agg = tracer.aggregates().values()
    ops = sum(rec[4] for rec in agg)
    nbytes = sum(rec[5] for rec in agg)
    batches = [s for s in tracer.spans if s["name"] == "dynamics.flow_batch"]
    intervals = [(s["start"], s["end"]) for s in batches]
    union = union_length(intervals)
    busy = sum(hi - lo for lo, hi in intervals)
    derived = {
        "landscape.kernel.ops_computed": ops,
        "landscape.kernel.bytes_computed": nbytes,
        "landscape.kernel.ops_per_byte_computed": ops / nbytes if nbytes else 0.0,
        **_flow_counters(batches),
        "census.flow_overlap": busy / union if union else 1.0,
        "census.speedup_vs_1worker": (single_worker_wall / traced_wall
                                      if single_worker_wall else 1.0),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    out = {}
    for name in UNITS:
        if name in derived:
            out[name] = derived[name]
            continue
        span, field = ALIASES.get(name) or tuple(name.rsplit(".", 1))
        if field not in ("calls", "rows", "self_s", "bytes"):
            raise KeyError(f"BENCHMARK.json lists unknown per-layer metric {name!r}")
        # a function the pass never called reports zero
        out[name] = totals.get(span, {}).get(field, 0)
    return out
