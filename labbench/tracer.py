"""Span tracer that wraps landscape_lab's public functions from outside.

Every wrapped call opens a span (name, start, end, parent, thread, task).
Calls of the hot evaluators (energy, grad, weights) run 10^5-10^6 times in
one pass, so they are aggregated per (parent name, name) as calls, rows,
time and self time instead of being stored one by one; every other span is
kept individually.

A span opened on a thread whose own stack is empty (a census pool thread)
takes as parent the innermost open span of the thread that installed the
tracer, which is the running task. Self time is the span's duration minus
the part of it its direct children cover: hot children on the same thread
are summed, other children are merged as intervals, so children running
concurrently on pool threads are not subtracted twice.

flow_batch spans additionally record the energy rows evaluated by their
direct children, split per loop iteration (a grad call opens an
iteration), plus the arrays the call returns; layers.py derives the flow
work counters from these.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time

import numpy as np


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        shape = np.shape(x)
    return int(shape[0]) if len(shape) >= 2 else 1


def _arg_rows(index):
    def rows(args, kwargs):
        if len(args) > index:
            return _rows(args[index])
        return 0
    return rows


def _kwarg_int(index, key):
    def value(args, kwargs):
        if key in kwargs:
            return int(kwargs[key])
        return int(args[index]) if len(args) > index else 0
    return value


def _grid_cells(args, kwargs):
    grid = args[0] if args else kwargs.get("grid")
    return int(grid.side) ** 2


# (module, attribute or Class.method, span name, rows extractor); the
# extractor sees the call's arguments (self included for methods) and
# counts a point batch of shape (m, d) as m rows, a single point as 1
TARGETS = (
    ("landscape_lab.landscape", "EnergyLandscape.energy", "landscape.energy", _arg_rows(1)),
    ("landscape_lab.landscape", "EnergyLandscape.grad", "landscape.grad", _arg_rows(1)),
    ("landscape_lab.landscape", "EnergyLandscape.weights", "landscape.weights", _arg_rows(1)),
    ("landscape_lab.abstraction", "LevelEnergy.energy", "abstraction.level_energy", _arg_rows(1)),
    ("landscape_lab.abstraction", "LevelEnergy.grad", "abstraction.level_grad", _arg_rows(1)),
    ("landscape_lab.landscape", "hessian_fd_batch", "landscape.hessian_fd_batch", _arg_rows(1)),
    ("landscape_lab.abstraction", "smoothness_report", "abstraction.smoothness_report", None),
    ("landscape_lab.abstraction", "jacobian_norm_probe", "abstraction.jacobian_norm_probe", None),
    ("landscape_lab.dynamics", "flow_batch", "dynamics.flow_batch", _arg_rows(1)),
    ("landscape_lab.dynamics", "flow", "dynamics.flow", None),
    ("landscape_lab.dynamics", "find_minima", "dynamics.find_minima", _arg_rows(1)),
    ("landscape_lab.census", "run_census", "census.run_census", None),
    ("landscape_lab.census", "bias_variance_probes", "census.bias_variance_probes", None),
    ("landscape_lab.knn", "knn_predict", "knn.knn_predict", None),
    ("landscape_lab.knn", "soft_knn_predict", "knn.soft_knn_predict", None),
    ("landscape_lab.gridsim", "coarsen", "gridsim.coarsen", _grid_cells),
    ("landscape_lab.gridsim", "init_grid", "gridsim.init_grid", None),
    ("landscape_lab.oddsmodel", "simulate_merge", "oddsmodel.simulate_merge",
     _kwarg_int(1, "trials")),
    ("landscape_lab.cli", "run", "cli.run", None),
    ("landscape_lab.tables", "write_table", "tables.write_table", None),
)

HOT = frozenset({"landscape.energy", "landscape.grad", "landscape.weights",
                 "abstraction.level_energy", "abstraction.level_grad"})
ENERGY = frozenset({"landscape.energy", "abstraction.level_energy"})
GRAD = frozenset({"landscape.grad", "abstraction.level_grad"})
KERNEL = frozenset({"landscape.energy", "landscape.grad", "landscape.weights"})


def kernel_cost(name: str, rows: int, n: int, d: int) -> tuple[int, int]:
    """Computed (operations, bytes) of one evaluator call on (rows, n, d).

    Operations count the score kernel -beta/2 ||x - x_i||^2 (3 per
    row-memory-coordinate: subtract, square, add) and the per-score
    reductions; bytes count float64 inputs read and outputs written once
    (compulsory traffic, no temporaries, no cache effects). grad's own
    cost excludes the nested weights call, which is counted as its own.
    """
    if name == "landscape.grad":
        return 2 * rows * n * d + rows * d, 8 * (rows * n + n * d + 2 * rows * d)
    ops = 3 * rows * n * d + 5 * rows * n
    out = rows if name == "landscape.energy" else rows * n
    return ops, 8 * (rows * d + n * d + out)


class _Frame:
    __slots__ = ("id", "name", "start", "parent", "thread", "child_sum",
                 "child_iv", "iters")

    def __init__(self, span_id, name, start, parent, thread):
        self.id = span_id
        self.name = name
        self.start = start
        self.parent = parent
        self.thread = thread
        self.child_sum = 0.0
        self.child_iv = []
        self.iters = [0] if name == "dynamics.flow_batch" else None


def union_length(intervals) -> float:
    total = 0.0
    end = -np.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


class Tracer:
    """Collects spans of wrapped landscape_lab calls; see the module docstring."""

    def __init__(self):
        self.spans: list[dict] = []
        self.task = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._per_thread: list[dict] = []
        self._lock = threading.Lock()
        self._main_stack: list[_Frame] | None = None
        self._saved: list[tuple] = []

    # -- per-thread state -------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.agg = {}
            with self._lock:
                self._per_thread.append(self._local.agg)
        return stack

    # -- span bookkeeping -------------------------------------------------

    def _call(self, name, fn, rows_of, args, kwargs):
        stack = self._stack()
        thread = threading.get_ident()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        frame = _Frame(next(self._ids), name, 0.0, parent, thread)
        stack.append(frame)
        frame.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        dur = end - frame.start
        self_s = dur - frame.child_sum - union_length(frame.child_iv)
        rows = rows_of(args, kwargs) if rows_of is not None else 0
        hot = name in HOT
        if parent is not None:
            if hot and parent.thread == thread:
                parent.child_sum += dur
            else:
                parent.child_iv.append((frame.start, end))
            if parent.iters is not None:
                if name in ENERGY:
                    parent.iters[-1] += rows
                elif name in GRAD:
                    parent.iters.append(0)
        if hot:
            key = (parent.name if parent is not None else None, name)
            agg = self._local.agg
            rec = agg.get(key)
            if rec is None:
                rec = agg[key] = [0, 0, 0.0, 0.0, 0, 0]
            rec[0] += 1
            rec[1] += rows
            rec[2] += dur
            rec[3] += self_s
            if name in KERNEL:
                n, d = args[0].memories.points.shape
                ops, nbytes = kernel_cost(name, rows, n, d)
                rec[4] += ops
                rec[5] += nbytes
        else:
            span = {"id": frame.id, "name": name, "start": frame.start, "end": end,
                    "parent": parent.id if parent is not None else None,
                    "thread": thread, "task": self.task, "self_s": self_s,
                    "rows": rows}
            if frame.iters is not None:
                span.update(_flow_batch_record(args, kwargs, result, frame.iters))
            if name == "tables.write_table":
                span["bytes"] = int(result.stat().st_size)
            self.spans.append(span)
        return result

    def aggregates(self) -> dict:
        """Hot-call totals per (parent name, name), merged over threads."""
        merged: dict = {}
        for agg in self._per_thread:
            for key, rec in agg.items():
                tot = merged.setdefault(key, [0, 0, 0.0, 0.0, 0, 0])
                for i, v in enumerate(rec):
                    tot[i] += v
        return merged

    def reset(self) -> None:
        self.spans.clear()
        for agg in self._per_thread:
            agg.clear()

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every target wherever landscape_lab modules bound it."""
        self._main_stack = self._stack()
        for module_name, attr, name, rows_of in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, rows_of))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, rows_of)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "landscape_lab":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def _wrap(self, name, fn, rows_of):
        tracer = self

        def traced(*args, **kwargs):
            return tracer._call(name, fn, rows_of, args, kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced


def _flow_batch_record(args, kwargs, out, iters) -> dict:
    """Work counters of one flow_batch call, from its returned arrays and
    the energy rows its direct children evaluated."""
    config = args[2] if len(args) > 2 else kwargs["config"]
    steps = np.asarray(out["steps"])
    converged = np.asarray(out["converged"])
    failed = np.asarray(out["failed"])
    max_rows = steps >= config.max_steps
    initial = iters[0]
    trial_evals = sum(iters) - initial
    # rows that did not hit max_steps have all ended after iteration
    # max(steps)+1 (a row that stalls spends one more all-rejected
    # iteration); energy rows evaluated after that belong to max_steps rows
    others = steps[~max_rows]
    tail_from = int(others.max()) + 2 if others.size else 1
    tail_evals = sum(iters[tail_from:]) if max_rows.any() else 0
    return {
        "steps": steps.tolist(),
        "trial_evals": int(trial_evals),
        "loop_iters": len(iters) - 1,
        "rows_unconverged": int((~converged & ~failed).sum()),
        "rows_max_steps": int(max_rows.sum()),
        "rows_nonfinite": int(failed.sum()),
        "max_steps_tail_evals": int(tail_evals),
    }
