"""One workload process: set up, run timed passes, check outputs.

Started by run.py with BLAS/OpenMP threads already pinned in the
environment. Writes its result as JSON to --result. With --setup-only it
times set-up and exits; with --rss-pass it also runs one pass and reports
the peak resident set. With --trace 1 it runs one untraced pass, then the
same pass traced (and, for workloads with workers > 1, the pass once more
traced on one worker) and reports per-layer metrics. Otherwise it runs
duet passes for --seconds: each task on the program, and right before or
after it on the twin, the copy of the program in twin/lab_twin.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import check

# set-up time counts from here: importing numpy, scipy and landscape_lab,
# building the inputs and one warm-up run of each task kind
T_START = time.perf_counter()

HERE = Path(__file__).resolve().parent


def _parse():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--rss-pass", action="store_true")
    p.add_argument("--work-dir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace-out", default=None)
    return p.parse_args()


def _call(task, tally):
    """Run one task's library call; return (seconds, result), or None if
    it raised, which counts the task as failed."""
    tally["attempted"] += 1
    try:
        t0 = time.perf_counter()
        result = task.run()
        return time.perf_counter() - t0, result
    except Exception as exc:  # a failing task is counted, the pass goes on
        traceback.print_exc()
        tally["failed"] += 1
        tally["problems"].append(f"{task.id}: {type(exc).__name__}: {exc}")
        return None


def _check(task, result, refs, tally) -> None:
    """Read one task's output tables and compare them with the references;
    a task whose tables cannot be read or differ counts as failed."""
    try:
        tables = task.tables(result)
    except Exception as exc:  # noqa: BLE001 - counted like a failing call
        traceback.print_exc()
        tally["failed"] += 1
        tally["problems"].append(f"{task.id}: {type(exc).__name__}: {exc}")
        return
    problems = check.compare(task.id, tables, refs[task.id])
    if problems:
        tally["failed"] += 1
        tally["problems"].extend(problems[:5])


def run_pass(tasks, refs, tally, tracer=None):
    """Run every task once; return {task id: library-call time} of the
    tasks that did not raise. Outputs are checked outside the timed region."""
    times = {}
    for task in tasks:
        if tracer is not None:
            tracer.task = task.id
        done = _call(task, tally)
        if done is not None:
            times[task.id] = done[0]
            _check(task, done[1], refs, tally)
    return times


def run_duet_pass(tasks, twin_tasks, refs, tally, twin_tally, twin_first):
    """Run each task on the program and on the twin, one right after the
    other (the twin first if twin_first); return both sides' times.
    Outputs are checked after the pass, so the calls of a pair run back
    to back."""
    sides = [(tally, {}), (twin_tally, {})]
    order = (1, 0) if twin_first else (0, 1)
    outputs = []
    for pair in zip(tasks, twin_tasks):
        for side in order:
            side_tally, times = sides[side]
            done = _call(pair[side], side_tally)
            if done is not None:
                times[pair[side].id] = done[0]
                outputs.append((pair[side], done[1], side_tally))
    for task, result, side_tally in outputs:
        _check(task, result, refs, side_tally)
    return sides[0][1], sides[1][1]


def _medians(tasks, passes) -> dict:
    """Task id -> median time over the passes that ran it."""
    return {t.id: statistics.median(p[t.id] for p in passes if t.id in p)
            for t in tasks if any(t.id in p for p in passes)}


def _import_twin():
    """Import lab_twin (and its CLI) from twin/; None if another copy
    shadows it."""
    sys.path.insert(0, str(HERE / "twin"))
    import lab_twin
    import lab_twin.cli  # noqa: F401 - imported beside the program's modules
    if Path(lab_twin.__file__).resolve().parent.parent != HERE / "twin":
        print(f"lab_twin imported from {lab_twin.__file__}", file=sys.stderr)
        return None
    return lab_twin


def main() -> int:
    args = _parse()
    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    import numpy as np
    import scipy
    import landscape_lab
    if Path(landscape_lab.__file__).resolve().parent.parent != src.resolve():
        print(f"landscape_lab imported from {landscape_lab.__file__}, not from {src}",
              file=sys.stderr)
        return 1
    # a duet process imports the twin right after the program, which is
    # not set-up time: imported after the program's set-up instead, the
    # identical twin ran 7-13 % faster than the program, in every run
    duet = not (args.setup_only or args.rss_pass or args.trace)
    twin_import_s = 0.0
    if duet:
        started = time.perf_counter()
        lab_twin = _import_twin()
        if lab_twin is None:
            return 1
        twin_import_s = time.perf_counter() - started
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.workers, Path(args.work_dir))
    wl.warm_up()
    setup_s = time.perf_counter() - T_START - twin_import_s
    result = {"setup_s": setup_s}
    if args.setup_only:
        _write(args.result, result)
        return 0

    refs = check.load_refs(args.workload)[wl.ref_key]
    tally = {"attempted": 0, "failed": 0, "problems": []}
    if args.trace:
        result.update(_traced(wl, refs, tally, args.trace_out))
    elif args.rss_pass:
        run_pass(wl.tasks, refs, tally)
        # high-water mark of set-up and one pass, in a process without the
        # twin and independent of how many passes fit in --seconds
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        t0 = time.perf_counter()
        twin = workloads.WORKLOADS[args.workload](args.seed, args.workers,
                                                  Path(args.work_dir) / "twin", lib=lab_twin)
        twin.warm_up()
        twin_tally = {"attempted": 0, "failed": 0, "problems": []}
        duets = []
        # duet passes while, at the last one's pace, another ends within
        # --seconds; at least one
        last = 0.0
        while not duets or time.perf_counter() - t0 + last <= args.seconds:
            started = time.perf_counter()
            duets.append(run_duet_pass(wl.tasks, twin.tasks, refs, tally, twin_tally,
                                       twin_first=len(duets) % 2 == 1))
            last = time.perf_counter() - started
        if twin_tally["failed"]:
            print("labbench: the twin failed, so wall_ratio has no baseline:\n  "
                  + "\n  ".join(twin_tally["problems"]), file=sys.stderr)
            return 1
        passes = [times for times, _ in duets]
        result["walls"] = [sum(p.values()) for p in passes]
        # each side's sum of per-task medians over the passes; a sum of
        # minima spread twice as wide from run to run, as it moved with the
        # few fastest calls a run happened to catch
        result["task_s"] = _medians(wl.tasks, passes)
        result["twin_task_s"] = _medians(twin.tasks, [t for _, t in duets])
        result["wall_s"] = sum(result["task_s"].values())
        result["twin_wall_s"] = sum(result["twin_task_s"].values())
        # the median over passes of each pass's program time over its twin
        # time (tasks that ran on both sides): the two sides of a pass ran
        # side by side, so their ratio varied half as much from run to run
        # as the ratio of the two sides' medians
        ratios = [sum(times[k] for k in both) / sum(twin_times[k] for k in both)
                  for times, twin_times in duets if (both := times.keys() & twin_times.keys())]
        if not ratios:
            print("labbench: no task ran on both sides", file=sys.stderr)
            return 1
        result["wall_ratio"] = statistics.median(ratios)
        result["duet_passes"] = len(duets)
    result.update(tally)
    result["env"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(np),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "workers": wl.workers,
        "seed": args.seed,
        "input_key": wl.ref_key,
    }
    _write(args.result, result)
    return 0


def _traced(wl, refs, tally, trace_out):
    from layers import UNITS, layer_metrics
    from tracer import Tracer

    untraced = sum(run_pass(wl.tasks, refs, tally).values())
    tracer = Tracer()
    tracer.install()
    try:
        single = wl.single_worker_tasks
        single_wall = sum(run_pass(single, refs, tally, tracer).values()) if single else None
        tracer.reset()
        traced = sum(run_pass(wl.tasks, refs, tally, tracer).values())
    finally:
        tracer.uninstall()
    metrics = {name: {"value": value, "unit": UNITS[name]}
               for name, value in layer_metrics(tracer, traced, untraced, single_wall).items()}
    if trace_out:
        _write_trace(trace_out, tracer)
    return {"layers": metrics}


def _write_trace(path, tracer):
    spans = []
    for s in tracer.spans:
        s = dict(s)
        steps = s.pop("steps", None)
        if steps is not None:
            s["steps_max"] = max(steps, default=0)
        spans.append(s)
    hot = [{"parent": p, "name": n, "calls": r[0], "rows": r[1], "time_s": r[2],
            "self_s": r[3], "ops_computed": r[4], "bytes_computed": r[5]}
           for (p, n), r in sorted(tracer.aggregates().items(), key=str)]
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"spans": spans, "hot": hot}, fh)


def _blas(np) -> str:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def _write(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


if __name__ == "__main__":
    sys.exit(main())
