"""landscape-lab benchmark: four workloads, end-to-end and per-layer metrics.

    python3 labbench/run.py --workload census-lowdim --seed 0 --seconds 25 --trace 0
    python3 labbench/run.py --workload all --seed 0 --seconds 25

Run from the repository root. Each workload runs in its own processes
(labbench/worker.py) against the sources in ./src, with BLAS/OpenMP
threads pinned so that workers x BLAS threads <= nproc. The main process
runs duet passes for --seconds: each task on the program and, right before
or after it, on the twin, the seed commit's copy of the program
(labbench/twin, made by make_twin.py). wall_ratio is the program's time
over the twin's in a pass, the median over the passes; a change of host
speed moves both sides alike. wall_s and twin_wall_s, the
two sides in seconds, are printed beside it. A set-up-only process before
the main one, and one after it that sets up and runs one pass without the
twin (for peak_rss_mb), time set-up as well; setup_s is the median of the
three. Every run prints a summary (each metric with its unit and sample
count, tasks_failed_frac, per-task medians and the environment). For a
single workload the last stdout line is the result JSON: end-to-end
metrics with --trace 0, the per-layer metrics of a traced pass with
--trace 1. Intermediate files go to .labbench/, trace files to
.labbench/trace/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("census-lowdim", "wide-retrieval", "minima-sweep", "toolkit")
WORKERS = {"wide-retrieval": 2}   # census threads; every other workload uses 1
MAIN_TIMEOUT_S = 100
TIMEOUT_S = {"--setup-only": 12, "--rss-pass": 45}  # all three within 180 s

with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as _fh:
    END_TO_END = {m["name"]: m["unit"] for m in json.load(_fh)["end_to_end"]}


def _worker(workload, seed, seconds, trace, scratch: Path, flag=None):
    """Run worker.py, with --setup-only or --rss-pass as flag if given;
    return its result dict, or None if it failed."""
    nproc = len(os.sched_getaffinity(0))
    workers = WORKERS.get(workload, 1)
    blas_threads = str(max(1, nproc // workers))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = blas_threads
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    fd, result = tempfile.mkstemp(suffix=".json", dir=scratch)
    os.close(fd)
    work_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--workers", str(workers), "--work-dir", work_dir, "--result", result]
    if flag:
        cmd.append(flag)
    if trace:
        cmd += ["--trace-out", str(scratch.parent / "trace" / f"{workload}-seed{seed}.json")]
    try:
        timeout = TIMEOUT_S.get(flag, MAIN_TIMEOUT_S)
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=timeout)
        if proc.returncode != 0:
            print(f"labbench: {workload} worker exited with {proc.returncode}",
                  file=sys.stderr)
            return None
        with open(result, encoding="utf-8") as fh:
            return json.load(fh)
    except subprocess.TimeoutExpired:
        print(f"labbench: {workload} worker timed out after {timeout} s", file=sys.stderr)
        return None
    finally:
        os.unlink(result)
        shutil.rmtree(work_dir, ignore_errors=True)


def run_workload(workload, seed, seconds, trace):
    """Print one workload's summary; return its result line dict, or None
    if a worker process failed."""
    scratch = Path(".labbench") / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    before = rss = None
    if not trace:
        # set-up is also timed before and after the main process, so that
        # the samples lie --seconds apart and one slow spell of the host
        # does not cover them all
        before = _worker(workload, seed, seconds, 0, scratch, "--setup-only")
        if before is None:
            return None
    main = _worker(workload, seed, seconds, trace, scratch)
    if main is None:
        return None
    if not trace:
        rss = _worker(workload, seed, seconds, 0, scratch, "--rss-pass")
        if rss is None:
            return None
        for key in ("attempted", "failed", "problems"):
            main[key] += rss[key]
    failed, attempted = main["failed"], main["attempted"]
    for line in main["problems"]:
        print(f"labbench: {workload}: {line}", file=sys.stderr)
    samples, shown = {}, {}
    if trace:
        metrics = main["layers"]
    else:
        setups = [before["setup_s"], main["setup_s"], rss["setup_s"]]
        values = {"wall_ratio": main["wall_ratio"], "setup_s": statistics.median(setups),
                  "peak_rss_mb": rss["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        # the two sides of wall_ratio; each moves with the host's speed,
        # so BENCHMARK.json bounds only their ratio
        shown = {"wall_s": {"value": main["wall_s"], "unit": "s"},
                 "twin_wall_s": {"value": main["twin_wall_s"], "unit": "s"}}
        walls, duets = main["walls"], main["duet_passes"]
        samples = {"wall_ratio": f"median over {duets} duet passes",
                   "setup_s": f"median of {len(setups)} set-ups",
                   "peak_rss_mb": "set-up and 1 pass, without the twin",
                   "wall_s": f"sum of per-task medians over {duets} passes "
                             f"(pass min {min(walls):.4g}, max {max(walls):.4g})",
                   "twin_wall_s": f"sum of per-task medians over {duets} passes"}
    _print_summary(workload, seed, trace, {**metrics, **shown}, samples, failed, attempted,
                   main["env"], {"program": main.get("task_s", {}),
                                 "twin": main.get("twin_task_s", {})})
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _print_summary(workload, seed, trace, metrics, samples, failed, attempted, env,
                   task_s):
    print(f"== {workload} seed={seed} trace={trace}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']:6s} {samples.get(name, '')}")
    print(f"  {'tasks_failed_frac':40s} {failed / attempted:>14.6g} {'ratio':6s} "
          f"{failed} of {attempted} tasks")
    for side, medians in task_s.items():
        if medians:
            print(f"  {side} task medians (s) "
                  + " ".join(f"{k}={v:.4g}" for k, v in medians.items()))
    print("  env " + json.dumps(env, sort_keys=True))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # turn SIGTERM into SystemExit so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (Path("src") / "landscape_lab").is_dir():
        print("labbench: run from the repository root (src/landscape_lab not found)",
              file=sys.stderr)
        return 1
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, args.trace)
        if res is None:
            return 1
        results.append(res)
    if len(results) == 1:
        print(json.dumps(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
