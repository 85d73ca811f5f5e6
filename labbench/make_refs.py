"""Regenerate the reference outputs in labbench/refs/.

    python3 labbench/make_refs.py [workload ...]

Run from the repository root. Runs every task of every input key once and
stores its tables. References record what a given commit computes; only
regenerate them in a change that explains why the tables moved.
"""

import os
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(Path.cwd() / "src"))

import check  # noqa: E402
import workloads  # noqa: E402


def make(name: str) -> dict:
    refs = {}
    Path(".labbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=".labbench") as tmp:
        for key in range(workloads.REF_SEEDS):
            wl = workloads.WORKLOADS[name](key, 1, Path(tmp) / str(key))
            if wl.ref_key in refs:
                continue
            refs[wl.ref_key] = {t.id: t.tables(t.run()) for t in wl.tasks}
            print(f"{name} {wl.ref_key}: {len(wl.tasks)} tasks", flush=True)
    return refs


def main(names) -> int:
    for name in names or workloads.WORKLOADS:
        check.save_refs(name, make(name))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
