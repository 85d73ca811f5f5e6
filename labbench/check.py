"""Compare task output tables with the stored reference outputs.

Integers and strings (counts, levels, classes, minima counts) must match
exactly. Floats must match within RTOL relative (ATOL absolute near zero):
a change of summation order, such as a new diversity reduction, moves
results by ~1e-15 relative, while a wrong kernel or a lost row moves them
by 1e-4 or more, and any change of a count shows in the count columns.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path

RTOL = 1e-7
ATOL = 1e-12
REF_DIR = Path(__file__).resolve().parent / "refs"


def ref_path(workload: str) -> Path:
    return REF_DIR / f"{workload}.json.gz"


def load_refs(workload: str) -> dict:
    with gzip.open(ref_path(workload), "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save_refs(workload: str, refs: dict) -> None:
    REF_DIR.mkdir(exist_ok=True)
    # mtime=0 keeps the archive bytes a function of its content
    with open(ref_path(workload), "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
            gz.write(json.dumps(refs, sort_keys=True, separators=(",", ":")).encode("utf-8"))


def _same(got, want) -> bool:
    if isinstance(got, float) or isinstance(want, float):
        if not (isinstance(got, (int, float)) and isinstance(want, (int, float))):
            return False
        return got == want or abs(got - want) <= max(ATOL, RTOL * abs(want))
    return type(got) is type(want) and got == want


def compare(task: str, got: dict, want: dict) -> list[str]:
    """Mismatches of one task's tables, each naming table, row and column."""
    problems = []
    for table in sorted(set(got) | set(want)):
        if table not in got or table not in want:
            problems.append(f"{task}: table {table!r} missing from "
                            f"{'output' if table not in got else 'reference'}")
            continue
        g, w = got[table], want[table]
        if list(g["columns"]) != list(w["columns"]):
            problems.append(f"{task}/{table}: columns {g['columns']} != {w['columns']}")
            continue
        if len(g["rows"]) != len(w["rows"]):
            problems.append(f"{task}/{table}: {len(g['rows'])} rows, "
                            f"reference has {len(w['rows'])}")
            continue
        for i, (grow, wrow) in enumerate(zip(g["rows"], w["rows"])):
            for col, gv, wv in zip(w["columns"], grow, wrow):
                if not _same(gv, wv):
                    problems.append(f"{task}/{table}: row {i} column {col!r}: "
                                    f"got {gv!r}, reference {wv!r}")
    return problems
