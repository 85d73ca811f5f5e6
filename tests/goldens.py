"""Checked-in tables of the shipped configs: the identity rule as a test.

tests/golden/ holds, for each config in CONFIGS, the sha256 of every table
and plot-data file the CLI writes at seed 0 (golden.json), and a copy of
each such file of at most COPY_BYTES bytes, so that a diff of the goldens
shows which cells moved. golden.json also records the numpy version and
the SIMD targets that wrote them: numpy's exp and log kernels differ by
CPU, so the bytes must match only on the same numpy and targets. Elsewhere
every float cell must agree within RTOL relative and every other cell
exactly; a file kept only as its sha256 is then left unchecked.

A change that names its table change rewrites the goldens with

    PYTHONPATH=src python tests/goldens.py

which runs every config at workers 1 and 2 and refuses to write unless
both worker counts give the same bytes.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from landscape_lab import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = (
    "configs/biasvar.json",
    "configs/census_biased.json",
    "configs/grid.json",
    "configs/odds.json",
    "configs/smoothness.json",
    "configs/scaled/biasvar.json",
    "configs/scaled/knn.json",
    "configs/scaled/smoothness.json",
)
COPY_BYTES = 64_000
RTOL = 1e-12
_MAX_REPORTED = 5    # mismatching cells named per file


def environment() -> dict:
    """numpy's version and the SIMD targets its kernels run on here: the
    compiled baseline and the dispatch targets this CPU has, as
    np.show_runtime() lists them."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:   # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return {"numpy": np.__version__,
            "simd_baseline": list(umath.__cpu_baseline__),
            "simd_found": [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__[f]]}


def run_config(config: str, workers: int, out_dir: Path) -> dict:
    """{file name: bytes} of every table the CLI writes for config at seed 0."""
    experiment = json.loads((ROOT / config).read_text(encoding="utf-8"))["experiment"]
    status = cli.main([experiment, "--config", str(ROOT / config), "--out-dir",
                       str(out_dir), "--seed", "0", "--workers", str(workers)])
    if status != 0:
        raise RuntimeError(f"{config} at workers {workers} exited {status}")
    return {p.name: p.read_bytes() for p in sorted(Path(out_dir).glob("*.csv"))}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _copy_path(config: str, name: str) -> Path:
    return GOLDEN / Path(config).with_suffix("") / name


def load() -> dict:
    return json.loads((GOLDEN / "golden.json").read_text(encoding="utf-8"))


def _cells_equal(golden: str, value: str, exact: bool) -> bool:
    if golden == value:
        return True
    if exact:
        return False
    try:
        g, v = float(golden), float(value)
    except ValueError:
        return False
    return abs(g - v) <= RTOL * max(abs(g), abs(v))


def _cell_mismatches(label: str, golden: bytes, data: bytes, exact: bool) -> list:
    """Each cell of data that differs from golden's, named by file, row and
    column; exact compares text, else floats agree within RTOL."""
    g_rows = list(csv.reader(io.StringIO(golden.decode("utf-8"))))
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    if not rows or len(rows) != len(g_rows) or rows[0] != g_rows[0]:
        return [f"{label}: header or row count differs "
                f"({len(rows)} rows against {len(g_rows)})"]
    header = g_rows[0]
    problems = []
    for i, (g_row, row) in enumerate(zip(g_rows[1:], rows[1:]), start=1):
        if len(row) != len(g_row):
            problems.append(f"{label} row {i}: {len(row)} cells against {len(g_row)}")
            continue
        problems += [f"{label} row {i} column {column}: golden {g} != {v}"
                     for column, g, v in zip(header, g_row, row)
                     if not _cells_equal(g, v, exact)]
    if exact and not problems:
        problems.append(f"{label}: bytes differ in no cell (line ends or quoting)")
    return problems[:_MAX_REPORTED]


def compare(config: str, tables: dict, golden: dict | None = None) -> tuple:
    """(problems, unchecked) of config's tables against the goldens.

    On the recorded numpy and SIMD targets each file must have its golden
    sha256; a file that does not names the cells that moved, if a copy is
    kept. Elsewhere each kept copy is compared cell by cell within RTOL,
    and the files kept only as a sha256 are returned as unchecked.
    """
    golden = golden or load()
    exact = golden["environment"] == environment()
    hashes = golden["sha256"][config]
    if sorted(tables) != sorted(hashes):
        return [f"{config}: wrote {sorted(tables)}, goldens hold {sorted(hashes)}"], []
    problems, unchecked = [], []
    for name, data in tables.items():
        if exact and _sha256(data) == hashes[name]:
            continue
        copy = _copy_path(config, name)
        if copy.exists():
            problems += _cell_mismatches(f"{config} {name}", copy.read_bytes(), data,
                                         exact)
        elif exact:
            problems.append(f"{config} {name}: sha256 {_sha256(data)} is not the "
                            f"golden {hashes[name]}")
        else:
            unchecked.append(f"{config} {name}")
    return problems, unchecked


def rewrite() -> None:
    """Run every config at workers 1 and 2 and write their goldens."""
    hashes = {}
    copies = {}
    with tempfile.TemporaryDirectory() as tmp:
        for config in CONFIGS:
            one, two = (run_config(config, workers, Path(tmp) / f"{config}-{workers}")
                        for workers in (1, 2))
            if one != two:
                raise SystemExit(f"{config}: workers 1 and 2 wrote different tables")
            hashes[config] = {name: _sha256(data) for name, data in one.items()}
            copies.update({_copy_path(config, name): data for name, data in one.items()
                           if len(data) <= COPY_BYTES})
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for path, data in copies.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    record = {"environment": environment(), "sha256": hashes}
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    (GOLDEN / "golden.json").write_text(text, encoding="utf-8")
    print(f"wrote goldens of {len(CONFIGS)} configs to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    rewrite()
