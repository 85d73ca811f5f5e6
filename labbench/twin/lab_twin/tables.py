"""Result-table serialization.

CSV is the interchange format the acceptance tooling diffs: mandatory
headers, '.' decimals, UTF-8, LF line endings, and floats written with
repr (shortest round-trip) so repeated runs are byte-identical.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from lab_twin.errors import InputError


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path, columns: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row.get(c)) for c in columns])


def write_json(path, columns: list[str], rows: list[dict]) -> None:
    payload = [{c: row.get(c) for c in columns} for row in rows]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_table(out_dir, name: str, columns: list[str], rows: list[dict],
                fmt: str = "csv") -> Path:
    out_dir = Path(out_dir)
    if fmt == "csv":
        path = out_dir / f"{name}.csv"
        write_csv(path, columns, rows)
    elif fmt == "json":
        path = out_dir / f"{name}.json"
        write_json(path, columns, rows)
    else:
        raise InputError(f"unknown table format {fmt!r}")
    return path


def read_table(out_dir, name: str) -> list[dict]:
    """Read a table written by write_table, trying csv then json."""
    out_dir = Path(out_dir)
    csv_path = out_dir / f"{name}.csv"
    if csv_path.exists():
        with open(csv_path, newline="", encoding="utf-8") as fh:
            return [dict(r) for r in csv.DictReader(fh)]
    json_path = out_dir / f"{name}.json"
    if json_path.exists():
        with open(json_path, encoding="utf-8") as fh:
            return json.load(fh)
    raise InputError(f"missing result table {name!r} in {out_dir}")
