"""Result-table serialization.

CSV is the interchange format the acceptance tooling diffs: mandatory
headers, '.' decimals, UTF-8, LF line endings, and floats written with
repr (shortest round-trip) so repeated runs are byte-identical.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from landscape_lab.errors import InputError


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


# _cell's result for a value of exactly this type, as a plain function
_EXACT = {type(None): lambda value: "", bool: lambda value: str(int(value)),
          float: float.__repr__, int: int.__repr__, str: str}


def _column(values: list) -> list[str]:
    """_cell of each value, mapped a column at a time: a column of one
    exact type (a table's usual case) takes that type's formatter in one
    map, anything else goes through _cell."""
    kinds = set(map(type, values))
    fmt = _EXACT.get(kinds.pop()) if len(kinds) == 1 else None
    return list(map(fmt or _cell, values))


def write_csv(path, columns: list[str], rows: list[dict]) -> None:
    cells = [_column([row.get(c) for row in rows]) for c in columns]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(zip(*cells))


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

