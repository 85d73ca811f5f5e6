"""Result-table serialization.

A table is an ordered mapping of column name to a list or a 1-D array of
cells; an array is written from .tolist(), and a numpy scalar as the
Python scalar it holds. CSV is the interchange format the acceptance
tooling diffs: mandatory headers, '.' decimals, UTF-8, LF line endings,
and floats written with repr (shortest round-trip) so repeated runs are
byte-identical. JSON holds the same cells as a list of row objects.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from landscape_lab.errors import InputError


def _cell(value) -> str:
    if isinstance(value, np.generic):
        value = value.item()
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


def write_table(out_dir, name: str, columns: dict, fmt: str = "csv") -> Path:
    """Write columns, {name: list or 1-D array}, as out_dir/name.csv or
    name.json and return its path; a ragged table raises ValueError."""
    if fmt not in ("csv", "json"):
        raise InputError(f"unknown table format {fmt!r}")
    cells = [v.tolist() if isinstance(v, np.ndarray) else v for v in columns.values()]
    path = Path(out_dir) / f"{name}.{fmt}"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if fmt == "csv":
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows(zip(*map(_column, cells), strict=True))
        else:
            rows = [dict(zip(columns, row)) for row in zip(*cells, strict=True)]
            # json.dump's fallback for a type it cannot write: a numpy
            # scalar's item(), a TypeError for anything else
            json.dump(rows, fh, indent=2, sort_keys=True, default=np.generic.item)
            fh.write("\n")
    return path
