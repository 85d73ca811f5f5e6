import csv

import numpy as np

from landscape_lab.tables import _cell, write_csv


def per_cell_csv(path, columns, rows):
    # the per-cell form write_csv replaced: one _cell call per cell
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row.get(c)) for c in columns])


def test_write_csv_matches_the_per_cell_form(tmp_path):
    # single-type columns take a type's formatter, mixed ones _cell; numpy
    # scalars subclass float and int but are not exactly those types
    columns = ["none", "flag", "count", "x", "name", "mixed", "scalars", "missing"]
    mixed = [None, True, 3, -0.0, "a,b", 1e-300, float("inf"), False, "q\"uote"]
    scalars = [np.float64(0.1), np.int64(7), 2.5, np.float64(float("nan"))]
    rows = [{"none": None, "flag": bool(i % 2), "count": i * 10 ** i - 5,
             "x": [0.1, -2.0, 1e22, float("nan"), 5e-324, 1 / 3][i % 6],
             "name": f"class {i}" if i % 4 else "line\nbreak",
             "mixed": mixed[i % len(mixed)], "scalars": scalars[i % len(scalars)]}
            for i in range(12)]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_csv(got, columns, rows)
    per_cell_csv(want, columns, rows)
    assert got.read_bytes() == want.read_bytes()
    write_csv(got, columns, [])
    per_cell_csv(want, columns, [])
    assert got.read_bytes() == want.read_bytes()
