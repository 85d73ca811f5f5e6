import json

import numpy as np
import pytest

from landscape_lab.tables import write_table


def test_write_table_csv_text(tmp_path):
    # single-type columns take a type's formatter, mixed ones _cell; an
    # array column is written from its Python scalars
    columns = {
        "none": [None] * 9,
        "flag": [True, False, True, False, False, True, True, False, True],
        "count": [-5, 0, 7, 10 ** 20, -(2 ** 70), 123456789012345678901234567890, 1, 2, 3],
        "x": np.array([0.1, -2.0, 1e22, float("nan"), 5e-324, 1 / 3, -0.0, 2.5, 1.0]),
        "name": ["class 1", "line\nbreak", "", "class 3", "class 4", "class 5", "class 6",
                 "class 7", "class 8"],
        "mixed": [None, True, 3, -0.0, "a,b", 1e-300, float("inf"), False, 'q"uote'],
    }
    path = write_table(tmp_path, "t", columns)
    assert path == tmp_path / "t.csv"
    assert path.read_bytes() == (
        b'none,flag,count,x,name,mixed\n'
        b',1,-5,0.1,class 1,\n'
        b',0,0,-2.0,"line\nbreak",1\n'
        b',1,7,1e+22,,3\n'
        b',0,100000000000000000000,nan,class 3,-0.0\n'
        b',0,-1180591620717411303424,5e-324,class 4,"a,b"\n'
        b',1,123456789012345678901234567890,0.3333333333333333,class 5,1e-300\n'
        b',1,1,-0.0,class 6,inf\n'
        b',0,2,2.5,class 7,0\n'
        b',1,3,1.0,class 8,"q""uote"\n')
    empty = {"a": [], "b": np.array([])}
    assert write_table(tmp_path, "e", empty).read_bytes() == b"a,b\n"
    assert write_table(tmp_path, "e", empty, "json").read_bytes() == b"[]\n"
    # a ragged table raises rather than being cut to its shortest column
    for fmt in ("csv", "json"):
        with pytest.raises(ValueError):
            write_table(tmp_path, "r", {"a": [1, 2], "b": [1]}, fmt)


@pytest.mark.parametrize("form", [list, np.array])
def test_numpy_scalars_are_written_as_the_python_scalars_they_hold(tmp_path, form):
    # np.float64 subclasses float, but its repr is np.float64(0.5); np.bool_
    # and np.int64 subclass neither bool nor int
    columns = {"f": form([np.float64(0.5), np.float64(1 / 3)]),
               "i": form([np.int64(7), np.int64(-2 ** 40)]),
               "b": form([np.bool_(True), np.bool_(False)])}
    csv_path = write_table(tmp_path, "t", columns)
    assert csv_path.read_text() == "f,i,b\n0.5,7,1\n0.3333333333333333,-1099511627776,0\n"
    rows = json.loads(write_table(tmp_path, "t", columns, "json").read_text())
    assert [[(type(v), v) for v in row.values()] for row in rows] == [
        [(bool, True), (float, 0.5), (int, 7)],
        [(bool, False), (float, 1 / 3), (int, -2 ** 40)]]
