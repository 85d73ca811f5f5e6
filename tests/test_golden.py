"""Every shipped config writes its checked-in tables at any worker count
(tests/goldens.py; a named table change rewrites them)."""

import pytest

import goldens


def test_goldens_cover_every_demo_config():
    demos = {f"configs/{p.name}" for p in (goldens.ROOT / "configs").glob("*.json")}
    assert demos <= set(goldens.CONFIGS)
    assert set(goldens.load()["sha256"]) == set(goldens.CONFIGS)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("config", goldens.CONFIGS)
def test_tables_match_their_goldens(tmp_path, config, workers):
    problems, unchecked = goldens.compare(config,
                                          goldens.run_config(config, workers, tmp_path))
    assert not problems, "\n".join(problems)
    if unchecked:
        pytest.skip(f"kept only as sha256, written on another numpy or SIMD target: "
                    f"{', '.join(unchecked)}")


def test_a_moved_cell_is_named():
    # a diversity digit moved by 1e-9 relative is named by its file, row
    # and column, both on the recorded numpy and SIMD targets and elsewhere
    config, name = "configs/census_biased.json", "census.csv"
    golden = goldens.load()
    tables = {n: goldens._copy_path(config, n).read_bytes()
              for n in golden["sha256"][config]}
    header, first, *rest = tables[name].decode().split("\n")
    column = header.split(",").index("diversity")
    cells = first.split(",")
    cells[column] = repr(float(cells[column]) * (1 + 1e-9))
    moved = "\n".join([header, ",".join(cells), *rest]).encode()
    for recorded in (goldens.environment(), {"numpy": "another"}):
        problems, _ = goldens.compare(config, {**tables, name: moved},
                                      {**golden, "environment": recorded})
        assert problems and problems[0].startswith(
            f"{config} {name} row 1 column diversity: golden"), problems
