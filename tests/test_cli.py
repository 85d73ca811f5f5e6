import csv
import inspect
import json
import math
from pathlib import Path

import numpy as np
import pytest

from landscape_lab.abstraction import jacobian_norm_probe, smoothness_report
from landscape_lab.census import bias_variance_probes
from landscape_lab.cli import (
    SCHEMAS,
    RunConfig,
    build_run_config,
    main,
    run,
    validate_params,
)
from landscape_lab.errors import ConfigError
from landscape_lab.landscape import MemorySet, save_memory_csv


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("experiment, key", [
    ("grid", "typo_key"),
    # keys an experiment does not read are not in its schema
    ("census", "probe_sigma"),
    ("census", "bootstrap_rounds"),
    ("biasvar", "n_queries"),
    ("biasvar", "query_sigma"),
    ("knn", "beta"),
])
def test_unknown_key_rejected_by_name(experiment, key):
    with pytest.raises(ConfigError, match=repr(key)):
        validate_params(experiment, {key: 1})


def test_schema_defaults_are_the_library_defaults():
    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    for key in ("probe_sigma", "bootstrap_rounds", "stratified", "levels"):
        assert SCHEMAS["biasvar"][key] == default(bias_variance_probes, key)
    for key in ("probes", "probe_radius", "fd_step"):
        assert SCHEMAS["smoothness"][key] == default(smoothness_report, key)
    assert SCHEMAS["smoothness"]["jacobian_probes"] == default(jacobian_norm_probe, "probes")


def test_type_checks():
    with pytest.raises(ConfigError):
        validate_params("grid", {"side": "big"})
    with pytest.raises(ConfigError):
        validate_params("grid", {"p_red": 0.5})      # list expected
    with pytest.raises(ConfigError):
        validate_params("biasvar", {"stratified": 3})


@pytest.mark.parametrize("experiment, key, value", [
    ("census", "query_sigma", "wide"),
    ("census", "levels", "ab"),
    ("census", "factors", 3),
    ("census", "class_counts", ["a"]),
    ("smoothness", "probe_radius", "x"),
    # fractional values for int keys, which int() would truncate
    ("census", "levels", [0.5]),
    ("census", "n_queries", 100.5),
    ("census", "max_steps", 10.5),
    ("census", "class_counts", [9.5, 1]),
    ("odds", "scenarios", [[2, 1.5, 2]]),
    # global keys from the config file
    ("odds", "seed", "abc"),
    ("odds", "seed", 1.7),
    ("odds", "seed", True),
    ("odds", "workers", None),
    ("odds", "workers", 2.5),
    ("odds", "out_dir", 5),
])
def test_wrong_types_exit_2(tmp_path, capsys, experiment, key, value):
    cfg = write_cfg(tmp_path, "c.json", {key: value})
    code = main([experiment, "--config", cfg, "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize("experiment, key", [("grid", "side"), ("odds", "seed")])
def test_bool_for_a_number_names_a_number(tmp_path, capsys, experiment, key):
    # a bool is an int to Python but not a number to the schema
    cfg = write_cfg(tmp_path, "c.json", {key: True})
    assert main([experiment, "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert f"config key {key!r} expects a number" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["census", "biasvar"])
def test_empty_levels_exit_2(tmp_path, capsys, experiment):
    cfg = write_cfg(tmp_path, "c.json", {"levels": []})
    out = tmp_path / "out"
    assert main([experiment, "--config", cfg, "--out-dir", str(out)]) == 2
    assert "levels must name at least one level" in capsys.readouterr().err
    assert not (out / "census.csv").exists()
    assert not (out / f"{experiment}.csv").exists()


def test_every_none_default_has_a_type():
    for experiment, schema in SCHEMAS.items():
        for key, default in schema.items():
            if default is None:
                validate_params(experiment, {key: None})
                with pytest.raises(ConfigError):
                    validate_params(experiment, {key: {}})


def test_run_config_validation(tmp_path):
    with pytest.raises(ConfigError):
        RunConfig(experiment="nope")
    with pytest.raises(ConfigError):
        RunConfig(experiment="grid", format="xml")
    with pytest.raises(ConfigError):
        RunConfig(experiment="grid", workers=0)


def test_experiment_name_must_match_subcommand(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {"experiment": "odds"})
    assert main(["grid", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 2


def test_env_overrides_and_flag_precedence(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, "c.json", {"seed": 1, "out_dir": "from_config"})
    monkeypatch.setenv("LANDSCAPE_LAB_SEED", "2")
    monkeypatch.setenv("LANDSCAPE_LAB_OUT_DIR", str(tmp_path / "from_env"))

    class Args:
        config = cfg
        seed = None
        out_dir = None
        format = None
        workers = None

    rc = build_run_config("grid", Args)
    assert rc.seed == 2 and rc.out_dir == tmp_path / "from_env"

    Args.seed = 3
    Args.out_dir = str(tmp_path / "from_flag")
    rc = build_run_config("grid", Args)
    assert rc.seed == 3 and rc.out_dir == tmp_path / "from_flag"


def test_bad_env_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("LANDSCAPE_LAB_SEED", "not_an_int")
    assert main(["odds", "--out-dir", str(tmp_path / "o")]) == 2


# ---------------------------------------------------------------------------
# Experiments through the CLI
# ---------------------------------------------------------------------------

def test_grid_balanced_symmetric(tmp_path):
    cfg = write_cfg(tmp_path, "g.json", {"side": 256, "p_red": [0.5], "levels": 3})
    out = tmp_path / "out"
    assert main(["grid", "--config", cfg, "--seed", "4",
                 "--out-dir", str(out)]) == 0
    rows = read_csv(out / "grid.csv")
    shares = {int(r["level"]): float(r["red_share"]) for r in rows}
    cells_last = (256 // 2 ** 3) ** 2
    assert abs(shares[0] - shares[3]) < 3 * math.sqrt(0.25 / cells_last)


def test_odds_table_values(tmp_path):
    cfg = write_cfg(tmp_path, "o.json", {"scenarios": [[9, 1, 3]], "trials": 2000})
    out = tmp_path / "out"
    assert main(["odds", "--config", cfg, "--out-dir", str(out)]) == 0
    rows = read_csv(out / "odds.csv")
    assert len(rows) == 1
    assert float(rows[0]["lambda_smooth"]) == 729.0
    assert float(rows[0]["lambda_init"]) == 9.0
    assert int(rows[0]["pure_A"]) + int(rows[0]["pure_B"]) + int(rows[0]["mixed"]) == 2000


def test_repeat_runs_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, "c.json",
                    {"n_queries": 300, "dim": 1, "depth": 2, "class_counts": [3, 2]})
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["census", "--config", cfg, "--seed", "6", "--out-dir", str(out1)]) == 0
    assert main(["census", "--config", cfg, "--seed", "6", "--out-dir", str(out2)]) == 0
    assert (out1 / "census.csv").read_bytes() == (out2 / "census.csv").read_bytes()
    assert (out1 / "plotdata_census.csv").read_bytes() \
        == (out2 / "plotdata_census.csv").read_bytes()


def test_worker_count_does_not_change_tables(tmp_path):
    cfg = write_cfg(tmp_path, "c.json",
                    {"n_queries": 600, "dim": 2, "depth": 2, "class_counts": [5, 2]})
    out1, out8 = tmp_path / "w1", tmp_path / "w8"
    assert main(["census", "--config", cfg, "--seed", "8", "--out-dir", str(out1),
                 "--workers", "1"]) == 0
    assert main(["census", "--config", cfg, "--seed", "8", "--out-dir", str(out8),
                 "--workers", "8"]) == 0
    assert (out1 / "census.csv").read_bytes() == (out8 / "census.csv").read_bytes()


def test_json_format(tmp_path):
    cfg = write_cfg(tmp_path, "o.json", {"scenarios": [[2, 1, 2]], "trials": 500})
    out = tmp_path / "out"
    assert main(["odds", "--config", cfg, "--format", "json",
                 "--out-dir", str(out)]) == 0
    rows = json.loads((out / "odds.json").read_text())
    assert rows[0]["lambda_smooth"] == 4.0


def test_manifest_contents(tmp_path):
    out = tmp_path / "out"
    assert main(["odds", "--seed", "11", "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["experiment"] == "odds"
    assert manifest["seed"] == 11
    assert manifest["artifact_version"]
    assert "wall_time_s" in manifest
    assert manifest["params"]["trials"] == 100000


def test_smoothness_experiment(tmp_path):
    cfg = write_cfg(tmp_path, "s.json",
                    {"dim": 2, "class_counts": [4], "beta": 4.0, "depth": 3,
                     "probes": 32, "jacobian_probes": 8})
    out = tmp_path / "out"
    assert main(["smoothness", "--config", cfg, "--seed", "2",
                 "--out-dir", str(out)]) == 0
    rows = read_csv(out / "smoothness.csv")
    assert [r["level"] for r in rows] == ["0", "1", "2", "3"]
    hess = [float(r["hessian_norm_est"]) for r in rows]
    jac = [float(r["jacobian_norm_est"]) for r in rows]
    assert all(b < a for a, b in zip(hess, hess[1:]))
    assert all(b < a for a, b in zip(jac, jac[1:]))
    assert (out / "plotdata_smoothness.csv").exists()


def test_knn_experiment(tmp_path):
    cfg = write_cfg(tmp_path, "k.json",
                    {"dim": 1, "class_counts": [3, 3],
                     "taus": [0.01, 10.0], "n_queries": 6})
    out = tmp_path / "out"
    assert main(["knn", "--config", cfg, "--seed", "3", "--out-dir", str(out)]) == 0
    rows = read_csv(out / "knn.csv")
    assert len(rows) == 12
    assert set(r["tau"] for r in rows) == {"0.01", "10.0"}
    for r in rows:
        assert r["agreement_flag"] in ("0", "1")
        assert float(r["k_equivalent"]) >= 1.0


def test_biasvar_experiment(tmp_path):
    cfg = write_cfg(tmp_path, "b.json",
                    {"dim": 1, "class_counts": [2, 1], "beta": 12.0, "depth": 2,
                     "probe_sigma": 1e-6, "bootstrap_rounds": 12})
    out = tmp_path / "out"
    assert main(["biasvar", "--config", cfg, "--seed", "5",
                 "--out-dir", str(out)]) == 0
    rows = read_csv(out / "biasvar.csv")
    assert {r["class"] for r in rows} == {"c0", "c1"}
    assert all(set(r) == {"level", "class", "bias", "variance_mean"} for r in rows)


def test_privacy_experiment(tmp_path):
    cfg = write_cfg(tmp_path, "p.json",
                    {"dim": 1, "n_queries": 300, "depth": 3, "class_counts": [5, 1]})
    out = tmp_path / "out"
    assert main(["privacy", "--config", cfg, "--seed", "9",
                 "--out-dir", str(out)]) == 0
    rows = read_csv(out / "privacy.csv")
    ks = sorted({int(r["k"]) for r in rows})
    assert ks == [1, 2, 5, 10]
    level0 = {int(r["k"]): float(r["mean_knn_distance"])
              for r in rows if r["level"] == "0"}
    assert level0[1] <= level0[2] <= level0[5] <= level0[10]
    assert json.loads((out / "manifest.json").read_text())["experiment"] == "privacy"
    # privacy is an alias of census: one census run writes both tables
    census_out = tmp_path / "census"
    assert main(["census", "--config", cfg, "--seed", "9",
                 "--out-dir", str(census_out)]) == 0
    for name in ("census.csv", "privacy.csv", "plotdata_census.csv"):
        assert (out / name).read_bytes() == (census_out / name).read_bytes()


def test_plotdata_comes_from_this_runs_tables(tmp_path):
    # an older run's CSV tables in the same directory must not leak into
    # the plot data of a JSON run
    cfg = write_cfg(tmp_path, "c.json",
                    {"dim": 1, "n_queries": 300, "depth": 2, "class_counts": [3, 2]})
    out = tmp_path / "out"
    assert main(["census", "--config", cfg, "--seed", "1", "--out-dir", str(out)]) == 0
    assert main(["census", "--config", cfg, "--seed", "2", "--format", "json",
                 "--out-dir", str(out)]) == 0
    census = json.loads((out / "census.json").read_text())
    plot = json.loads((out / "plotdata_census.json").read_text())
    for series in ("amplification", "diversity", "privacy_k1"):
        expected = {r["level"]: r[series] for r in census}
        assert {r["x"]: r["y"] for r in plot if r["series"] == series} == expected


def test_plotdata_amplification_stderr_is_the_data_majority_share(tmp_path):
    # the data majority c0 generates nothing while c2 generates most
    # queries, so the stderr of c0's generated share is 0, not c2's
    cfg = write_cfg(tmp_path, "c.json",
                    {"dim": 1, "class_counts": [4, 3, 3], "blob_spread": 0.2,
                     "center_scale": 1.0, "beta": 10.0, "depth": 4, "n_queries": 2000})
    out = tmp_path / "out"
    assert main(["census", "--config", cfg, "--seed", "0", "--out-dir", str(out)]) == 0
    census = read_csv(out / "census.csv")
    plot = [r for r in read_csv(out / "plotdata_census.csv")
            if r["series"] == "amplification"]
    assert len(plot) == 5
    for r in plot:
        rows = [c for c in census if c["level"] == r["x"]]
        majority = max(rows, key=lambda c: float(c["p_data"]))
        p = float(majority["p_gen"])
        n = int(majority["n_queries"]) - int(majority["failures"])
        assert float(r["stderr"]) == pytest.approx(math.sqrt(p * (1 - p) / n), abs=1e-15)
    level0 = {c["class"]: float(c["p_gen"]) for c in census if c["level"] == "0"}
    assert level0["c0"] == 0.0 and level0["c2"] > level0["c1"]
    assert float(plot[0]["stderr"]) == 0.0


def test_memories_csv_input(tmp_path):
    ms = MemorySet(np.array([[-1.0], [1.0]]), ("L", "R"))
    mem_path = tmp_path / "mem.csv"
    save_memory_csv(ms, mem_path)
    cfg = write_cfg(tmp_path, "c.json",
                    {"memories_csv": str(mem_path), "beta": 4.0, "depth": 2,
                     "n_queries": 300})
    out = tmp_path / "out"
    assert main(["census", "--config", cfg, "--seed", "1",
                 "--out-dir", str(out)]) == 0
    rows = read_csv(out / "census.csv")
    assert {r["class"] for r in rows} == {"L", "R"}


def test_numerical_failure_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, "c.json",
                    {"n_queries": 200, "grad_tol": 1e-14, "max_steps": 1})
    assert main(["census", "--config", cfg,
                 "--out-dir", str(tmp_path / "out")]) == 3


@pytest.mark.parametrize("experiment", ["census", "biasvar"])
def test_failure_names_memories_outside_decoder_range(tmp_path, capsys, experiment):
    # tanh factors smaller than the memories' extent: memories outside
    # (-c, c) have no level minimum, so flows toward them fail
    own_keys = {"census": {"n_queries": 200}, "biasvar": {"bootstrap_rounds": 10}}
    cfg = write_cfg(tmp_path, "c.json", {
        "dim": 2, "class_counts": [6, 2], "blob_spread": 0.2, "center_scale": 1.0,
        "beta": 10.0, "decoder": "tanh", "depth": 2, "max_steps": 500, **own_keys[experiment]})
    assert main([experiment, "--config", cfg,
                 "--out-dir", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert ("3 of 8 memories lie outside level 1's decoder range "
            "and have no minimum there") in err
    if experiment == "biasvar":
        assert "4 of 8 memories lie outside level 2's decoder range" in err


def test_failing_census_reports_the_same_at_any_worker_count(tmp_path, capsys):
    # level 1 passes the failure budget in its first chunk; at 2 workers
    # the second chunk, already running, is stopped and its rows dropped
    cfg = write_cfg(tmp_path, "c.json", {
        "dim": 2, "class_counts": [6, 2], "blob_spread": 0.2, "center_scale": 1.0,
        "beta": 10.0, "decoder": "tanh", "depth": 2, "max_steps": 500,
        "n_queries": 2500})
    errors = []
    for workers in ("1", "2"):
        assert main(["census", "--config", cfg, "--workers", workers,
                     "--out-dir", str(tmp_path / "out")]) == 3
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert "level 1: " in errors[0] and "flows failed (of 2500 planned)" in errors[0]


def test_whole_float_accepted_for_int_key():
    params = validate_params("census", {"n_queries": 5000.0, "levels": [1.0]})
    assert params["n_queries"] == 5000.0 and params["levels"] == [1.0]


def test_missing_config_file(tmp_path):
    assert main(["grid", "--config", str(tmp_path / "nope.json"),
                 "--out-dir", str(tmp_path / "out")]) == 2


# ---------------------------------------------------------------------------
# Plot data
# ---------------------------------------------------------------------------

def test_emit_plotdata_grid_series(tmp_path):
    cfg = write_cfg(tmp_path, "g.json", {"side": 64, "p_red": [0.6, 0.9], "levels": 2})
    out = tmp_path / "out"
    assert main(["grid", "--config", cfg, "--out-dir", str(out)]) == 0
    rows = read_csv(out / "plotdata_grid.csv")
    series = {r["series"] for r in rows}
    assert series == {"p_red=0.6", "p_red=0.9"}
    assert {r["x"] for r in rows} == {"0", "1", "2"}


def test_pbm_dump(tmp_path):
    cfg = write_cfg(tmp_path, "g.json",
                    {"side": 16, "p_red": [0.8], "levels": 2, "dump_bitmaps": True})
    out = tmp_path / "out"
    assert main(["grid", "--config", cfg, "--out-dir", str(out)]) == 0
    assert (out / "grid_p0.8_level0.pbm").exists()
    assert (out / "grid_p0.8_level2.pbm").exists()
