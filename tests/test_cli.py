import csv
import inspect
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import oracles
from landscape_lab import cli, dynamics, gridsim, landscape
from landscape_lab.abstraction import jacobian_norm_probe, smoothness_report
from landscape_lab._seeds import derive_rng
from landscape_lab.census import bias_variance_probes, default_flow_config, default_query_sigma
from landscape_lab.cli import (
    SCHEMAS,
    RunConfig,
    build_run_config,
    main,
    run,
    validate_params,
)
from landscape_lab.errors import ConfigError
from landscape_lab.knn import argmax_class, knn_predict, soft_knn_predict
from landscape_lab.landscape import (CHUNK, EnergyLandscape, MemorySet, load_memory_csv,
                                     save_memory_csv)


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


@pytest.mark.parametrize("experiment, text, message", [
    # 1e400 parses as inf, which passes a "> 0" check and then fails in flow
    ("biasvar", '{"probe_sigma": 1e400}', "probe_sigma must be a positive finite real, got inf"),
    ("census", '{"query_sigma": 1e400}', "query_sigma must be a positive finite real, got inf"),
    ("knn", '{"query_sigma": 1e400}', "query_sigma must be a finite real, got inf"),
    # a repeated level would be flowed twice and its rows written twice
    ("biasvar", '{"levels": [0, 0]}', "levels must not repeat a level, got [0, 0]"),
    ("census", '{"levels": [1, 1]}', "levels must not repeat a level, got [1, 1]"),
])
def test_infinite_sigmas_and_repeated_levels_exit_2(tmp_path, capsys, experiment, text,
                                                    message):
    cfg = tmp_path / "c.json"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main([experiment, "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("experiment", ["census", "privacy", "biasvar", "knn"])
@pytest.mark.parametrize("text, message", [
    # an infinite grad_tol ended every flow converged at its start, and an
    # infinite step_size failed every flow on inf - inf
    ('{"grad_tol": Infinity}', "grad_tol must be positive and finite, got inf"),
    ('{"grad_tol": NaN}', "grad_tol must be positive and finite, got nan"),
    ('{"step_size": Infinity}', "step_size must be positive and finite, got inf"),
    ('{"step_size": 1e400}', "step_size must be positive and finite, got inf"),
])
def test_non_finite_flow_settings_exit_2(tmp_path, capsys, experiment, text, message):
    cfg = tmp_path / "c.json"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main([experiment, "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("entry, message", [
    # a step that leaves the probes where they were wrote a Hessian norm
    # of 0.0 at every level; an infinite step or radius ended in NaN
    ('"fd_step": 1e-20', "fd_step 1e-20 is below the float resolution of the points: "
                         "x + h e_i or x - h e_i rounds to x"),
    ('"fd_step": Infinity', "fd_step must be positive and finite, got inf"),
    ('"probe_radius": Infinity', "probe_radius must be positive and finite, got inf"),
])
def test_unusable_smoothness_step_or_radius_exits_2(tmp_path, capsys, entry, message):
    cfg = tmp_path / "c.json"
    cfg.write_text(f'{{{entry}, "probes": 16, "jacobian_probes": 4}}', encoding="utf-8")
    out = tmp_path / "out"
    assert main(["smoothness", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(out.glob("*.csv"))


_TRIPLES = "scenarios must be a non-empty list of [p, q, S] triples"


@pytest.mark.parametrize("experiment, key, value, message", [
    ("knn", "n_queries", -1, "n_queries must be >= 1, got -1"),
    ("knn", "n_queries", 0, "n_queries must be >= 1, got 0"),
    ("knn", "taus", [], "taus must name at least one tau"),
    ("knn", "query_sigma", -0.5, "query_sigma must be >= 0, got -0.5"),
    ("grid", "p_red", [], "p_red must name at least one initial share"),
    ("odds", "scenarios", [], _TRIPLES),
    ("odds", "scenarios", [[2, 1]], _TRIPLES),
    ("odds", "scenarios", [[]], _TRIPLES),
    *[(experiment, "class_counts", [], "class_counts must name at least one class")
      for experiment in ("census", "biasvar", "smoothness", "knn")],
])
def test_empty_lists_and_bad_counts_exit_2(tmp_path, capsys, experiment, key, value,
                                          message):
    # rejected with its reason, neither a traceback nor a header-only table
    cfg = write_cfg(tmp_path, "c.json", {key: value})
    out = tmp_path / "out"
    assert main([experiment, "--config", cfg, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(out.glob("*.csv"))


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


def test_census_manifest_records_phases_and_tables_ignore_workers(tmp_path):
    # 600 queries in 2-D: diversity walks several pair tiles, which run on
    # the census's threads at 2 workers
    cfg = write_cfg(tmp_path, "c.json",
                    {"n_queries": 600, "dim": 2, "depth": 2, "class_counts": [5, 2]})
    outs = [tmp_path / f"w{w}" for w in (1, 2)]
    for w, out in zip((1, 2), outs):
        assert main(["census", "--config", cfg, "--seed", "8", "--out-dir", str(out),
                     "--workers", str(w)]) == 0
    for name in ("census.csv", "privacy.csv", "plotdata_census.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    for out in outs:
        phases = json.loads((out / "manifest.json").read_text())["phases"]
        assert [p["level"] for p in phases] == [0, 1, 2]
        for p in phases:
            assert set(p) == {"level", "flow", "classification", "diversity", "privacy"}
            assert all(p[k] >= 0.0 for k in p)


def test_knn_and_biasvar_manifests_record_phases_outside_the_tables(tmp_path):
    # knn records its flow and table seconds, biasvar each level's flow
    # and classification seconds; neither reaches a table, which stays
    # the same bytes at 1 and 2 workers
    runs = {"knn": ({"n_queries": 40, "taus": [0.5, 2.0]}, ["knn.csv"]),
            "biasvar": ({"dim": 1, "class_counts": [2, 1], "beta": 12.0, "depth": 2,
                         "probe_sigma": 0.3, "bootstrap_rounds": 12}, ["biasvar.csv"])}
    for experiment, (params, tables) in runs.items():
        cfg = write_cfg(tmp_path, f"{experiment}.json", params)
        outs = [tmp_path / f"{experiment}-w{w}" for w in (1, 2)]
        for w, out in zip((1, 2), outs):
            assert main([experiment, "--config", cfg, "--seed", "3", "--workers", str(w),
                         "--out-dir", str(out)]) == 0
        for name in tables:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
            header = (outs[0] / name).read_text().splitlines()[0].split(",")
            assert not {"flow", "table", "classification"} & set(header)
        for out in outs:
            phases = json.loads((out / "manifest.json").read_text())["phases"]
            if experiment == "knn":
                assert set(phases) == {"flow", "table"}
                assert all(t >= 0.0 for t in phases.values())
            else:
                assert [p["level"] for p in phases] == [0, 1, 2]
                for p in phases:
                    assert set(p) == {"level", "flow", "classification"}
                    assert all(p[k] >= 0.0 for k in p)


def test_json_format(tmp_path):
    cfg = write_cfg(tmp_path, "o.json", {"scenarios": [[2, 1, 2]], "trials": 500})
    out = tmp_path / "out"
    assert main(["odds", "--config", cfg, "--format", "json",
                 "--out-dir", str(out)]) == 0
    rows = json.loads((out / "odds.json").read_text())
    assert rows[0]["lambda_smooth"] == 4.0


@pytest.mark.parametrize("experiment, params, tables", [
    ("census", {"dim": 1, "n_queries": 100, "depth": 2, "class_counts": [3, 2]},
     ["census", "privacy", "plotdata_census"]),
    ("biasvar", {"dim": 1, "class_counts": [2, 1], "beta": 12.0, "depth": 2,
                 "bootstrap_rounds": 12}, ["biasvar"]),
    ("smoothness", {"dim": 2, "class_counts": [3, 2], "depth": 2, "probes": 8,
                    "jacobian_probes": 4}, ["smoothness", "plotdata_smoothness"]),
    # two windows, so the query-major interleave crosses a window edge
    ("knn", {"dim": 1, "class_counts": [3, 3], "taus": [0.05, 0.5, 2.0],
             "n_queries": CHUNK + 5}, ["knn"]),
    ("odds", {"scenarios": [[2, 1, 2], [9, 1, 3]], "trials": 500}, ["odds"]),
    ("grid", {"side": 32, "p_red": [0.6, 0.9], "levels": 2}, ["grid", "plotdata_grid"]),
])
def test_json_tables_hold_the_csv_tables_cells(tmp_path, experiment, params, tables):
    # None is an empty CSV cell and a JSON null; every other JSON value is
    # the number or string its CSV cell spells
    def spelled(value):
        return "" if value is None else repr(value) if isinstance(value, float) else str(value)

    cfg = write_cfg(tmp_path, "c.json", params)
    for fmt in ("csv", "json"):
        assert main([experiment, "--config", cfg, "--format", fmt,
                     "--out-dir", str(tmp_path / fmt)]) == 0
    for name in tables:
        csv_rows = read_csv(tmp_path / "csv" / f"{name}.csv")
        json_rows = json.loads((tmp_path / "json" / f"{name}.json").read_text())
        assert csv_rows and len(json_rows) == len(csv_rows)
        for csv_row, json_row in zip(csv_rows, json_rows):
            assert {k: spelled(v) for k, v in json_row.items()} == csv_row
        if name.startswith("plotdata"):
            assert None in [row["stderr"] for row in json_rows]


def test_manifest_contents(tmp_path):
    out = tmp_path / "out"
    assert main(["odds", "--seed", "11", "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["experiment"] == "odds"
    assert manifest["seed"] == 11
    assert manifest["artifact_version"]
    assert "wall_time_s" in manifest
    assert manifest["params"]["trials"] == 100000
    env = manifest["environment"]
    assert set(env) == {"numpy", "scipy", "blas", "cpu_count", "sqdist_ufunc_buffer"}
    assert env["numpy"] == np.__version__
    assert env["scipy"] == scipy.__version__
    assert env["sqdist_ufunc_buffer"] == landscape._SMALL_BUFFER
    # a process that never imports scipy reads the version from its metadata
    code = ("import importlib.metadata, json, sys\n"
            "from landscape_lab import cli\n"
            "env = cli._environment()\n"
            "assert 'scipy' not in sys.modules\n"
            "print(json.dumps([env['scipy'], importlib.metadata.version('scipy')]))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    proc_env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=proc_env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    from_metadata, expected = json.loads(out)
    assert from_metadata == expected


def test_main_calls_in_one_process_keep_their_own_arguments(tmp_path, monkeypatch):
    # the parser is built once a process: no parse may leak into the next
    monkeypatch.delenv("LANDSCAPE_LAB_SEED", raising=False)
    params = {"grid": {"side": 8, "levels": 2, "p_red": [0.6]},
              "odds": {"trials": 100, "scenarios": [[2, 1, 2]]}}
    grid_cfg = write_cfg(tmp_path, "g.json", params["grid"])
    odds_cfg = write_cfg(tmp_path, "o.json", params["odds"])
    runs = [
        (["grid", "--config", grid_cfg, "--seed", "4", "--workers", "2", "--format", "json"],
         {"experiment": "grid", "seed": 4, "workers": 2, "format": "json"}),
        (["odds", "--config", odds_cfg],
         {"experiment": "odds", "seed": 0, "workers": 1, "format": "csv"}),
        (["grid", "--config", grid_cfg, "--workers", "3"],
         {"experiment": "grid", "seed": 0, "workers": 3, "format": "csv"}),
        (["odds", "--config", odds_cfg, "--seed", "9", "--format", "json"],
         {"experiment": "odds", "seed": 9, "workers": 1, "format": "json"}),
        (["grid", "--config", grid_cfg],
         {"experiment": "grid", "seed": 0, "workers": 1, "format": "csv"}),
    ]
    for i, (argv, expected) in enumerate(runs):
        out = tmp_path / f"run{i}"
        assert main([*argv, "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert {k: manifest[k] for k in expected} == expected
        assert manifest["out_dir"] == str(out)
        assert (out / f"{expected['experiment']}.{expected['format']}").exists()
        given = params[expected["experiment"]]
        assert {k: manifest["params"][k] for k in given} == given


def test_wide_census_tables_ignore_workers_and_the_environment_stays_out(tmp_path):
    # 16-D on landscape._SMALL_BUFFER_FROM memories: every score, diversity
    # and privacy distance runs sqdist's lanes in the small ufunc buffer,
    # and 1100 queries make two CHUNK blocks, which run on two threads
    cfg = write_cfg(tmp_path, "c.json",
                    {"n_queries": 1100, "dim": 16, "depth": 1, "beta": 4.0,
                     "class_counts": [landscape._SMALL_BUFFER_FROM - 28, 28]})
    outs = [tmp_path / f"w{w}" for w in (1, 2)]
    for w, out in zip((1, 2), outs):
        assert main(["census", "--config", cfg, "--seed", "5", "--out-dir", str(out),
                     "--workers", str(w)]) == 0
    for name in ("census.csv", "privacy.csv", "plotdata_census.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        assert b"numpy" not in (outs[0] / name).read_bytes()
    envs = [json.loads((out / "manifest.json").read_text())["environment"] for out in outs]
    assert envs[0] == envs[1]


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


def test_knn_flows_one_batch_per_tau(tmp_path, monkeypatch):
    # work counters, not timings: every flow, the one-row flow included,
    # goes through dynamics.flow_batch, and the queries flow in chunks,
    # one batch per tau
    batches = []
    real = dynamics.flow_batch
    monkeypatch.setattr(dynamics, "flow_batch",
                        lambda target, starts, *a, **k: batches.append(starts.shape[0])
                        or real(target, starts, *a, **k))
    taus, n_queries = [0.1, 2.0], CHUNK + 100
    cfg = write_cfg(tmp_path, "k.json", {"dim": 1, "class_counts": [3, 3],
                                         "taus": taus, "n_queries": n_queries})
    assert main(["knn", "--config", cfg, "--workers", "2",
                 "--out-dir", str(tmp_path / "out")]) == 0
    assert len(read_csv(tmp_path / "out" / "knn.csv")) == len(taus) * n_queries
    assert len(batches) <= len(taus) * math.ceil(n_queries / CHUNK)
    assert sum(batches) == len(taus) * n_queries


def test_knn_hard_class_tie_goes_to_the_lower_index(tmp_path):
    # with query_sigma 0 every query is the centroid, exactly halfway
    # between two memories of different classes: the hard 1-NN class is
    # that of memory 0, as knn_predict's stable sort gives it, although
    # its label sorts last
    memories = tmp_path / "m.csv"
    save_memory_csv(MemorySet(np.array([[1.0], [-1.0]]), ("zeta", "alpha")), memories)
    cfg = write_cfg(tmp_path, "k.json", {"memories_csv": str(memories), "query_sigma": 0.0,
                                         "taus": [0.5, 2.0], "n_queries": 3})
    assert main(["knn", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 0
    rows = read_csv(tmp_path / "out" / "knn.csv")
    ms = load_memory_csv(memories)
    assert knn_predict(ms, ms.centroid, k=1) == {"zeta": 1.0, "alpha": 0.0}
    assert len(rows) == 6 and {r["hard_1nn_class"] for r in rows} == {"zeta"}


def test_knn_table_matches_per_row_predictions(tmp_path):
    # each (query, tau) row recomputed alone through the public per-row
    # forms: the soft class from soft_knn_predict, k_equivalent from the
    # SoftWeights at the query's own flow terminal, the hard class from
    # knn_predict. CHUNK + 8 queries cross a window boundary at 1 worker,
    # and the numeric labels act as class identifiers
    rng = np.random.default_rng(9)
    memories = tmp_path / "m.csv"
    save_memory_csv(MemorySet(rng.normal(size=(6, 1)), (0, 1, 1, 0, 2, 1)), memories)
    taus, n_queries = [0.05, 2.0], CHUNK + 8
    cfg = write_cfg(tmp_path, "k.json", {"memories_csv": str(memories), "taus": taus,
                                         "n_queries": n_queries})
    loaded = load_memory_csv(memories)
    ms = MemorySet(loaded.points, tuple(str(y) for y in loaded.labels))
    queries = ms.centroid + default_query_sigma(ms) * derive_rng(
        4, "knn-queries").standard_normal((n_queries, ms.dim))
    expected = []
    for q, tau in itertools.product(queries, taus):
        attend = oracles.attendance_weights(EnergyLandscape(ms, 2.0 / tau), q,
                                            default_flow_config())
        expected.append((argmax_class(soft_knn_predict(ms, q, tau)[0]),
                         attend.effective_count, argmax_class(knn_predict(ms, q, 1))))
    for workers in (1, 2):
        out = tmp_path / f"out{workers}"
        assert main(["knn", "--config", cfg, "--seed", "4", "--workers", str(workers),
                     "--out-dir", str(out)]) == 0
        rows = read_csv(out / "knn.csv")
        assert [(r["soft_argmax_class"], float(r["k_equivalent"]), r["hard_1nn_class"])
                for r in rows] == expected


def _labelled_csv(path, xs, labels):
    path.write_text("x_0,label\n" + "".join(f"{x},{y}\n" for x, y in zip(xs, labels)),
                    encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("workers", [1, 2])
def test_census_biasvar_and_knn_name_one_class_set(tmp_path, workers):
    # 1 and 1.0 are equal labels, so they name one class in every table,
    # written as its first label; knn's class columns hold only classes
    memories = _labelled_csv(tmp_path / "m.csv", (-2.0, -1.5, -1.0, 1.0, 1.5, 2.0),
                             ("1", "1.0", "1", "2", "2", "1.0"))
    runs = {"census": ({"n_queries": 300, "depth": 2}, "census", ["class"]),
            "biasvar": ({"bootstrap_rounds": 10, "depth": 2}, "biasvar", ["class"]),
            "knn": ({"n_queries": 300, "taus": [0.1, 2.0]}, "knn",
                    ["soft_argmax_class", "hard_1nn_class", "basin_class"])}
    named = {}
    for experiment, (params, table, columns) in runs.items():
        cfg = write_cfg(tmp_path, f"{experiment}.json", {"memories_csv": memories, **params})
        out = tmp_path / experiment
        assert main([experiment, "--config", cfg, "--workers", str(workers),
                     "--out-dir", str(out)]) == 0
        named[experiment] = {r[c] for r in read_csv(out / f"{table}.csv") for c in columns}
    assert named == {"census": {"1", "2"}, "biasvar": {"1", "2"}, "knn": {"1", "2"}}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_knn_numeric_classes_sort_by_value(tmp_path, fmt):
    # every query sits at the midpoint of the memories labelled 10 and 2:
    # the soft weights tie, and the soft argmax takes the first class in
    # numeric order, 2; the hard and basin classes take the lower memory
    # index, 10. JSON writes the classes as numbers
    memories = _labelled_csv(tmp_path / "m.csv", (-1.0, 1.0), ("10", "2"))
    cfg = write_cfg(tmp_path, "k.json", {"memories_csv": memories, "query_sigma": 0.0,
                                         "taus": [0.5], "n_queries": 2})
    assert main(["knn", "--config", cfg, "--format", fmt,
                 "--out-dir", str(tmp_path / "out")]) == 0
    path = tmp_path / "out" / f"knn.{fmt}"
    rows = read_csv(path) if fmt == "csv" else json.loads(path.read_text(encoding="utf-8"))
    two, ten = ("2", "10") if fmt == "csv" else (2, 10)
    assert [(r["soft_argmax_class"], r["hard_1nn_class"], r["basin_class"])
            for r in rows] == [(two, ten, ten)] * 2


@pytest.mark.parametrize("tau", [0.0, -1.0])
def test_knn_nonpositive_tau_exits_2(tmp_path, capsys, tau):
    cfg = write_cfg(tmp_path, "k.json", {"taus": [0.5, tau], "n_queries": 3})
    assert main(["knn", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: tau must be positive, got {tau}\n"


def test_knn_flow_failure_names_the_first_failing_query(tmp_path, capsys, monkeypatch):
    # gradients are poisoned in two narrow bands: the flow of query 0 at
    # tau 2 enters one at step 2, that of query 3 at tau 0.05 the other at
    # step 1. The error names the first failing (query, tau) in
    # query-major order, so step 2
    real = EnergyLandscape.energy_grad

    def poisoned(self, x):
        e, g = real(self, x)
        bad = ((x > 1.104) & (x < 1.1055)) | ((x > 1.382) & (x < 1.383))
        return e, np.where(bad, np.nan, g)

    monkeypatch.setattr(EnergyLandscape, "energy_grad", poisoned)
    flowed = []
    real_batch = dynamics.flow_batch
    monkeypatch.setattr(dynamics, "flow_batch",
                        lambda target, starts, *a, **k: flowed.append(starts.shape[0])
                        or real_batch(target, starts, *a, **k))
    # the first 8 queries are those of an 8-query run; the window after
    # the failing one never flows
    cfg = write_cfg(tmp_path, "k.json", {"dim": 1, "class_counts": [3, 3],
                                         "taus": [0.05, 2.0], "n_queries": CHUNK + 8})
    assert main(["knn", "--config", cfg, "--seed", "3",
                 "--out-dir", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == ("numerical failure: non-finite energy or "
                                       "gradient during flow (step 2)\n")
    assert flowed == [CHUNK, CHUNK]


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


@pytest.mark.parametrize("labels", ["a,1,1", "a,nan,nan", "nan,nan,1"])
@pytest.mark.parametrize("experiment", ["census", "biasvar", "knn"])
def test_unorderable_or_nan_labels_exit_2(tmp_path, capsys, experiment, labels):
    # mixed text and numbers cannot be sorted into classes, and a NaN
    # label matches no memory: rejected as input, not a traceback
    mem_path = tmp_path / "mem.csv"
    mem_path.write_text("x_0,label\n" + "".join(
        f"{x},{y}\n" for x, y in zip((-1.0, 0.0, 1.0), labels.split(","))),
        encoding="utf-8")
    cfg = write_cfg(tmp_path, "c.json", {"memories_csv": str(mem_path)})
    out = tmp_path / "out"
    assert main([experiment, "--config", cfg, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: labels must be mutually orderable and not NaN, got ")
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("case, message", [
    ("missing", ": cannot read memories: No such file or directory"),
    ("directory", ": cannot read memories: Is a directory"),
    ("not-a-number", ", line 3: coordinates must be numbers, got ['foo']"),
    ("latin-1", ": memories must be UTF-8 text"),
])
def test_unreadable_memories_csv_exits_2(tmp_path, capsys, case, message):
    # a memories file that is missing, is a directory, holds a coordinate
    # that is not a number or bytes that are not UTF-8 is an input error
    # that names the file (and the line), not a traceback
    mem_path = tmp_path / "mem.csv"
    if case == "directory":
        mem_path.mkdir()
    elif case == "not-a-number":
        mem_path.write_text("x_0,label\n1.0,a\nfoo,b\n", encoding="utf-8")
    elif case == "latin-1":
        mem_path.write_bytes("x_0,label\n1.0,\u00e9\n".encode("latin-1"))
    cfg = write_cfg(tmp_path, "c.json", {"memories_csv": str(mem_path)})
    assert main(["census", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {mem_path}{message}\n"


@pytest.mark.parametrize("case, message", [
    ("missing", "config file not found: {}"),
    ("directory", "cannot read config file {}: Is a directory"),
    ("latin-1", "config file {} must be UTF-8 text"),
])
def test_unreadable_config_file_exits_2(tmp_path, capsys, case, message):
    path = tmp_path / "c.json"
    if case == "directory":
        path.mkdir()
    elif case == "latin-1":
        path.write_bytes('{"title": "é"}'.encode("latin-1"))
    assert main(["census", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message.format(path)}\n"


@pytest.mark.parametrize("side", [0, -4])
def test_nonpositive_grid_side_exits_2(tmp_path, capsys, side):
    cfg = write_cfg(tmp_path, "g.json", {"side": side})
    assert main(["grid", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: side must be a power of two >= 2, got {side}\n"


def test_out_dir_naming_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("kept", encoding="utf-8")
    assert main(["odds", "--out-dir", str(taken)]) == 2
    assert capsys.readouterr().err == (f"error: cannot make out_dir {taken} a directory: "
                                       "File exists\n")
    assert taken.read_text(encoding="utf-8") == "kept"


@pytest.mark.parametrize("artifact", ["odds.csv", "manifest.json"])
def test_unwritable_artifact_exits_2(tmp_path, capsys, artifact):
    # a directory where a table or the manifest goes ended in a traceback
    (tmp_path / artifact).mkdir()
    assert main(["odds", "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (f"error: cannot write {tmp_path / artifact}: "
                                       "Is a directory\n")


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


def test_pbm_dump_builds_each_level_once(tmp_path, monkeypatch):
    # the table and the bitmaps share one walk down the levels
    sides = []
    real = gridsim.coarsen

    def counting(grid, seed=0):
        sides.append(grid.side)
        return real(grid, seed)

    monkeypatch.setattr(gridsim, "coarsen", counting)
    monkeypatch.setattr(cli, "coarsen", counting, raising=False)  # a second walk in the CLI
    cfg = write_cfg(tmp_path, "g.json",
                    {"side": 16, "p_red": [0.8], "levels": 2, "dump_bitmaps": True})
    assert main(["grid", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 0
    assert sides == [16, 8]
