"""Command-line front end for reproducible experiments.

Subcommands: census | smoothness | grid | knn | odds | biasvar | privacy.
Each run reads an optional flat JSON config (closed schema: unknown keys
are rejected by name), resolves seed/out_dir/format/workers with
precedence flag > environment > config > default, computes its result
tables once, plot data included, and writes each from memory, and echoes
the fully resolved configuration into manifest.json (a census manifest
also holds each level's phase timings). Each experiment's
schema holds exactly the keys it reads. Exit codes: 0 success, 2 input or
config error, 3 numerical failure.

census writes census.csv and privacy.csv from one census run; privacy is
an alias of census, kept for existing scripts, with the same schema and
outputs (its manifest names the subcommand it was called as).

Worker counts never change emitted numbers, only wall time; every module
derives per-item seeds and chunks work deterministically.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from landscape_lab import __version__
from landscape_lab._seeds import derive_rng, derive_seed
from landscape_lab.abstraction import (
    diagonal_hierarchy,
    jacobian_norm_probe,
    smoothness_report,
    tanh_hierarchy,
)
from landscape_lab.census import (
    _PRIVACY_KS,
    CensusConfig,
    bias_variance_probes,
    default_flow_config,
    default_query_sigma,
    run_census,
)
from landscape_lab.dynamics import FlowConfig, flow_chunked
from landscape_lab.errors import (
    CensusFailureError,
    ConfigError,
    InputError,
    NumericalFlowError,
)
from landscape_lab.gridsim import coarsening_levels, write_pbm
from landscape_lab.knn import (_aggregate, _effective_counts, _invalid_rows, argmax_class,
                               tau_landscape)
from landscape_lab.landscape import (_SMALL_BUFFER, CHUNK, EnergyLandscape, MemorySet,
                                     gaussian_blobs, load_memory_csv)
from landscape_lab.oddsmodel import MergeScenario, initial_odds, simulate_merge, smoothed_odds
from landscape_lab.tables import write_table

EXPERIMENTS = ("census", "smoothness", "grid", "knn", "odds", "biasvar", "privacy")

ENV_SEED = "LANDSCAPE_LAB_SEED"
ENV_OUT_DIR = "LANDSCAPE_LAB_OUT_DIR"

_MEMORY_KEYS = {
    "memories_csv": None,     # path; overrides the synthetic generator
    "dim": 1,
    "class_counts": [9, 1],
    "blob_spread": 0.08,
    "center_scale": 1.0,
}
_LANDSCAPE_KEYS = {**_MEMORY_KEYS, "beta": 40.0}
_HIERARCHY_KEYS = {
    "decoder": "diagonal",    # diagonal | tanh
    "factors": None,          # explicit list for levels 1..A
    "contraction_base": 0.9,  # used when factors is None
    "depth": 4,
}
_FLOW_KEYS = {key: getattr(default_flow_config(), key)
              for key in ("step_size", "grad_tol", "max_steps")}
_CENSUS_KEYS = {f.name: f.default for f in dataclasses.fields(CensusConfig)
                if f.name != "seed"}    # seed is a global key


def _defaults(fn, *names) -> dict:
    """The signature defaults of fn's named parameters."""
    parameters = inspect.signature(fn).parameters
    return {name: parameters[name].default for name in names}


SCHEMAS = {
    "census": {**_LANDSCAPE_KEYS, **_HIERARCHY_KEYS, **_FLOW_KEYS, **_CENSUS_KEYS},
    "biasvar": {**_LANDSCAPE_KEYS, **_HIERARCHY_KEYS, **_FLOW_KEYS,
                **_defaults(bias_variance_probes, "probe_sigma", "bootstrap_rounds",
                            "stratified", "levels")},
    "smoothness": {**_LANDSCAPE_KEYS, **_HIERARCHY_KEYS,
                   **_defaults(smoothness_report, "probes", "probe_radius", "fd_step"),
                   "jacobian_probes": _defaults(jacobian_norm_probe, "probes")["probes"]},
    # each tau sets beta = 2/tau, so knn reads the memories but no beta
    "knn": {**_MEMORY_KEYS, **_FLOW_KEYS,
            "taus": [0.02, 0.1, 0.5, 2.0, 10.0], "n_queries": 50,
            "query_sigma": None},
    "odds": {"scenarios": [[2, 1, 2], [3, 1, 3], [3, 2, 4], [9, 1, 3]],
             "trials": 100000},
    "grid": {"side": 512, "p_red": [0.5, 0.6, 0.7, 0.8, 0.9], "levels": 3,
             "dump_bitmaps": False},
}
SCHEMAS["privacy"] = SCHEMAS["census"]

# example values giving the expected type of the keys whose default is None
_NULLABLE_TYPES = {"memories_csv": "", "factors": [0.0], "query_sigma": 0.0,
                   "levels": [0], "probe_radius": 0.0}

_GLOBAL_KEYS = ("experiment", "seed", "out_dir", "format", "workers")


@dataclass
class RunConfig:
    experiment: str
    seed: int = 0
    out_dir: Path | str = "runs"
    format: str = "csv"
    workers: int = 1
    params: dict | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        self.out_dir = Path(self.out_dir)
        self.params = validate_params(self.experiment, self.params or {})


def validate_params(experiment: str, given: dict) -> dict:
    """Closed-schema merge of given keys over the experiment defaults."""
    schema = SCHEMAS[experiment]
    params = dict(schema)
    for key, value in given.items():
        if key not in schema:
            raise ConfigError(f"unknown config key {key!r} for experiment "
                              f"{experiment!r}")
        default = schema[key]
        if value is not None or default is not None:
            _check_type(key, _NULLABLE_TYPES[key] if default is None else default,
                        value)
        params[key] = value
    return params


def _check_type(key: str, example, value) -> None:
    """Reject value unless it has the type of example, list elements too."""
    # bool is tested first: it is an int subclass, but not a number here
    for kind, name in ((bool, "bool"), ((int, float), "number"), (str, "string"),
                       (list, "list")):
        if isinstance(example, kind):
            if not isinstance(value, kind) or isinstance(value, bool) != (kind is bool):
                raise ConfigError(f"config key {key!r} expects a {name}")
            break
    # the builders apply int() to int keys, which would truncate a fraction
    if (isinstance(example, int) and not isinstance(example, bool)
            and isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"config key {key!r} expects a whole number")
    if isinstance(example, list):
        for item in value:
            _check_type(key, example[0], item)


# ---------------------------------------------------------------------------
# Shared builders
# ---------------------------------------------------------------------------

def _build_memories(params: dict, seed: int) -> MemorySet:
    if params.get("memories_csv"):
        return load_memory_csv(params["memories_csv"])
    counts = [int(c) for c in params["class_counts"]]
    return gaussian_blobs(
        dim=int(params["dim"]),
        class_counts=counts,
        spread=float(params["blob_spread"]),
        seed=derive_seed(seed, "landscape"),
        center_scale=float(params["center_scale"]),
        labels=[f"c{i}" for i in range(len(counts))],
    )


def _build_landscape(params: dict, seed: int) -> EnergyLandscape:
    return EnergyLandscape(_build_memories(params, seed), beta=float(params["beta"]))


def _build_hierarchy(params: dict, dim: int):
    factors = params.get("factors")
    if factors is None:
        base = float(params["contraction_base"])
        depth = int(params["depth"])
        factors = [base ** a for a in range(1, depth + 1)]
    family = params.get("decoder", "diagonal")
    if family == "diagonal":
        return diagonal_hierarchy(factors, dim)
    if family == "tanh":
        return tanh_hierarchy(factors, dim)
    raise ConfigError(f"unknown decoder family {family!r}")


def _flow_config(params: dict) -> FlowConfig:
    return FlowConfig(step_size=float(params["step_size"]),
                      grad_tol=float(params["grad_tol"]),
                      max_steps=int(params["max_steps"]))


def _levels(params: dict) -> list | None:
    """The levels key as ints: the schema passes a whole float (1.0)."""
    return None if params.get("levels") is None else [int(a) for a in params["levels"]]


def _census_config(params: dict, seed: int) -> CensusConfig:
    return CensusConfig(
        n_queries=int(params["n_queries"]),
        query_sigma=params.get("query_sigma"),
        seed=seed,
        levels=_levels(params),
    )


# ---------------------------------------------------------------------------
# Experiments: each returns {table_name: {column: values}}, plot data
# included, and may put run records (timings, never results) into records,
# which the manifest carries
# ---------------------------------------------------------------------------

_CENSUS_COLUMNS = ["level", "class", "p_data", "p_gen", "amplification", "diversity",
                   *(f"privacy_k{k}" for k in _PRIVACY_KS), "n_queries", "failures"]
_PRIVACY_COLUMNS = ["level", "k", "mean_knn_distance", "diversity",
                    "n_queries", "failures"]
# long format: one (series, x, y, stderr) row per point of a figure-ready curve
_PLOTDATA_COLUMNS = ["series", "x", "y", "stderr"]


def _columns(names: list[str], rows: list[tuple]) -> dict:
    """{name: values} of a few rows, each a tuple in names' order."""
    return dict(zip(names, map(list, zip(*rows, strict=True)), strict=True))


def _experiment_census(cfg: RunConfig, records: dict) -> dict:
    """The census, privacy and census plot-data tables, all from one
    run_census call; records gets each level's phase timings."""
    landscape = _build_landscape(cfg.params, cfg.seed)
    hierarchy = _build_hierarchy(cfg.params, landscape.dim)
    reports = run_census(landscape, hierarchy, _census_config(cfg.params, cfg.seed),
                         _flow_config(cfg.params), workers=cfg.workers)
    records["phases"] = [{"level": r.level, **r.phases} for r in reports]
    census = [(r.level, c, r.p_data[c], r.p_gen[c], r.amplification,
               r.diversity_mean_pairwise,
               *(r.privacy_knn_distance[k] for k in _PRIVACY_KS),
               r.n_queries, r.failures)
              for r in reports for c in sorted(r.p_data)]
    privacy = [(r.level, k, r.privacy_knn_distance[k], r.diversity_mean_pairwise,
                r.n_queries, r.failures)
               for r in reports for k in sorted(r.privacy_knn_distance)]
    plot = []
    for r in reports:
        # binomial stderr of the share the amplification is measured on:
        # the data-majority class's, over the level's converged queries
        p = r.p_gen[argmax_class(r.p_data)]
        se = (p * (1 - p) / (r.n_queries - r.failures)) ** 0.5
        plot += [("amplification", r.level, r.amplification, se),
                 ("diversity", r.level, r.diversity_mean_pairwise, None),
                 ("privacy_k1", r.level, r.privacy_knn_distance[1], None)]
    return {"census": _columns(_CENSUS_COLUMNS, census),
            "privacy": _columns(_PRIVACY_COLUMNS, privacy),
            "plotdata_census": _columns(_PLOTDATA_COLUMNS, plot)}


def _experiment_biasvar(cfg: RunConfig, records: dict) -> dict:
    landscape = _build_landscape(cfg.params, cfg.seed)
    hierarchy = _build_hierarchy(cfg.params, landscape.dim)
    results = bias_variance_probes(
        landscape, hierarchy, _flow_config(cfg.params),
        probe_sigma=float(cfg.params["probe_sigma"]),
        bootstrap_rounds=int(cfg.params["bootstrap_rounds"]),
        stratified=bool(cfg.params["stratified"]),
        seed=cfg.seed, levels=_levels(cfg.params), workers=cfg.workers,
        phases=records.setdefault("phases", []))
    rows = [(r["level"], c, b, r["variance_mean"])
            for r in results for c, b in sorted(r["bias_per_class"].items())]
    return {"biasvar": _columns(["level", "class", "bias", "variance_mean"], rows)}


def _experiment_smoothness(cfg: RunConfig, records: dict) -> dict:
    landscape = _build_landscape(cfg.params, cfg.seed)
    hierarchy = _build_hierarchy(cfg.params, landscape.dim)
    reports = smoothness_report(
        hierarchy, landscape,
        probes=int(cfg.params["probes"]),
        probe_radius=cfg.params.get("probe_radius"),
        seed=cfg.seed,
        fd_step=float(cfg.params["fd_step"]))
    columns = ["level", "hessian_norm_est", "lipschitz_est", "jacobian_norm_est"]
    rows = [(r.level, r.hessian_norm_est, r.lipschitz_est,
             jacobian_norm_probe(hierarchy, r.level,
                                 probes=int(cfg.params["jacobian_probes"]), seed=cfg.seed))
            for r in reports]
    plot = [(series, level, y, None)
            for level, *ys in rows for series, y in zip(columns[1:], ys)]
    return {"smoothness": _columns(columns, rows),
            "plotdata_smoothness": _columns(_PLOTDATA_COLUMNS, plot)}


def _experiment_knn(cfg: RunConfig, records: dict) -> dict:
    mem = _build_memories(cfg.params, cfg.seed)
    sigma = cfg.params.get("query_sigma")
    if sigma is None:
        sigma = default_query_sigma(mem)
    n_queries = int(cfg.params["n_queries"])
    if n_queries < 1:
        raise InputError(f"n_queries must be >= 1, got {n_queries}")
    if sigma < 0:
        raise InputError(f"query_sigma must be >= 0, got {sigma}")
    if not math.isfinite(sigma):
        raise InputError(f"query_sigma must be a finite real, got {sigma}")
    if not cfg.params["taus"]:
        raise InputError("taus must name at least one tau")
    queries = mem.centroid + float(sigma) * derive_rng(
        cfg.seed, "knn-queries").standard_normal((n_queries, mem.dim))
    flow_cfg = _flow_config(cfg.params)
    taus = [float(tau) for tau in cfg.params["taus"]]
    landscapes = [tau_landscape(mem, tau) for tau in taus]
    # each memory's class, as the census reads it, for every label type
    classes = np.array(mem.classes(), dtype=object)
    memory_class = classes[mem.class_index]
    # each column a window at a time: hard 1-NN (window,) blocks, the others
    # (taus, window) blocks, which the table reads query-major
    hard, k_eq, soft, basin = [], [], [], []
    flow_s = 0.0
    t_start = time.perf_counter()
    # the queries flow a window at a time, one chunk per worker and one
    # batch per tau; a row's bits are those of its own flow and weights
    # call, and each column is computed for a whole (window, tau). A
    # failed flow raises query-major, as if each (query, tau) flowed
    # alone, so a failing run stops within a window
    window = CHUNK * cfg.workers
    for lo in range(0, n_queries, window):
        batch = queries[lo:lo + window]
        # the hard 1-NN is the nearest memory, ties to the lower index, as
        # a stable sort of the distances gives it; beta plays no part
        hard.append(memory_class[landscapes[0].nearest_memory(batch)])
        flows = []
        for landscape in landscapes:
            t_flow = time.perf_counter()
            flows.append(flow_chunked(landscape, batch, flow_cfg, cfg.workers)[0])
            flow_s += time.perf_counter() - t_flow
        attend = [landscape.weights(out["terminals"])
                  for landscape, out in zip(landscapes, flows)]
        # the first failing (query, tau), query-major; the attention
        # weights are checked on the rows whose flow did not fail
        failed = np.stack([out["failed"] for out in flows], axis=1)
        bad = failed | np.stack([_invalid_rows(w) for w in attend], axis=1)
        if bad.any():
            i, t = np.unravel_index(np.flatnonzero(bad)[0], bad.shape)
            if failed[i, t]:
                raise NumericalFlowError(step=int(flows[t]["fail_step"][i]))
            raise InputError("weights must be non-negative and sum to 1")
        k_eq.append([_effective_counts(w) for w in attend])
        # argmax over the sorted classes: ties to the sorted-first, as
        # argmax_class breaks them
        soft.append([classes[_aggregate(mem, landscape.weights(batch)).argmax(axis=1)]
                     for landscape in landscapes])
        basin.append([memory_class[landscape.nearest_memory(out["terminals"])]
                      for landscape, out in zip(landscapes, flows)])
    k_eq, soft, basin = (np.concatenate(blocks, axis=1).T.ravel()
                         for blocks in (k_eq, soft, basin))
    table = {"query_id": np.repeat(np.arange(n_queries), len(taus)),
             "tau": np.tile(taus, n_queries), "k_equivalent": k_eq,
             "soft_argmax_class": soft,
             "hard_1nn_class": np.repeat(np.concatenate(hard), len(taus)),
             "basin_class": basin, "agreement_flag": (soft == basin).astype(int)}
    records["phases"] = {"flow": flow_s, "table": time.perf_counter() - t_start - flow_s}
    return {"knn": table}


def _experiment_odds(cfg: RunConfig, records: dict) -> dict:
    scenarios = cfg.params["scenarios"]
    if not scenarios or any(len(scenario) != 3 for scenario in scenarios):
        raise InputError("scenarios must be a non-empty list of [p, q, S] triples")
    trials = int(cfg.params["trials"])
    rows = []
    for i, (p, q, s) in enumerate(scenarios):
        scenario = MergeScenario(int(p), int(q), int(s))
        counts = simulate_merge(scenario, trials, seed=derive_seed(cfg.seed, "odds", i))
        rows.append((scenario.majority_minima, scenario.minority_minima,
                     scenario.feature_count, initial_odds(scenario),
                     smoothed_odds(scenario), trials, counts.pure_majority,
                     counts.pure_minority, counts.mixed, counts.conditional_odds()))
    return {"odds": _columns(["p", "q", "S", "lambda_init", "lambda_smooth", "trials",
                              "pure_A", "pure_B", "mixed",
                              "empirical_conditional_odds"], rows)}


def _experiment_grid(cfg: RunConfig, records: dict) -> dict:
    if not cfg.params["p_red"]:
        raise InputError("p_red must name at least one initial share")
    rows = []
    side = int(cfg.params["side"])
    levels = int(cfg.params["levels"])
    for i, p in enumerate(cfg.params["p_red"]):
        sub_seed = derive_seed(cfg.seed, "grid", i)
        for level, grid in coarsening_levels(side, float(p), levels, seed=sub_seed):
            rows.append((float(p), level, grid.red_share))
            if cfg.params["dump_bitmaps"]:
                write_pbm(grid, cfg.out_dir / f"grid_p{p}_level{level}.pbm")
    plot = [(f"p_red={p}", level, share, None) for p, level, share in rows]
    return {"grid": _columns(["p_red_init", "level", "red_share"], rows),
            "plotdata_grid": _columns(_PLOTDATA_COLUMNS, plot)}


_EXPERIMENT_FNS = {
    "census": _experiment_census,
    "privacy": _experiment_census,
    "biasvar": _experiment_biasvar,
    "smoothness": _experiment_smoothness,
    "knn": _experiment_knn,
    "odds": _experiment_odds,
    "grid": _experiment_grid,
}

# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

@functools.cache
def _scipy_version() -> str | None:
    """The installed scipy's version, read once a process: from scipy if
    something has imported it, else from its package metadata (scipy is a
    test dependency, which no module here imports). importlib.metadata is
    imported only then, as a first lookup costs about 20 ms."""
    if "scipy" in sys.modules:
        return sys.modules["scipy"].__version__
    import importlib.metadata
    try:
        return importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        return None


def _environment() -> dict:
    """The numerical stack a run had, for its manifest only: sqdist's
    speed at d >= 8 rests on numpy's ufunc iterator and its scoped buffer
    size, so a timing is read against the numpy that made it."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):   # numpy < 1.26 has no mode="dicts"
        blas = "unknown"
    return {"numpy": np.__version__, "scipy": _scipy_version(), "blas": blas,
            "cpu_count": os.cpu_count(),
            "sqdist_ufunc_buffer": _SMALL_BUFFER}


def run(config: RunConfig) -> int:
    """Execute one experiment and write its artifacts."""
    t0 = time.monotonic()
    try:
        config.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make out_dir {config.out_dir} a directory: "
                          f"{exc.strerror or exc}") from None
    records = {}
    tables = _EXPERIMENT_FNS[config.experiment](config, records)
    manifest = {
        "experiment": config.experiment,
        "seed": config.seed,
        "out_dir": str(config.out_dir),
        "format": config.format,
        "workers": config.workers,
        "params": config.params,
        "artifact_version": __version__,
        "environment": _environment(),
        **records,
    }
    try:
        for name, columns in tables.items():
            write_table(config.out_dir, name, columns, config.format)
        manifest["wall_time_s"] = time.monotonic() - t0
        with open(config.out_dir / "manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {exc.filename}: {exc.strerror or exc}") from None
    return 0


def _load_config_file(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"config file {path} must be UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


def build_run_config(experiment: str, args: argparse.Namespace) -> RunConfig:
    file_cfg = _load_config_file(args.config) if args.config else {}
    if "experiment" in file_cfg and file_cfg["experiment"] != experiment:
        raise ConfigError(
            f"config file names experiment {file_cfg['experiment']!r} but the "
            f"{experiment!r} subcommand was invoked")
    params = {k: v for k, v in file_cfg.items() if k not in _GLOBAL_KEYS}

    # precedence: flag > environment > config file > RunConfig default
    defaults = {f.name: f.default for f in dataclasses.fields(RunConfig)}
    resolved = {}
    for key in ("seed", "out_dir", "format", "workers"):
        resolved[key] = file_cfg.get(key, defaults[key])
        _check_type(key, defaults[key], resolved[key])
    if os.environ.get(ENV_SEED):
        try:
            resolved["seed"] = int(os.environ[ENV_SEED])
        except ValueError:
            raise ConfigError(f"{ENV_SEED} must be an integer") from None
    if os.environ.get(ENV_OUT_DIR):
        resolved["out_dir"] = os.environ[ENV_OUT_DIR]
    for key in resolved:
        if getattr(args, key) is not None:
            resolved[key] = getattr(args, key)
    for key in ("seed", "workers"):
        resolved[key] = int(resolved[key])
    return RunConfig(experiment=experiment, params=params, **resolved)


@functools.cache     # built once a process; parse_args leaves it as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="landscape-lab",
        description="Energy-landscape retrieval and bias-amplification experiments")
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None,
                        help="flat JSON config file (closed schema)")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--out-dir", type=str, default=None)
    common.add_argument("--format", choices=("csv", "json"), default=None)
    common.add_argument("--workers", type=int, default=None,
                        help="thread count; affects wall time only")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        sub.add_parser(name, parents=[common],
                       help=f"run the {name} experiment")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = build_run_config(args.experiment, args)
        status = run(config)
    except (ConfigError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalFlowError, CensusFailureError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {args.experiment} artifacts to {config.out_dir}")
    return status


if __name__ == "__main__":
    sys.exit(main())
