"""Command-line front end for reproducible experiments.

Subcommands: census | smoothness | grid | knn | odds | biasvar | privacy.
Each run reads an optional flat JSON config (closed schema: unknown keys
are rejected by name), resolves seed/out_dir/format/workers with
precedence flag > environment > config > default, writes its result
tables plus plot-data files, and echoes the fully resolved configuration
into manifest.json. Exit codes: 0 success, 2 input or config error,
3 numerical failure.

Worker counts never change emitted numbers, only wall time; every module
derives per-item seeds and chunks work deterministically.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path


from lab_twin import __version__
from lab_twin._seeds import derive_rng, derive_seed
from lab_twin.abstraction import (
    diagonal_hierarchy,
    jacobian_norm_probe,
    smoothness_report,
    tanh_hierarchy,
)
from lab_twin.census import (
    CensusConfig,
    bias_variance_probes,
    run_census,
)
from lab_twin.dynamics import FlowConfig, flow
from lab_twin.errors import (
    CensusFailureError,
    ConfigError,
    InputError,
    NumericalFlowError,
)
from lab_twin.gridsim import amplification_curve, init_grid, coarsen, write_pbm
from lab_twin.knn import SoftWeights, argmax_class, knn_predict, soft_knn_predict
from lab_twin.landscape import EnergyLandscape, MemorySet, gaussian_blobs, load_memory_csv
from lab_twin.oddsmodel import MergeScenario, initial_odds, simulate_merge, smoothed_odds
from lab_twin.tables import read_table, write_table

EXPERIMENTS = ("census", "smoothness", "grid", "knn", "odds", "biasvar", "privacy")

ENV_SEED = "LANDSCAPE_LAB_SEED"
ENV_OUT_DIR = "LANDSCAPE_LAB_OUT_DIR"

_LANDSCAPE_KEYS = {
    "memories_csv": None,     # path; overrides the synthetic generator
    "dim": 1,
    "class_counts": [9, 1],
    "blob_spread": 0.08,
    "center_scale": 1.0,
    "beta": 40.0,
}
_HIERARCHY_KEYS = {
    "decoder": "diagonal",    # diagonal | tanh
    "factors": None,          # explicit list for levels 1..A
    "contraction_base": 0.9,  # used when factors is None
    "depth": 4,
}
_FLOW_KEYS = {
    "step_size": 1.0,
    "grad_tol": 1e-5,
    "max_steps": 8000,
}
_CENSUS_KEYS = {
    "n_queries": 5000,
    "query_sigma": None,
    "levels": None,
    "probe_sigma": 0.1,
    "bootstrap_rounds": 50,
}

SCHEMAS = {
    "census": {**_LANDSCAPE_KEYS, **_HIERARCHY_KEYS, **_FLOW_KEYS, **_CENSUS_KEYS},
    "privacy": {**_LANDSCAPE_KEYS, **_HIERARCHY_KEYS, **_FLOW_KEYS, **_CENSUS_KEYS},
    "biasvar": {**_LANDSCAPE_KEYS, **_HIERARCHY_KEYS, **_FLOW_KEYS, **_CENSUS_KEYS,
                "stratified": True},
    "smoothness": {**_LANDSCAPE_KEYS, **_HIERARCHY_KEYS,
                   "probes": 256, "probe_radius": None, "fd_step": 1e-4,
                   "jacobian_probes": 64},
    "knn": {**_LANDSCAPE_KEYS, **_FLOW_KEYS,
            "taus": [0.02, 0.1, 0.5, 2.0, 10.0], "n_queries": 50,
            "query_sigma": None},
    "odds": {"scenarios": [[2, 1, 2], [3, 1, 3], [3, 2, 4], [9, 1, 3]],
             "trials": 100000},
    "grid": {"side": 512, "p_red": [0.5, 0.6, 0.7, 0.8, 0.9], "levels": 3,
             "dump_bitmaps": False},
}

_GLOBAL_KEYS = ("experiment", "seed", "out_dir", "format", "workers")


@dataclass
class RunConfig:
    experiment: str
    seed: int = 0
    out_dir: Path = Path("runs")
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
        if default is not None and value is not None:
            if isinstance(default, bool) != isinstance(value, bool):
                raise ConfigError(f"config key {key!r} expects a bool")
            if isinstance(default, bool):
                pass
            elif isinstance(default, (int, float)) and not isinstance(value, (int, float)):
                raise ConfigError(f"config key {key!r} expects a number")
            elif isinstance(default, str) and not isinstance(value, str):
                raise ConfigError(f"config key {key!r} expects a string")
            elif isinstance(default, list) and not isinstance(value, list):
                raise ConfigError(f"config key {key!r} expects a list")
        params[key] = value
    return params


# ---------------------------------------------------------------------------
# Shared builders
# ---------------------------------------------------------------------------

def _build_landscape(params: dict, seed: int) -> EnergyLandscape:
    if params.get("memories_csv"):
        memories = load_memory_csv(params["memories_csv"])
    else:
        counts = [int(c) for c in params["class_counts"]]
        memories = gaussian_blobs(
            dim=int(params["dim"]),
            class_counts=counts,
            spread=float(params["blob_spread"]),
            seed=derive_seed(seed, "landscape"),
            center_scale=float(params["center_scale"]),
            labels=[f"c{i}" for i in range(len(counts))],
        )
    return EnergyLandscape(memories, beta=float(params["beta"]))


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


def _census_config(params: dict, seed: int) -> CensusConfig:
    levels = params.get("levels")
    return CensusConfig(
        n_queries=int(params["n_queries"]),
        query_sigma=params.get("query_sigma"),
        seed=seed,
        levels=tuple(int(a) for a in levels) if levels is not None else None,
        probe_sigma=float(params["probe_sigma"]),
        bootstrap_rounds=int(params["bootstrap_rounds"]),
    )


# ---------------------------------------------------------------------------
# Experiments: each returns {table_name: (columns, rows)}
# ---------------------------------------------------------------------------

_CENSUS_COLUMNS = ["level", "class", "p_data", "p_gen", "amplification",
                   "diversity", "privacy_k1", "privacy_k2", "privacy_k5",
                   "privacy_k10", "n_queries", "failures"]


def _experiment_census(cfg: RunConfig) -> dict:
    landscape = _build_landscape(cfg.params, cfg.seed)
    hierarchy = _build_hierarchy(cfg.params, landscape.dim)
    reports = run_census(landscape, hierarchy, _census_config(cfg.params, cfg.seed),
                         _flow_config(cfg.params), workers=cfg.workers)
    rows = []
    for r in reports:
        for c in sorted(r.p_data):
            rows.append({
                "level": r.level, "class": c,
                "p_data": r.p_data[c], "p_gen": r.p_gen[c],
                "amplification": r.amplification,
                "diversity": r.diversity_mean_pairwise,
                "privacy_k1": r.privacy_knn_distance[1],
                "privacy_k2": r.privacy_knn_distance[2],
                "privacy_k5": r.privacy_knn_distance[5],
                "privacy_k10": r.privacy_knn_distance[10],
                "n_queries": r.n_queries, "failures": r.failures,
            })
    return {"census": (_CENSUS_COLUMNS, rows)}


def _experiment_privacy(cfg: RunConfig) -> dict:
    landscape = _build_landscape(cfg.params, cfg.seed)
    hierarchy = _build_hierarchy(cfg.params, landscape.dim)
    reports = run_census(landscape, hierarchy, _census_config(cfg.params, cfg.seed),
                         _flow_config(cfg.params), workers=cfg.workers)
    rows = [{"level": r.level, "k": k, "mean_knn_distance": r.privacy_knn_distance[k],
             "diversity": r.diversity_mean_pairwise,
             "n_queries": r.n_queries, "failures": r.failures}
            for r in reports for k in sorted(r.privacy_knn_distance)]
    return {"privacy": (["level", "k", "mean_knn_distance", "diversity",
                         "n_queries", "failures"], rows)}


def _experiment_biasvar(cfg: RunConfig) -> dict:
    landscape = _build_landscape(cfg.params, cfg.seed)
    hierarchy = _build_hierarchy(cfg.params, landscape.dim)
    results = bias_variance_probes(
        landscape, hierarchy, _census_config(cfg.params, cfg.seed),
        _flow_config(cfg.params), stratified=bool(cfg.params["stratified"]),
        workers=cfg.workers)
    rows = [{"level": r["level"], "class": c, "bias": b,
             "variance_mean": r["variance_mean"]}
            for r in results for c, b in sorted(r["bias_per_class"].items())]
    return {"biasvar": (["level", "class", "bias", "variance_mean"], rows)}


def _experiment_smoothness(cfg: RunConfig) -> dict:
    landscape = _build_landscape(cfg.params, cfg.seed)
    hierarchy = _build_hierarchy(cfg.params, landscape.dim)
    reports = smoothness_report(
        hierarchy, landscape,
        probes=int(cfg.params["probes"]),
        probe_radius=cfg.params.get("probe_radius"),
        seed=cfg.seed,
        fd_step=float(cfg.params["fd_step"]))
    rows = []
    for r in reports:
        jac = jacobian_norm_probe(hierarchy, r.level,
                                  probes=int(cfg.params["jacobian_probes"]),
                                  seed=cfg.seed)
        rows.append({"level": r.level, "hessian_norm_est": r.hessian_norm_est,
                     "lipschitz_est": r.lipschitz_est, "jacobian_norm_est": jac})
    return {"smoothness": (["level", "hessian_norm_est", "lipschitz_est",
                            "jacobian_norm_est"], rows)}


def _experiment_knn(cfg: RunConfig) -> dict:
    landscape = _build_landscape(cfg.params, cfg.seed)
    mem = landscape.memories
    if mem.labels_numeric():
        # this table compares class outcomes, so labels act as identifiers
        mem = MemorySet(mem.points, tuple(str(y) for y in mem.labels))
    sigma = cfg.params.get("query_sigma")
    if sigma is None:
        sigma = 1.5 * mem.radius if mem.radius > 0 else 1.0
    queries = mem.centroid + float(sigma) * derive_rng(
        cfg.seed, "knn-queries").standard_normal((int(cfg.params["n_queries"]), mem.dim))
    flow_cfg = _flow_config(cfg.params)
    rows = []
    for qid, q in enumerate(queries):
        hard_class = argmax_class(knn_predict(mem, q, k=1))
        for tau in cfg.params["taus"]:
            tau = float(tau)
            pred, _ = soft_knn_predict(mem, q, tau)
            soft_class = argmax_class(pred)
            tau_landscape = EnergyLandscape(mem, beta=2.0 / tau)
            res = flow(tau_landscape, q, flow_cfg)
            basin_class = mem.labels[res.basin_memory_index]
            attend = SoftWeights(tau_landscape.weights(res.terminal), tau)
            rows.append({
                "query_id": qid, "tau": tau,
                "k_equivalent": attend.effective_count,
                "soft_argmax_class": soft_class, "hard_1nn_class": hard_class,
                "basin_class": basin_class,
                "agreement_flag": int(soft_class == basin_class),
            })
    return {"knn": (["query_id", "tau", "k_equivalent", "soft_argmax_class",
                     "hard_1nn_class", "basin_class", "agreement_flag"], rows)}


def _experiment_odds(cfg: RunConfig) -> dict:
    rows = []
    for i, (p, q, s) in enumerate(cfg.params["scenarios"]):
        scenario = MergeScenario(int(p), int(q), int(s))
        counts = simulate_merge(scenario, int(cfg.params["trials"]),
                                seed=derive_seed(cfg.seed, "odds", i))
        rows.append({
            "p": scenario.majority_minima, "q": scenario.minority_minima,
            "S": scenario.feature_count,
            "lambda_init": initial_odds(scenario),
            "lambda_smooth": smoothed_odds(scenario),
            "trials": int(cfg.params["trials"]),
            "pure_A": counts.pure_majority, "pure_B": counts.pure_minority,
            "mixed": counts.mixed,
            "empirical_conditional_odds": counts.conditional_odds(),
        })
    return {"odds": (["p", "q", "S", "lambda_init", "lambda_smooth", "trials",
                      "pure_A", "pure_B", "mixed",
                      "empirical_conditional_odds"], rows)}


def _experiment_grid(cfg: RunConfig) -> dict:
    rows = []
    side = int(cfg.params["side"])
    levels = int(cfg.params["levels"])
    for i, p in enumerate(cfg.params["p_red"]):
        sub_seed = derive_seed(cfg.seed, "grid", i)
        for level, share in amplification_curve(side, float(p), levels, seed=sub_seed):
            rows.append({"p_red_init": float(p), "level": level, "red_share": share})
        if cfg.params["dump_bitmaps"]:
            grid = init_grid(side, float(p), seed=derive_seed(sub_seed, "init"))
            write_pbm(grid, cfg.out_dir / f"grid_p{p}_level0.pbm")
            for level in range(1, levels + 1):
                grid = coarsen(grid, seed=derive_seed(sub_seed, "coarsen", level))
                write_pbm(grid, cfg.out_dir / f"grid_p{p}_level{level}.pbm")
    return {"grid": (["p_red_init", "level", "red_share"], rows)}


_EXPERIMENT_FNS = {
    "census": _experiment_census,
    "privacy": _experiment_privacy,
    "biasvar": _experiment_biasvar,
    "smoothness": _experiment_smoothness,
    "knn": _experiment_knn,
    "odds": _experiment_odds,
    "grid": _experiment_grid,
}

_PLOTDATA_SOURCES = ("census", "grid", "smoothness")


def emit_plotdata(out_dir, fmt: str = "csv") -> list[Path]:
    """Reshape result tables found in out_dir into long-format plot data.

    Emits (series, x, y, stderr) rows per figure-ready curve; raises an
    input error when no reshapeable table exists.
    """
    out_dir = Path(out_dir)
    written = []
    found = False
    for name in _PLOTDATA_SOURCES:
        try:
            rows = read_table(out_dir, name)
        except InputError:
            continue
        found = True
        written.append(write_table(out_dir, f"plotdata_{name}",
                                   ["series", "x", "y", "stderr"],
                                   _reshape_plotdata(name, rows), fmt))
    if not found:
        raise InputError(f"no result tables to reshape in {out_dir}")
    return written


def _reshape_plotdata(name: str, rows: list[dict]) -> list[dict]:
    out = []
    if name == "census":
        seen = set()
        for r in rows:
            level = int(r["level"])
            if level in seen:
                continue
            seen.add(level)
            n = int(r["n_queries"]) - int(r["failures"])
            # majority row shares the level-wide amplification value
            p = max(float(x["p_gen"]) for x in rows if int(x["level"]) == level)
            se = (p * (1 - p) / n) ** 0.5 if n > 0 else 0.0
            out.append({"series": "amplification", "x": level,
                        "y": float(r["amplification"]), "stderr": se})
            out.append({"series": "diversity", "x": level,
                        "y": float(r["diversity"]), "stderr": None})
            out.append({"series": "privacy_k1", "x": level,
                        "y": float(r["privacy_k1"]), "stderr": None})
    elif name == "grid":
        for r in rows:
            out.append({"series": f"p_red={float(r['p_red_init'])}",
                        "x": int(r["level"]), "y": float(r["red_share"]),
                        "stderr": None})
    elif name == "smoothness":
        for r in rows:
            for series in ("hessian_norm_est", "lipschitz_est", "jacobian_norm_est"):
                out.append({"series": series, "x": int(r["level"]),
                            "y": float(r[series]), "stderr": None})
    return out


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

def run(config: RunConfig) -> int:
    """Execute one experiment and write its artifacts."""
    t0 = time.monotonic()
    config.out_dir.mkdir(parents=True, exist_ok=True)
    tables = _EXPERIMENT_FNS[config.experiment](config)
    for name, (columns, rows) in tables.items():
        write_table(config.out_dir, name, columns, rows, config.format)
    if config.experiment in _PLOTDATA_SOURCES:
        emit_plotdata(config.out_dir, config.format)
    manifest = {
        "experiment": config.experiment,
        "seed": config.seed,
        "out_dir": str(config.out_dir),
        "format": config.format,
        "workers": config.workers,
        "params": config.params,
        "artifact_version": __version__,
        "wall_time_s": time.monotonic() - t0,
    }
    with open(config.out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def _load_config_file(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
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

    seed = file_cfg.get("seed", 0)
    out_dir = file_cfg.get("out_dir", "runs")
    if os.environ.get(ENV_SEED):
        try:
            seed = int(os.environ[ENV_SEED])
        except ValueError:
            raise ConfigError(f"{ENV_SEED} must be an integer") from None
    if os.environ.get(ENV_OUT_DIR):
        out_dir = os.environ[ENV_OUT_DIR]
    if args.seed is not None:
        seed = args.seed
    if args.out_dir is not None:
        out_dir = args.out_dir

    fmt = args.format if args.format is not None else file_cfg.get("format", "csv")
    workers = args.workers if args.workers is not None else file_cfg.get("workers", 1)
    return RunConfig(experiment=experiment, seed=int(seed), out_dir=Path(out_dir),
                     format=fmt, workers=int(workers), params=params)


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
