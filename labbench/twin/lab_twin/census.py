"""Monte Carlo basin census over corrupted queries.

Per abstraction level, queries are drawn from an isotropic Gaussian
centered at the pulled-back memory centroid (the corrupted-signal
distribution; its scale defaults to 1.5x the memory-set radius), flowed to
their attractors, and each terminal is classified by the nearest memory in
base space. The census tabulates, per level:

* class-generation frequencies and the majority-class amplification
  against the training proportions,
* diversity, the mean pairwise distance among terminals, and
* privacy proximity, the mean distance from each terminal to its k nearest
  memories.

Diversity and proximity are measured in the level's own coordinates
(terminals against pulled-back memories), consistent with how merged
minima are compared; class assignment always happens in base space.

Determinism: all draws derive from (seed, purpose, index) streams, query
noise is shared across levels (common random numbers), and flows run in
fixed-size chunks, so reports are bit-identical for any worker count.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from lab_twin._seeds import derive_rng
from lab_twin.abstraction import AbstractionHierarchy
from lab_twin.dynamics import FlowConfig, flow_batch
from lab_twin.errors import CensusFailureError, InputError
from lab_twin.landscape import EnergyLandscape, MemorySet

_CHUNK = 1024           # fixed work-item size; workers only affect scheduling
_PRIVACY_KS = (1, 2, 5, 10)
_MAX_FAILURE_RATE = 0.01


@dataclass
class CensusConfig:
    n_queries: int = 5000
    query_sigma: float | None = None    # default resolves to 1.5x memory radius
    seed: int = 0
    levels: tuple | None = None         # default: every hierarchy level
    probe_sigma: float = 0.1
    bootstrap_rounds: int = 50

    def __post_init__(self):
        if self.n_queries < 1:
            raise InputError(f"n_queries must be >= 1, got {self.n_queries}")
        if self.n_queries < 100:
            warnings.warn("n_queries < 100: reported statistics will be noisy",
                          stacklevel=2)
        if self.query_sigma is not None and not (self.query_sigma > 0):
            raise InputError(f"query_sigma must be positive, got {self.query_sigma}")
        if not (self.probe_sigma > 0):
            raise InputError(f"probe_sigma must be positive, got {self.probe_sigma}")
        if self.bootstrap_rounds < 1:
            raise InputError(
                f"bootstrap_rounds must be >= 1, got {self.bootstrap_rounds}")
        if self.levels is not None:
            self.levels = tuple(int(a) for a in self.levels)


@dataclass
class CensusReport:
    level: int
    p_data: dict
    p_gen: dict
    amplification: float
    diversity_mean_pairwise: float
    privacy_knn_distance: dict
    n_queries: int
    failures: int
    bias_per_class: dict | None = None
    variance_mean: float | None = None

    def __post_init__(self):
        for name in ("p_data", "p_gen"):
            total = sum(getattr(self, name).values())
            if abs(total - 1.0) > 1e-9:
                raise InputError(f"{name} must sum to 1, got {total}")
        if not (-1.0 <= self.amplification <= 1.0):
            raise InputError(
                f"amplification must be in [-1, 1], got {self.amplification}")


def _majority_class(p_data: dict):
    best = max(p_data.values())
    return sorted(c for c, p in p_data.items() if p == best)[0]


def _resolve_levels(hierarchy: AbstractionHierarchy, config: CensusConfig) -> tuple:
    levels = config.levels
    if levels is None:
        levels = tuple(range(hierarchy.levels + 1))
    for a in levels:
        hierarchy.check_level(a)
    return tuple(levels)


def _resolve_sigma(landscape: EnergyLandscape, config: CensusConfig) -> float:
    if config.query_sigma is not None:
        return float(config.query_sigma)
    r = landscape.memories.radius
    return 1.5 * r if r > 0 else 1.0


def _default_flow_config() -> FlowConfig:
    # merged minima are weakly curved, so census flows trade gradient
    # tolerance for step budget; positive curvature of the canonical
    # energy never exceeds 1, keeping the unit step stable
    return FlowConfig(step_size=1.0, grad_tol=1e-5, max_steps=8000)


def _chunked_flow(target, starts: np.ndarray, config: FlowConfig,
                  workers: int = 1) -> dict:
    """flow_batch over fixed-size chunks, optionally on a thread pool.

    Chunk boundaries are constants, so the arithmetic is identical at any
    worker count; threads only change scheduling.
    """
    m = starts.shape[0]
    bounds = [(lo, min(lo + _CHUNK, m)) for lo in range(0, m, _CHUNK)]
    terminals = np.empty_like(starts)
    steps = np.empty(m, dtype=np.int64)
    converged = np.empty(m, dtype=bool)
    failed = np.empty(m, dtype=bool)

    def work(lo_hi):
        lo, hi = lo_hi
        return lo, hi, flow_batch(target, starts[lo:hi], config)

    if workers > 1 and len(bounds) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(work, bounds))
    else:
        results = [work(b) for b in bounds]
    for lo, hi, out in results:
        terminals[lo:hi] = out["terminals"]
        steps[lo:hi] = out["steps"]
        converged[lo:hi] = out["converged"]
        failed[lo:hi] = out["failed"]
    return {"terminals": terminals, "steps": steps,
            "converged": converged, "failed": failed}


def _mean_pairwise_distance(points: np.ndarray) -> float:
    m = points.shape[0]
    if m < 2:
        return 0.0
    total = 0.0
    for lo in range(0, m, _CHUNK):
        a = points[lo:lo + _CHUNK]
        d_local = np.sqrt(((a[:, None, :] - a[None, :, :]) ** 2).sum(axis=-1))
        total += float(d_local[np.triu_indices(a.shape[0], k=1)].sum())
        for lo2 in range(lo + _CHUNK, m, _CHUNK):
            b = points[lo2:lo2 + _CHUNK]
            d_cross = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1))
            total += float(d_cross.sum())
    return total / (m * (m - 1) / 2.0)


def _knn_mean_distances(points: np.ndarray, references: np.ndarray) -> dict:
    """Mean distance to the k nearest references, per k, averaged over points."""
    n_ref = references.shape[0]
    sums = {k: 0.0 for k in _PRIVACY_KS}
    for lo in range(0, points.shape[0], _CHUNK):
        a = points[lo:lo + _CHUNK]
        d = np.sqrt(((a[:, None, :] - references[None, :, :]) ** 2).sum(axis=-1))
        d.sort(axis=1)
        for k in _PRIVACY_KS:
            kk = min(k, n_ref)
            sums[k] += float(d[:, :kk].mean(axis=1).sum())
    m = points.shape[0]
    return {k: (sums[k] / m if m else 0.0) for k in _PRIVACY_KS}


def run_census(landscape: EnergyLandscape,
               hierarchy: AbstractionHierarchy,
               config: CensusConfig,
               flow_config: FlowConfig | None = None,
               workers: int = 1) -> list[CensusReport]:
    """Basin census per abstraction level.

    Raises CensusFailureError when more than 1% of a level's flows fail
    (numerical breakdown or non-convergence); failures below the threshold
    are excluded from the statistics and reported in the failures field.
    """
    levels = _resolve_levels(hierarchy, config)
    flow_config = flow_config or _default_flow_config()
    sigma = _resolve_sigma(landscape, config)
    mem = landscape.memories
    classes = mem.classes()
    p_data = mem.class_proportions()
    c_maj = _majority_class(p_data)
    labels = np.array([classes.index(y) for y in mem.labels])

    unit = derive_rng(config.seed, "census-queries").standard_normal(
        (config.n_queries, mem.dim))

    reports = []
    for a in levels:
        lvl = hierarchy.level_energy(landscape, a)
        center = np.asarray(lvl.encode(mem.centroid))
        starts = center + sigma * unit
        out = _chunked_flow(lvl, starts, flow_config, workers)
        ok = out["converged"] & ~out["failed"]
        failures = int((~ok).sum())
        if failures > _MAX_FAILURE_RATE * config.n_queries:
            raise CensusFailureError(
                f"level {a}: {failures}/{config.n_queries} flows failed")
        terminals = out["terminals"][ok]

        decoded = np.asarray(lvl.base_point(terminals))
        d2 = ((decoded[:, None, :] - mem.points[None, :, :]) ** 2).sum(axis=-1)
        basin_class = labels[d2.argmin(axis=1)]
        m_ok = terminals.shape[0]
        p_gen = {c: float((basin_class == i).sum()) / m_ok
                 for i, c in enumerate(classes)}

        reports.append(CensusReport(
            level=int(a),
            p_data=dict(p_data),
            p_gen=p_gen,
            amplification=p_gen[c_maj] - p_data[c_maj],
            diversity_mean_pairwise=_mean_pairwise_distance(terminals),
            privacy_knn_distance=_knn_mean_distances(
                terminals, np.asarray(lvl.encoded_memories())),
            n_queries=config.n_queries,
            failures=failures,
        ))
    return reports


# ---------------------------------------------------------------------------
# Bias and variance probes (bootstrap over training-set resamples)
# ---------------------------------------------------------------------------

@dataclass
class _ResampledLandscape(EnergyLandscape):
    """Energy of a bootstrap multiset: duplicate draws become log-count
    offsets on the scores, which is exactly the multiset log-sum-exp."""

    log_counts: np.ndarray = field(default=None)

    def _scores(self, x):
        return super()._scores(x) + self.log_counts


def _bootstrap_landscape(landscape: EnergyLandscape, rng: np.random.Generator,
                         stratified: bool) -> _ResampledLandscape:
    mem = landscape.memories
    labels = np.array(mem.labels, dtype=object)
    if stratified:
        chosen = []
        for c in mem.classes():
            idx = np.flatnonzero(labels == c)
            chosen.append(idx[rng.integers(0, idx.shape[0], size=idx.shape[0])])
        chosen = np.concatenate(chosen)
    else:
        chosen = rng.integers(0, mem.n, size=mem.n)
    uniq, counts = np.unique(chosen, return_counts=True)
    sub = MemorySet(mem.points[uniq], tuple(mem.labels[i] for i in uniq))
    return _ResampledLandscape(sub, landscape.beta, log_counts=np.log(counts))


def bias_variance_probes(landscape: EnergyLandscape,
                         hierarchy: AbstractionHierarchy,
                         config: CensusConfig,
                         flow_config: FlowConfig | None = None,
                         stratified: bool = True,
                         workers: int = 1) -> list[dict]:
    """Per-level bias and variance of the basin classifier.

    One probe per memory: x_i plus isotropic noise of scale probe_sigma.
    Each bootstrap round resamples the memory set with replacement
    (class-stratified by default, which keeps class proportions fixed),
    rebuilds the landscape, and reflows the same probes; the bootstrap
    expectation over rounds gives, per probe, the mean one-hot prediction
    p. Bias is the mean of (p - true one-hot) over probes, per class;
    variance is the mean of (1 - ||p||^2), the one-hot shortcut for the
    expected squared deviation from the mean prediction.
    """
    if config.bootstrap_rounds < 10:
        raise InputError(
            f"bootstrap_rounds must be >= 10, got {config.bootstrap_rounds}")
    levels = _resolve_levels(hierarchy, config)
    flow_config = flow_config or _default_flow_config()
    mem = landscape.memories
    classes = mem.classes()
    n_classes = len(classes)
    true_idx = np.array([classes.index(y) for y in mem.labels])

    noise = derive_rng(config.seed, "probe-noise").standard_normal(
        (mem.n, mem.dim))
    probes = mem.points + config.probe_sigma * noise

    # counts[level][probe, class] accumulated over rounds
    counts = {a: np.zeros((mem.n, n_classes)) for a in levels}
    valid = {a: np.zeros(mem.n) for a in levels}
    failures = 0
    total_flows = 0
    for b in range(config.bootstrap_rounds):
        rng = derive_rng(config.seed, "bootstrap", b)
        resampled = _bootstrap_landscape(landscape, rng, stratified)
        sub_idx = np.array([classes.index(y) for y in resampled.memories.labels])
        for a in levels:
            lvl = hierarchy.level_energy(resampled, a)
            out = _chunked_flow(lvl, np.asarray(lvl.encode(probes)),
                                flow_config, workers)
            ok = out["converged"] & ~out["failed"]
            total_flows += mem.n
            failures += int((~ok).sum())
            decoded = np.asarray(lvl.base_point(out["terminals"][ok]))
            d2 = ((decoded[:, None, :] - resampled.memories.points[None, :, :]) ** 2
                  ).sum(axis=-1)
            pred = sub_idx[d2.argmin(axis=1)]
            rows = np.flatnonzero(ok)
            counts[a][rows, pred] += 1.0
            valid[a][rows] += 1.0

    if failures > _MAX_FAILURE_RATE * max(total_flows, 1):
        raise CensusFailureError(
            f"bias/variance probes: {failures}/{total_flows} flows failed")

    results = []
    for a in levels:
        if (valid[a] == 0).any():
            raise CensusFailureError(f"level {a}: a probe has no valid rounds")
        p = counts[a] / valid[a][:, None]
        onehot = np.zeros_like(p)
        onehot[np.arange(mem.n), true_idx] = 1.0
        bias_vec = (p - onehot).mean(axis=0)
        variance = float((1.0 - (p ** 2).sum(axis=1)).mean())
        results.append({
            "level": int(a),
            "bias_per_class": {c: float(bias_vec[i]) for i, c in enumerate(classes)},
            "variance_mean": variance,
        })
    return results


def attach_bias_variance(reports: list[CensusReport], probe_rows: list[dict]) -> None:
    """Merge bias_variance_probes output into census reports, by level."""
    by_level = {r["level"]: r for r in probe_rows}
    for report in reports:
        row = by_level.get(report.level)
        if row is not None:
            report.bias_per_class = dict(row["bias_per_class"])
            report.variance_mean = row["variance_mean"]


def amplification_sweep(landscape: EnergyLandscape,
                        hierarchy: AbstractionHierarchy,
                        config: CensusConfig,
                        flow_config: FlowConfig | None = None,
                        workers: int = 1) -> list[dict]:
    """Amplification and diversity per level, for trend assertions."""
    levels = _resolve_levels(hierarchy, config)
    if len(levels) < 3:
        raise InputError(f"need at least 3 levels to sweep, got {len(levels)}")
    reports = run_census(landscape, hierarchy, config, flow_config, workers)
    c_maj = _majority_class(landscape.memories.class_proportions())
    rows = []
    for r in reports:
        p = r.p_gen[c_maj]
        m = r.n_queries - r.failures
        rows.append({
            "level": r.level,
            "amplification": r.amplification,
            "diversity_mean_pairwise": r.diversity_mean_pairwise,
            "p_gen_majority": p,
            "stderr": float(np.sqrt(max(p * (1.0 - p), 0.0) / m)) if m else 0.0,
        })
    return rows
