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

import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from landscape_lab._seeds import derive_rng
from landscape_lab.abstraction import AbstractionHierarchy
from landscape_lab.dynamics import FlowConfig, flow_batch
from landscape_lab.errors import CensusFailureError, InputError
from landscape_lab.knn import argmax_class
from landscape_lab.landscape import CHUNK, EnergyLandscape, MemorySet, sqdist

_PRIVACY_KS = (1, 2, 5, 10)
_MAX_FAILURE_RATE = 0.01


@dataclass
class CensusConfig:
    n_queries: int = 5000
    query_sigma: float | None = None    # default resolves to 1.5x memory radius
    seed: int = 0
    levels: tuple | None = None         # default: every hierarchy level

    def __post_init__(self):
        if self.n_queries < 1:
            raise InputError(f"n_queries must be >= 1, got {self.n_queries}")
        if self.n_queries < 100:
            warnings.warn("n_queries < 100: reported statistics will be noisy",
                          stacklevel=2)
        if self.query_sigma is not None and not (self.query_sigma > 0):
            raise InputError(f"query_sigma must be positive, got {self.query_sigma}")
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

    def __post_init__(self):
        for name in ("p_data", "p_gen"):
            total = sum(getattr(self, name).values())
            if abs(total - 1.0) > 1e-9:
                raise InputError(f"{name} must sum to 1, got {total}")
        if not (-1.0 <= self.amplification <= 1.0):
            raise InputError(
                f"amplification must be in [-1, 1], got {self.amplification}")


def _resolve_levels(hierarchy: AbstractionHierarchy, levels) -> tuple:
    if levels is None:
        levels = range(hierarchy.levels + 1)
    levels = tuple(hierarchy.check_level(a) for a in levels)
    if not levels:
        raise InputError("levels must name at least one level")
    return levels


def default_query_sigma(memories: MemorySet) -> float:
    """Corrupted-query scale: 1.5x the memory radius, else 1."""
    return 1.5 * memories.radius if memories.radius > 0 else 1.0


def default_flow_config() -> FlowConfig:
    # merged minima are weakly curved, so census flows trade gradient
    # tolerance for step budget; positive curvature of the canonical
    # energy never exceeds 1, keeping the unit step stable
    return FlowConfig(step_size=1.0, grad_tol=1e-5, max_steps=8000)


def _decoder_range_hint(landscape: EnergyLandscape,
                        hierarchy: AbstractionHierarchy, levels) -> str:
    """Failure-message suffix counting, per level, the memories outside the
    decoder's range: decode(encode(x)) misses x by more than roundoff, so
    the level energy has no minimum at x and flows toward it cannot
    converge. Empty when every memory is in range."""
    pts = landscape.memories.points
    notes = []
    for a in levels:
        lvl = hierarchy.level_energy(landscape, a)
        back = np.asarray(lvl.decode(lvl.encode(pts)))
        # written so that a non-finite round trip counts as a miss
        outside = int((~(np.abs(back - pts) <= 1e-13 * np.abs(pts)).all(axis=1)).sum())
        if outside:
            notes.append(f"; {outside} of {len(pts)} memories lie outside level "
                         f"{a}'s decoder range and have no minimum there")
    return "".join(notes)


def _chunked_flow(target, starts: np.ndarray, config: FlowConfig,
                  workers: int, max_failures: float) -> tuple:
    """flow_batch over fixed-size chunks, optionally on a thread pool.

    Returns (terminals, ok), where ok marks the rows that converged
    without failing. Chunk boundaries are constants, so the arithmetic is
    identical at any worker count; threads only change scheduling. Results
    are taken in chunk order. Once more than max_failures rows are not ok,
    the chunks not yet started are cancelled, those still running are
    told to stop, and the arrays returned end with the chunk that passed
    the budget, so where a run stops does not depend on workers.
    """
    m = starts.shape[0]
    bounds = [(lo, min(lo + CHUNK, m)) for lo in range(0, m, CHUNK)]
    terminals = np.empty_like(starts)
    ok = np.empty(m, dtype=bool)

    pool = None
    if workers > 1 and len(bounds) > 1:
        stop = threading.Event()
        pool = ThreadPoolExecutor(max_workers=workers)
        futures = [pool.submit(flow_batch, target, starts[lo:hi], config, stop=stop)
                   for lo, hi in bounds]
        results = (f.result() for f in futures)
    else:
        results = (flow_batch(target, starts[lo:hi], config) for lo, hi in bounds)
    end, failures = m, 0
    try:
        for (lo, hi), out in zip(bounds, results):
            terminals[lo:hi] = out["terminals"]
            ok[lo:hi] = out["converged"] & ~out["failed"]
            failures += int((~ok[lo:hi]).sum())
            if failures > max_failures:
                end = hi
                break
    finally:
        if pool is not None:
            # every chunk up to the last one read has finished, so this
            # cuts short only chunks whose rows are discarded
            stop.set()
            pool.shutdown(cancel_futures=True)
    return terminals[:end], ok[:end]


def _mean_pairwise_distance(points: np.ndarray) -> float:
    """Mean distance over the m(m-1)/2 unordered pairs of rows.

    In 1-D, the sorted-gap closed form: the gap between the k-th and the
    (k+1)-th smallest point lies between k(m-k) pairs, and every term is
    non-negative, so nothing cancels. Otherwise CHUNK-row blocks: a
    diagonal block is summed in full and halved (sqdist(a, a) is bitwise
    symmetric with a zero diagonal), an off-diagonal block once.
    """
    m = points.shape[0]
    if m < 2:
        return 0.0
    if points.shape[1] == 1:
        k = np.arange(1, m)
        gaps = np.diff(np.sort(points[:, 0]))
        total = float((gaps * (k * (m - k))).sum())
    else:
        total = 0.0
        for lo in range(0, m, CHUNK):
            a = points[lo:lo + CHUNK]
            total += 0.5 * float(np.sqrt(sqdist(a, a)).sum())
            for lo2 in range(lo + CHUNK, m, CHUNK):
                total += float(np.sqrt(sqdist(a, points[lo2:lo2 + CHUNK])).sum())
    return total / (m * (m - 1) / 2.0)


def _knn_mean_distances(points: np.ndarray, references: np.ndarray) -> dict:
    """Mean distance to the k nearest references, per k, averaged over points."""
    n_ref = references.shape[0]
    sums = {k: 0.0 for k in _PRIVACY_KS}
    for lo in range(0, points.shape[0], CHUNK):
        d = np.sqrt(sqdist(points[lo:lo + CHUNK], references))
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
    (numerical breakdown or non-convergence), as soon as the chunk that
    passes that budget has run; failures below the threshold are excluded
    from the statistics and reported in the failures field.
    """
    levels = _resolve_levels(hierarchy, config.levels)
    flow_config = flow_config or default_flow_config()
    mem = landscape.memories
    sigma = (default_query_sigma(mem) if config.query_sigma is None
             else float(config.query_sigma))
    classes = mem.classes()
    p_data = mem.class_proportions()
    c_maj = argmax_class(p_data)
    labels = np.array([classes.index(y) for y in mem.labels])

    unit = derive_rng(config.seed, "census-queries").standard_normal(
        (config.n_queries, mem.dim))

    budget = _MAX_FAILURE_RATE * config.n_queries
    reports = []
    for a in levels:
        lvl = hierarchy.level_energy(landscape, a)
        center = np.asarray(lvl.encode(mem.centroid))
        starts = center + sigma * unit
        terminals, ok = _chunked_flow(lvl, starts, flow_config, workers, budget)
        failures = int((~ok).sum())
        if failures > budget:
            raise CensusFailureError(
                f"level {a}: {failures}/{ok.shape[0]} flows failed "
                f"(of {config.n_queries} planned)"
                + _decoder_range_hint(landscape, hierarchy, (a,)))
        terminals = terminals[ok]

        basin_class = labels[lvl.nearest_memory(terminals)]
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
    offsets on the scores, which is exactly the multiset log-sum-exp.
    nearest_memory is inherited: a basin's class ignores the draw counts."""

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
                         flow_config: FlowConfig | None = None,
                         *,
                         probe_sigma: float = 0.1,
                         bootstrap_rounds: int = 50,
                         stratified: bool = True,
                         seed: int = 0,
                         levels: tuple | None = None,
                         workers: int = 1) -> list[dict]:
    """Per-level bias and variance of the basin classifier.

    One probe per memory: x_i plus isotropic noise of scale probe_sigma.
    Each bootstrap round resamples the memory set with replacement
    (class-stratified by default, which keeps class proportions fixed),
    rebuilds the landscape, and reflows the same probes; the bootstrap
    expectation over rounds gives, per probe, the mean one-hot prediction
    p. Bias is the mean of (p - true one-hot) over probes, per class;
    variance is the mean of (1 - ||p||^2), the one-hot shortcut for the
    expected squared deviation from the mean prediction. seed draws the
    probe noise and the resamples; levels defaults to every hierarchy level.
    """
    if not (probe_sigma > 0):
        raise InputError(f"probe_sigma must be positive, got {probe_sigma}")
    if bootstrap_rounds < 10:
        raise InputError(f"bootstrap_rounds must be >= 10, got {bootstrap_rounds}")
    levels = _resolve_levels(hierarchy, levels)
    flow_config = flow_config or default_flow_config()
    mem = landscape.memories
    classes = mem.classes()
    n_classes = len(classes)
    true_idx = np.array([classes.index(y) for y in mem.labels])

    noise = derive_rng(seed, "probe-noise").standard_normal((mem.n, mem.dim))
    probes = mem.points + probe_sigma * noise

    # counts[level][probe, class] accumulated over rounds
    counts = {a: np.zeros((mem.n, n_classes)) for a in levels}
    valid = {a: np.zeros(mem.n) for a in levels}
    # failures only grow and every planned flow runs unless this raises,
    # so checking after each level gives the end-of-run outcome early
    planned = bootstrap_rounds * len(levels) * mem.n
    budget = _MAX_FAILURE_RATE * planned
    failures = 0
    for b in range(bootstrap_rounds):
        rng = derive_rng(seed, "bootstrap", b)
        resampled = _bootstrap_landscape(landscape, rng, stratified)
        sub_idx = np.array([classes.index(y) for y in resampled.memories.labels])
        for a in levels:
            lvl = hierarchy.level_energy(resampled, a)
            terminals, ok = _chunked_flow(lvl, np.asarray(lvl.encode(probes)),
                                          flow_config, workers, budget - failures)
            failures += int((~ok).sum())
            if failures > budget:
                raise CensusFailureError(
                    f"bias/variance probes: {failures} of {planned} planned "
                    "flows failed" + _decoder_range_hint(landscape, hierarchy, levels))
            pred = sub_idx[lvl.nearest_memory(terminals[ok])]
            rows = np.flatnonzero(ok)
            counts[a][rows, pred] += 1.0
            valid[a][rows] += 1.0

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

