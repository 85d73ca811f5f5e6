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

bias_variance_probes reflows probes under bootstrap resamples of the
memory set, each a row of log(count) offsets on the memories' scores
(-inf where not drawn); a level's rounds flow as one batch keyed by round
(_Rounds), with no per-round landscape: each evaluation adds every row's
offsets to its full row of scores and takes one softmax, so a row gets
the bits of the full landscape with its round's offsets. The terminals
classify through nearest_memory with the same offsets, in the census's
classification blocks.

Determinism: all draws derive from (seed, purpose, index) streams, query
noise is shared across levels (common random numbers), flows run in
chunks that depend on the batch's shape alone (dynamics.flow_chunked: a
first CHUNK-row chunk, then chunks sized to the memories a score pass
spans, all of the landscape's for the bootstrap rounds), diversity sums
fixed TILE-row pair tiles, added in tile order, and classification and
privacy run over fixed CHUNK-row blocks of the terminals, the privacy
block sums added in block order, so reports are bit-identical for any
worker count. The worker threads run the flow chunks, the classification
blocks, the diversity tiles and the privacy blocks.
"""

from __future__ import annotations

import math
import threading
import time
import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from landscape_lab._seeds import derive_rng
from landscape_lab.abstraction import AbstractionHierarchy, LevelEnergy
from landscape_lab.dynamics import FlowConfig, flow_chunked, ordered_map
from landscape_lab.errors import CensusFailureError, InputError, require_integer
from landscape_lab.knn import argmax_class
from landscape_lab.landscape import (TILE, EnergyLandscape, MemorySet, chunk_bounds,
                                     pair_tiles, sqdist)

_PRIVACY_KS = (1, 2, 5, 10)
_MAX_FAILURE_RATE = 0.01


@dataclass
class CensusConfig:
    n_queries: int = 5000
    query_sigma: float | None = None    # default resolves to 1.5x memory radius
    seed: int = 0
    levels: tuple | None = None         # default: every hierarchy level

    def __post_init__(self):
        if require_integer("n_queries", self.n_queries) < 1:
            raise InputError(f"n_queries must be >= 1, got {self.n_queries}")
        if self.n_queries < 100:
            warnings.warn("n_queries < 100: reported statistics will be noisy",
                          stacklevel=2)
        if self.query_sigma is not None and not (self.query_sigma > 0
                                                 and math.isfinite(self.query_sigma)):
            raise InputError(
                f"query_sigma must be a positive finite real, got {self.query_sigma}")


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
    # perf_counter seconds per phase (flow, classification, diversity,
    # privacy): a record of the run, never a result, so not compared
    phases: dict = field(default_factory=dict, compare=False)

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
    if len(set(levels)) != len(levels):
        raise InputError(f"levels must not repeat a level, got {list(levels)}")
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


def _tile_distance_sum(points: np.ndarray, buffers: threading.local,
                       bounds: tuple) -> float:
    """Pair tile [lo, hi)'s share of the pairwise distance sum: half the
    sum over its square (sqdist(a, a) is bitwise symmetric with a zero
    diagonal) plus the sum over its strip, points[hi:].

    points is coordinate-major (Fortran-ordered), so sqdist reads each
    coordinate of the tile and of the strip as a contiguous run. The
    square and then the strip are written into C-contiguous views of the
    calling thread's TILE x m buffer (buffers.out, made on its first
    tile), so a walk allocates no result per tile; sqrt runs in place."""
    lo, hi = bounds
    m = points.shape[0]
    out = getattr(buffers, "out", None)
    if out is None:
        out = buffers.out = np.empty(TILE * m)
    a = points[lo:hi]
    r = hi - lo
    d = sqdist(a, a, out=out[:r * r].reshape(r, r))
    total = 0.5 * float(np.sqrt(d, out=d).sum())
    if hi < m:
        d = sqdist(a, points[hi:], out=out[:r * (m - hi)].reshape(r, m - hi))
        total += float(np.sqrt(d, out=d).sum())
    return total


def _mean_pairwise_distance(points: np.ndarray, workers: int = 1) -> float:
    """Mean distance over the m(m-1)/2 unordered pairs of rows.

    In 1-D, the sorted-gap closed form: the gap between the k-th and the
    (k+1)-th smallest point lies between k(m-k) pairs, and every term is
    non-negative, so nothing cancels. Otherwise the upper-triangle walk of
    pair_tiles over one coordinate-major copy of the points: each TILE-row
    tile sums its own pairs once (see _tile_distance_sum), so no array
    exceeds TILE x m. The tiles run on ordered_map's workers threads, each
    with one result buffer that lives as long as the walk, and the calling
    thread adds their sums in tile order, so the bits do not depend on
    workers.
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
        tile = partial(_tile_distance_sum, np.asfortranarray(points), threading.local())
        for part in ordered_map(tile, pair_tiles(m), workers):
            total += part
    return total / (m * (m - 1) / 2.0)


def _nearest_in_blocks(lvl, points: np.ndarray, workers: int = 1,
                       keys: np.ndarray | None = None) -> np.ndarray:
    """lvl.nearest_memory of each row, over CHUNK-row blocks on ordered_map's
    workers threads, given keys (one per row) as nearest_memory(z, keys[lo:hi]),
    the way flow_batch passes them. A row's index does not depend on its block."""
    bounds = chunk_bounds(points.shape[0])
    arrays = (points,) if keys is None else (points, keys)   # sliced per block
    idx = np.empty(points.shape[0], dtype=np.intp)
    for (lo, hi), part in zip(bounds, ordered_map(
            lambda b: lvl.nearest_memory(*(a[b[0]:b[1]] for a in arrays)), bounds, workers)):
        idx[lo:hi] = part
    return idx


def _knn_block_sums(points: np.ndarray, references: np.ndarray,
                    bounds: tuple) -> list:
    """Block [lo, hi)'s sum over rows of the mean distance to the k nearest
    references, one sum per k in _PRIVACY_KS."""
    lo, hi = bounds
    d = sqdist(points[lo:hi], references)
    np.sqrt(d, out=d)
    d.sort(axis=1)
    n_ref = references.shape[0]
    return [float(d[:, :min(k, n_ref)].mean(axis=1).sum()) for k in _PRIVACY_KS]


def _knn_mean_distances(points: np.ndarray, references: np.ndarray,
                        workers: int = 1) -> dict:
    """Mean distance to the k nearest references, per k, averaged over points.

    The CHUNK-row blocks run on ordered_map's workers threads, and the
    calling thread adds their sums in block order, so the bits do not
    depend on workers.
    """
    sums = dict.fromkeys(_PRIVACY_KS, 0.0)
    m = points.shape[0]
    for part in ordered_map(partial(_knn_block_sums, points, references),
                            chunk_bounds(m), workers):
        for k, s in zip(_PRIVACY_KS, part):
            sums[k] += s
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
    from the statistics and reported in the failures field. workers
    threads run the flow chunks, the classification and privacy blocks
    (CHUNK rows of the terminals each) and the diversity tiles. Each
    report's phases holds the seconds its level spent on flow,
    classification, diversity and privacy, each timed over its own pass.
    """
    levels = _resolve_levels(hierarchy, config.levels)
    flow_config = flow_config or default_flow_config()
    mem = landscape.memories
    sigma = (default_query_sigma(mem) if config.query_sigma is None
             else float(config.query_sigma))
    classes = mem.classes()
    p_data = mem.class_proportions()
    c_maj = argmax_class(p_data)

    unit = derive_rng(config.seed, "census-queries").standard_normal(
        (config.n_queries, mem.dim))

    budget = _MAX_FAILURE_RATE * config.n_queries
    reports = []
    for a in levels:
        lvl = hierarchy.level_energy(landscape, a)
        center = np.asarray(lvl.encode(mem.centroid))
        starts = center + sigma * unit
        t_flow = time.perf_counter()
        out, ok = flow_chunked(lvl, starts, flow_config, workers, budget)
        failures = int((~ok).sum())
        if failures > budget:
            raise CensusFailureError(
                f"level {a}: {failures}/{ok.shape[0]} flows failed "
                f"(of {config.n_queries} planned)"
                + _decoder_range_hint(landscape, hierarchy, (a,)))
        terminals = out["terminals"][ok]

        t_class = time.perf_counter()
        basin_class = mem.class_index[_nearest_in_blocks(lvl, terminals, workers)]
        m_ok = terminals.shape[0]
        p_gen = {c: float((basin_class == i).sum()) / m_ok
                 for i, c in enumerate(classes)}

        t_div = time.perf_counter()
        diversity = _mean_pairwise_distance(terminals, workers)
        t_priv = time.perf_counter()
        privacy = _knn_mean_distances(terminals, np.asarray(lvl.encoded_memories()),
                                      workers)
        t_end = time.perf_counter()

        reports.append(CensusReport(
            level=int(a),
            p_data=dict(p_data),
            p_gen=p_gen,
            amplification=p_gen[c_maj] - p_data[c_maj],
            diversity_mean_pairwise=diversity,
            privacy_knn_distance=privacy,
            n_queries=config.n_queries,
            failures=failures,
            phases={"flow": t_class - t_flow, "classification": t_div - t_class,
                    "diversity": t_priv - t_div, "privacy": t_end - t_priv},
        ))
    return reports


# ---------------------------------------------------------------------------
# Bias and variance probes (bootstrap over training-set resamples)
# ---------------------------------------------------------------------------

def _bootstrap_log_counts(mem: MemorySet, rng: np.random.Generator,
                          stratified: bool) -> np.ndarray:
    """One bootstrap round as an (n,) row: log(count) on each memory drawn,
    -inf on the others. Its multiset's log-sum-exp is the full set's with
    the row added to the scores (Efron & Tibshirani 1993)."""
    if stratified:
        chosen = []
        for j in range(len(mem.classes())):
            idx = np.flatnonzero(mem.class_index == j)
            chosen.append(idx[rng.integers(0, idx.shape[0], size=idx.shape[0])])
        chosen = np.concatenate(chosen)
    else:
        chosen = rng.integers(0, mem.n, size=mem.n)
    counts = np.bincount(chosen, minlength=mem.n)
    return np.log(counts, out=np.full(mem.n, -np.inf), where=counts > 0)


class _Rounds:
    """The bootstrap rounds of one level in one pass: energy_grad(z, rounds)
    and nearest_memory(z, rounds) are the level's with each row's round's
    log_counts row, so a row gets the bits of the level on the full
    landscape with its round's offsets, and its nearest drawn memory.
    memories is the full landscape's: each score pass spans them all."""

    def __init__(self, lvl: LevelEnergy, log_counts: np.ndarray):
        self.lvl, self.log_counts = lvl, log_counts
        self.dim, self.memories = lvl.dim, lvl.memories

    def energy_grad(self, z: np.ndarray, rounds: np.ndarray) -> tuple:
        return self.lvl.energy_grad(z, log_counts=self.log_counts[rounds])

    def nearest_memory(self, z: np.ndarray, rounds: np.ndarray) -> np.ndarray:
        return self.lvl.nearest_memory(z, log_counts=self.log_counts[rounds])


def bias_variance_probes(landscape: EnergyLandscape,
                         hierarchy: AbstractionHierarchy,
                         flow_config: FlowConfig | None = None,
                         *,
                         probe_sigma: float = 0.1,
                         bootstrap_rounds: int = 50,
                         stratified: bool = True,
                         seed: int = 0,
                         levels: tuple | None = None,
                         workers: int = 1,
                         phases: list | None = None) -> list[dict]:
    """Per-level bias and variance of the basin classifier.

    One probe per memory: x_i plus isotropic noise of scale probe_sigma.
    Each bootstrap round resamples the memory set with replacement
    (class-stratified by default, which keeps class proportions fixed),
    a row of log-counts on the memories' scores, and reflows the same
    probes. Per level, every round's probes flow as one batch keyed by
    round, and each evaluation of its rows is one score pass against the
    full memory set with each row's round offsets on its scores (see
    _Rounds). The converged terminals then classify through the level's
    nearest_memory with their rounds' log-counts (their nearest drawn
    memory), in the census's CHUNK-row blocks on workers threads. The bootstrap
    expectation over rounds gives, per probe, the mean one-hot prediction
    p. Bias is the mean of (p - true one-hot) over probes, per class;
    variance is the mean of (1 - ||p||^2), the one-hot shortcut for the
    expected squared deviation from the mean prediction. seed draws the
    probe noise and the resamples; levels defaults to every hierarchy
    level. phases, if given, receives each level's flow and classification
    seconds, never results.
    """
    if not (probe_sigma > 0 and math.isfinite(probe_sigma)):
        raise InputError(f"probe_sigma must be a positive finite real, got {probe_sigma}")
    if require_integer("bootstrap_rounds", bootstrap_rounds) < 10:
        raise InputError(f"bootstrap_rounds must be >= 10, got {bootstrap_rounds}")
    levels = _resolve_levels(hierarchy, levels)
    flow_config = flow_config or default_flow_config()
    mem = landscape.memories
    classes = mem.classes()

    noise = derive_rng(seed, "probe-noise").standard_normal((mem.n, mem.dim))
    probes = mem.points + probe_sigma * noise

    # counts[level][probe, class] accumulated over rounds
    counts = {a: np.zeros((mem.n, len(classes))) for a in levels}
    valid = {a: np.zeros(mem.n) for a in levels}
    log_counts = np.array([_bootstrap_log_counts(mem, derive_rng(seed, "bootstrap", b),
                                                 stratified)
                           for b in range(bootstrap_rounds)])
    # the rounds' probes are stacked round-major, each row keyed by its round
    block = np.repeat(np.arange(bootstrap_rounds), mem.n)
    # failures only grow and every planned flow runs unless this raises,
    # so checking after each level gives the end-of-run outcome early
    planned = bootstrap_rounds * len(levels) * mem.n
    budget = _MAX_FAILURE_RATE * planned
    failures = 0
    for a in levels:
        rounds = _Rounds(hierarchy.level_energy(landscape, a), log_counts)
        starts = np.tile(np.asarray(rounds.lvl.encode(probes)), (bootstrap_rounds, 1))
        t_flow = time.perf_counter()
        out, ok = flow_chunked(rounds, starts, flow_config, workers,
                               budget - failures, keys=block)
        failures += int((~ok).sum())
        if failures > budget:
            raise CensusFailureError(
                f"bias/variance probes: {failures} of {planned} planned "
                "flows failed" + _decoder_range_hint(landscape, hierarchy, levels))
        t_class = time.perf_counter()
        hit = np.flatnonzero(ok)
        nearest = _nearest_in_blocks(rounds, out["terminals"][hit], workers,
                                     keys=block[hit])
        probe = hit % mem.n
        np.add.at(counts[a], (probe, mem.class_index[nearest]), 1.0)
        valid[a] += np.bincount(probe, minlength=mem.n)
        if phases is not None:
            phases.append({"level": int(a), "flow": t_class - t_flow,
                           "classification": time.perf_counter() - t_class})

    results = []
    for a in levels:
        if (valid[a] == 0).any():
            raise CensusFailureError(f"level {a}: a probe has no valid rounds")
        p = counts[a] / valid[a][:, None]
        onehot = np.zeros_like(p)
        onehot[np.arange(mem.n), mem.class_index] = 1.0
        bias_vec = (p - onehot).mean(axis=0)
        variance = float((1.0 - (p ** 2).sum(axis=1)).mean())
        results.append({
            "level": int(a),
            "bias_per_class": {c: float(bias_vec[i]) for i, c in enumerate(classes)},
            "variance_mean": variance,
        })
    return results

