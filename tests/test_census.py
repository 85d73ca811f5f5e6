import dataclasses
import json
import math
import tracemalloc
from collections import Counter
from functools import partial

import numpy as np
import pytest

import goldens
import oracles
from landscape_lab import census, cli, dynamics, landscape
from landscape_lab._seeds import derive_rng, derive_seed
from landscape_lab.abstraction import LevelEnergy, diagonal_hierarchy, tanh_hierarchy
from landscape_lab.census import (
    CensusConfig,
    CensusReport,
    _knn_mean_distances,
    _mean_pairwise_distance,
    _nearest_in_blocks,
    bias_variance_probes,
    run_census,
)
from landscape_lab.dynamics import FlowConfig
from landscape_lab.errors import CensusFailureError, InputError
from landscape_lab.landscape import (CHUNK, TILE, EnergyLandscape, MemorySet, flow_bounds,
                                     gaussian_blobs)


def biased_1d_landscape(beta=40.0):
    pts = np.concatenate([np.linspace(-1.0, -0.2, 9), [1.0]])[:, None]
    return EnergyLandscape(MemorySet(pts, ("A",) * 9 + ("B",)), beta)


def hierarchy_1d(depth=4):
    return diagonal_hierarchy([0.9 ** a for a in range(1, depth + 1)], dim=1)


# ---------------------------------------------------------------------------
# Config and report validation
# ---------------------------------------------------------------------------

def test_census_config_validation():
    with pytest.raises(InputError):
        CensusConfig(n_queries=0)
    with pytest.raises(InputError, match="probe_sigma"):    # checked where it is read
        bias_variance_probes(biased_1d_landscape(), hierarchy_1d(1), probe_sigma=0.0)
    with pytest.warns(UserWarning):
        CensusConfig(n_queries=50)


@pytest.mark.parametrize("levels", [(1.5,), (0.5,), (1.0,), (True,)])
def test_census_and_biasvar_levels_must_be_integers(levels):
    # a fractional level or a bool used to be truncated: (1.5,) reported
    # level 1 and (0.5,) ran level 0
    ls = biased_1d_landscape()
    message = f"level must be an integer, got {levels[0]!r}"
    with pytest.raises(InputError, match=message):
        run_census(ls, hierarchy_1d(2), CensusConfig(n_queries=100, levels=levels))
    with pytest.raises(InputError, match=message):
        bias_variance_probes(ls, hierarchy_1d(2), bootstrap_rounds=10, levels=levels)


def test_census_and_biasvar_counts_must_be_integers():
    # these raised numpy's TypeError deep in a draw, not InputError
    with pytest.raises(InputError, match=r"n_queries must be an integer, got 200\.5"):
        CensusConfig(n_queries=200.5)
    with pytest.raises(InputError, match="n_queries must be an integer, got True"):
        CensusConfig(n_queries=True)
    with pytest.raises(InputError, match=r"bootstrap_rounds must be an integer, got 10\.5"):
        bias_variance_probes(biased_1d_landscape(), hierarchy_1d(1), bootstrap_rounds=10.5)
    # numpy integers are integers
    ls = EnergyLandscape(MemorySet(np.array([[-1.0], [1.0]]), ("a", "b")), 4.0)
    assert (run_census(ls, hierarchy_1d(1), CensusConfig(n_queries=np.int64(100),
                                                         levels=(np.int64(1),)))
            == run_census(ls, hierarchy_1d(1), CensusConfig(n_queries=100, levels=(1,))))
    assert (bias_variance_probes(ls, hierarchy_1d(1), bootstrap_rounds=np.int64(10),
                                 levels=(np.int64(1),))
            == bias_variance_probes(ls, hierarchy_1d(1), bootstrap_rounds=10, levels=(1,)))


def test_census_report_validation():
    with pytest.raises(InputError):
        CensusReport(level=0, p_data={"a": 0.6, "b": 0.3}, p_gen={"a": 1.0},
                     amplification=0.0, diversity_mean_pairwise=0.0,
                     privacy_knn_distance={}, n_queries=10, failures=0)
    with pytest.raises(InputError):
        CensusReport(level=0, p_data={"a": 1.0}, p_gen={"a": 1.0},
                     amplification=1.5, diversity_mean_pairwise=0.0,
                     privacy_knn_distance={}, n_queries=10, failures=0)


# ---------------------------------------------------------------------------
# run_census
# ---------------------------------------------------------------------------

def test_census_symmetric_two_class():
    ms = MemorySet(np.array([[-1.0], [1.0]]), ("A", "B"))
    ls = EnergyLandscape(ms, 4.0)
    n = 2000
    reports = run_census(ls, hierarchy_1d(2), CensusConfig(n_queries=n, seed=5))
    for r in reports:
        se = math.sqrt(0.25 / n)
        assert abs(r.p_gen["A"] - 0.5) < 3 * se
        assert abs(r.amplification) < 3 * se


def test_census_matches_basin_integration_oracle():
    # dense-grid basin oracle: boundaries from interior maxima, query mass
    # integrated per basin with the Gaussian CDF
    ls = biased_1d_landscape()
    mem = ls.memories
    sigma = 1.5 * mem.radius
    center = float(mem.centroid[0])
    expected = oracles.basin_class_probabilities_1d(
        mem.points.ravel().tolist(), list(mem.labels), ls.beta, center, sigma)
    reports = run_census(ls, hierarchy_1d(1), CensusConfig(
        n_queries=20000, seed=3, levels=(0,)))
    assert abs(reports[0].p_gen["A"] - expected["A"]) < 0.02


def _census_1d_cases():
    """(name, landscape, hierarchy, seed) of every 1-D census the exact
    oracle covers: test_09's 20 one-dimensional landscapes with their
    census seeds, census_biased at seed 7 and the biasvar config's
    landscape at seed 0, each built as the CLI builds it."""
    from test_acceptance import FACTORS, biased_landscape
    for seed in range(20):
        yield (f"test_09 landscape {4000 + seed}", biased_landscape(1, 4000 + seed, 40.0),
               diagonal_hierarchy(FACTORS, 1), seed)
    for name, seed in (("census_biased", 7), ("biasvar", 0)):
        given = json.loads((goldens.ROOT / "configs" / f"{name}.json").read_text())
        params = cli.validate_params(given.pop("experiment"), given)
        ls = cli._build_landscape(params, seed)
        yield f"{name} at seed {seed}", ls, cli._build_hierarchy(params, ls.dim), seed


def test_census_rows_end_in_the_basin_of_their_start_1d(monkeypatch):
    # exact, not statistical. In 1-D a diagonal level's step, read in base
    # coordinates, is x' = (1 - h c^2) x + h c^2 m(x) with m the weighted
    # memory mean, m' = beta Var_w >= 0 and h <= step_size <= 1, so x' is
    # nondecreasing in x and fixes every maximum of E: no iterate crosses
    # one. Each converged row therefore ends at the minimum between the
    # two maxima around its decoded start, and the census classifies it
    # by that minimum's nearest memory. Rows starting within 1e-9 of a
    # maximum, where rounding could tip them, are counted apart (none
    # are). Tanh levels are left out: their step in base coordinates is
    # not of that form, so the argument does not hold there. About 8 s on
    # a 2-core host, half of it in the Gaussian-mass oracle.
    seen = {"flows": [], "nearest": []}
    real_flow, real_nearest = census.flow_chunked, census._nearest_in_blocks

    def flow_chunked(target, starts, *args, **kwargs):
        out, ok = real_flow(target, starts, *args, **kwargs)
        seen["flows"].append((starts, ok))
        return out, ok

    def nearest_in_blocks(*args, **kwargs):
        seen["nearest"].append(real_nearest(*args, **kwargs))
        return seen["nearest"][-1]

    monkeypatch.setattr(census, "flow_chunked", flow_chunked)
    monkeypatch.setattr(census, "_nearest_in_blocks", nearest_in_blocks)
    n, near_maximum, pairs = 5000, 0, 0
    for name, ls, hierarchy, seed in _census_1d_cases():
        mem = ls.memories
        points = mem.points[:, 0]
        maxima, minima = oracles.basins_1d(points, ls.beta)
        assert len(minima) == len(maxima) + 1
        assert np.all(minima[:-1] < maxima) and np.all(maxima < minima[1:])
        minimum_class = mem.class_index[np.abs(minima[:, None] - points).argmin(axis=1)]
        sigma = census.default_query_sigma(mem)
        unit = derive_rng(seed, "census-queries").standard_normal((n, 1))
        for record in seen.values():
            record.clear()
        reports = run_census(ls, hierarchy, CensusConfig(n_queries=n, seed=seed))
        assert len(reports) == hierarchy.levels + 1
        for r, (starts, ok), nearest in zip(reports, seen["flows"], seen["nearest"]):
            lvl = hierarchy.level_energy(ls, r.level)
            assert np.array_equal(starts, np.asarray(lvl.encode(mem.centroid)) + sigma * unit)
            x0 = lvl.decode(starts[ok])[:, 0]
            expected = minimum_class[np.searchsorted(maxima, x0)]
            apart = (np.abs(x0[:, None] - maxima).min(axis=1, initial=np.inf) < 1e-9)
            near_maximum += int(apart.sum())
            wrong = (mem.class_index[nearest] != expected) & ~apart
            assert not wrong.any(), (f"{name}, level {r.level}: {int(wrong.sum())} rows "
                                     "left the basin they started in")
            m_ok = x0.shape[0]
            law = oracles.basin_class_probabilities_1d(
                points, mem.labels, ls.beta, mem.centroid[0],
                hierarchy.factors[r.level] * sigma)
            for i, c in enumerate(mem.classes()):
                assert r.p_gen[c] == float((expected == i).sum()) / m_ok, (name, r.level)
                p = law.get(c, 0.0)
                assert abs(r.p_gen[c] - p) <= 4 * math.sqrt(p * (1 - p) / m_ok), (
                    name, r.level, c, r.p_gen[c], p)
            pairs += 1
    assert pairs == 20 * 5 + 5 + 3
    assert near_maximum == 0


def test_census_single_class_exact():
    ms = MemorySet(np.array([[-1.0], [0.0], [1.0]]), ("only",) * 3)
    ls = EnergyLandscape(ms, 8.0)
    reports = run_census(ls, hierarchy_1d(1), CensusConfig(n_queries=300, seed=0))
    for r in reports:
        assert r.p_gen == {"only": 1.0}
        assert r.amplification == 0.0


def test_census_determinism_across_workers():
    ls = biased_1d_landscape()
    cfg = CensusConfig(n_queries=1500, seed=17)
    a = run_census(ls, hierarchy_1d(3), cfg, workers=1)
    b = run_census(ls, hierarchy_1d(3), cfg, workers=4)
    for ra, rb in zip(a, b):
        assert ra.p_gen == rb.p_gen
        assert ra.diversity_mean_pairwise == rb.diversity_mean_pairwise
        assert ra.privacy_knn_distance == rb.privacy_knn_distance


def test_census_privacy_monotone_in_k_and_level():
    ls = biased_1d_landscape()
    reports = run_census(ls, hierarchy_1d(4), CensusConfig(n_queries=800, seed=2))
    for r in reports:
        d = r.privacy_knn_distance
        assert d[1] <= d[2] <= d[5] <= d[10]
    assert reports[0].privacy_knn_distance[1] < reports[-1].privacy_knn_distance[1]
    assert reports[0].diversity_mean_pairwise < reports[-1].diversity_mean_pairwise


def test_census_failure_rate_invalidates():
    ls = biased_1d_landscape()
    bad = FlowConfig(step_size=1.0, grad_tol=1e-12, max_steps=1)
    with pytest.raises(CensusFailureError):
        run_census(ls, hierarchy_1d(1), CensusConfig(n_queries=200, seed=0), bad)


def test_mean_pairwise_distance_oracle():
    assert _mean_pairwise_distance(np.array([[0.0], [1.0], [3.0]])) == 2.0
    for dim in (1, 2):
        assert _mean_pairwise_distance(np.zeros((0, dim))) == 0.0
        assert _mean_pairwise_distance(np.ones((1, dim))) == 0.0


@pytest.mark.parametrize("m", [2, 1023, 1025, 2049])
@pytest.mark.parametrize("dim", [1, 2, 16])
def test_mean_pairwise_distance_matches_brute_force(m, dim):
    # 1-D closed form, and the upper-triangle pair tiles otherwise; about a
    # quarter of the points are duplicates
    rng = np.random.default_rng(m + dim)
    base = rng.standard_normal((m - m // 4, dim))
    points = base[rng.permutation(np.arange(m) % base.shape[0])]
    total = 0.0
    for i in range(m - 1):
        total += np.linalg.norm(points[i + 1:] - points[i], axis=1).sum()
    want = total / (m * (m - 1) / 2)
    assert abs(_mean_pairwise_distance(points) - want) <= 1e-12 * want


@pytest.mark.parametrize("m", [2, TILE - 1, TILE, TILE + 1, 2 * TILE + 1, CHUNK + 1])
@pytest.mark.parametrize("dim", [2, 7, 8, 16])
def test_mean_pairwise_distance_bits_do_not_depend_on_workers(m, dim):
    # the calling thread adds the tiles' sums in tile order, so threads
    # change only when a tile runs; dims 7 and 8 sit on either side of
    # sqdist's switch between paths
    points = np.random.default_rng(31 * m + dim).standard_normal((m, dim))
    want = _mean_pairwise_distance(points)
    for workers in (2, 3):
        assert _mean_pairwise_distance(points, workers).hex() == want.hex()


@pytest.mark.parametrize("workers", [1, 2])
def test_mean_pairwise_distance_memory_is_bounded_by_a_tile(workers):
    # numpy reports its buffers to tracemalloc. A tile's strip holds two
    # (TILE, m) arrays at once, its thread's result buffer, which also
    # held the tile's (TILE, TILE) square, and sqdist's squares of one
    # coordinate (the sqrt is taken in place); each worker thread runs one
    # tile at a time and keeps one buffer for the walk. Each tile also has
    # a few small Python objects (its bounds, its sum, on a pool its
    # future), allowed 1 KiB. Apart from the tiles, the walk reads one
    # coordinate-major copy of the points. The CHUNK blocks this walk
    # replaced held (CHUNK, CHUNK) temporaries, 8 MB each.
    m = 5000
    points = np.random.default_rng(3).standard_normal((m, 2))
    per_tile = (2 * TILE * m + TILE * TILE) * 8
    objects = 1024 * len(landscape.pair_tiles(m))
    copy = points.nbytes
    tracemalloc.start()
    try:
        _mean_pairwise_distance(points, workers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= workers * per_tile + objects + copy


@pytest.mark.parametrize("m", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 5])
@pytest.mark.parametrize("dim", [2, 16])
def test_privacy_blocks_match_the_serial_loop(m, dim):
    # the calling thread adds the blocks' sums in block order, the order of
    # the one-thread loop, so the pool changes only when a block runs; 3
    # references leave k = 5 and 10 at all of them
    rng = np.random.default_rng(17 * m + dim)
    points = rng.standard_normal((m, dim))
    for n_ref in (3, 40):
        refs = rng.standard_normal((n_ref, dim))
        want = oracles.knn_mean_distances_serial(points, refs)
        for workers in (1, 2, 3):
            got = _knn_mean_distances(points, refs, workers)
            assert list(got) == list(want)
            assert [v.hex() for v in got.values()] == [v.hex() for v in want.values()]


@pytest.mark.parametrize("m", [0, 1, CHUNK, CHUNK + 1, 2 * CHUNK + 5])
def test_classification_blocks_match_one_call(m):
    # tanh decoding and nearest_memory are row-wise, so a block's indices
    # are the whole batch's
    ms = gaussian_blobs(dim=8, class_counts=[30, 10], spread=0.5, seed=2)
    lvl = tanh_hierarchy([0.9, 0.81], dim=8).level_energy(EnergyLandscape(ms, 4.0), 2)
    points = np.random.default_rng(m).standard_normal((m, 8))
    want = lvl.nearest_memory(points)
    for workers in (1, 2, 3):
        assert np.array_equal(_nearest_in_blocks(lvl, points, workers), want)


def test_wide_census_reports_do_not_depend_on_workers():
    # 2500 queries make three CHUNK blocks, the last one partial, for the
    # flows, classification and privacy; 16-D runs sqdist's lane path, and
    # every phase is timed over its own pass
    ms = gaussian_blobs(dim=16, class_counts=[24, 8], spread=0.5, seed=4,
                        center_scale=1.0)
    ls = EnergyLandscape(ms, 4.0)
    hierarchy = diagonal_hierarchy([0.9], dim=16)
    cfg = CensusConfig(n_queries=2500, seed=6)
    assert cfg.n_queries % CHUNK and cfg.n_queries // CHUNK == 2
    want = run_census(ls, hierarchy, cfg, workers=1)
    for r in want:
        assert r.failures == 0
        assert all(t > 0.0 for t in r.phases.values()), r.phases
    for workers in (2, 3):
        got = run_census(ls, hierarchy, cfg, workers=workers)
        assert got == want
        for a, b in zip(got, want):
            assert a.diversity_mean_pairwise.hex() == b.diversity_mean_pairwise.hex()
            assert ([v.hex() for v in a.privacy_knn_distance.values()]
                    == [v.hex() for v in b.privacy_knn_distance.values()])


def test_census_reports_phase_timings_outside_equality():
    ls = biased_1d_landscape()
    cfg = CensusConfig(n_queries=200, seed=1, levels=(0, 2))
    reports = run_census(ls, hierarchy_1d(2), cfg)
    for r in reports:
        assert set(r.phases) == {"flow", "classification", "diversity", "privacy"}
        assert all(t >= 0.0 for t in r.phases.values())
    assert dataclasses.replace(reports[0], phases={}) == reports[0]
    assert run_census(ls, hierarchy_1d(2), cfg) == reports


def test_census_level_selection():
    ls = biased_1d_landscape()
    reports = run_census(ls, hierarchy_1d(4),
                         CensusConfig(n_queries=200, seed=1, levels=(0, 2)))
    assert [r.level for r in reports] == [0, 2]
    with pytest.raises(InputError):
        run_census(ls, hierarchy_1d(2),
                   CensusConfig(n_queries=200, seed=1, levels=(9,)))


# ---------------------------------------------------------------------------
# Trends across levels
# ---------------------------------------------------------------------------

def test_sweep_amplification_and_diversity_rise():
    ls = biased_1d_landscape()
    reports = run_census(ls, hierarchy_1d(4), CensusConfig(n_queries=4000, seed=23))
    amps = [r.amplification for r in reports]
    divs = [r.diversity_mean_pairwise for r in reports]
    assert all(b > a for a, b in zip(amps, amps[1:])), amps
    assert all(b > a for a, b in zip(divs, divs[1:])), divs


def test_sweep_balanced_control_flat():
    # mirror-symmetric classes: true amplification is exactly zero
    pts = np.array([[-1.2], [-1.0], [-0.8], [0.8], [1.0], [1.2]])
    ms = MemorySet(pts, ("A",) * 3 + ("B",) * 3)
    ls = EnergyLandscape(ms, 30.0)
    n = 4000
    reports = run_census(ls, hierarchy_1d(4), CensusConfig(n_queries=n, seed=29))
    for r in reports:
        assert abs(r.amplification) < 3 * math.sqrt(0.25 / n)


# ---------------------------------------------------------------------------
# bias_variance_probes
# ---------------------------------------------------------------------------

def test_biasvar_zero_when_resampling_cannot_move_basins():
    # one memory per class: stratified resampling is the identity, and with
    # a tiny probe scale every probe stays in its own sharp basin
    ms = MemorySet(np.array([[-1.0], [1.0]]), ("a", "b"))
    ls = EnergyLandscape(ms, 12.0)
    rows = bias_variance_probes(ls, hierarchy_1d(2), seed=7, probe_sigma=1e-9,
                                bootstrap_rounds=12)
    for r in rows:
        assert r["bias_per_class"] == {"a": 0.0, "b": 0.0}
        assert r["variance_mean"] == 0.0


def test_biasvar_single_memory_exact_zero():
    ms = MemorySet(np.array([[0.5]]), ("only",))
    ls = EnergyLandscape(ms, 5.0)
    rows = bias_variance_probes(ls, hierarchy_1d(1), seed=7, probe_sigma=1e-9,
                                bootstrap_rounds=12)
    for r in rows:
        assert r["bias_per_class"] == {"only": 0.0}
        assert r["variance_mean"] == 0.0


def test_biasvar_nonstratified_two_memory_enumeration():
    # exact enumeration of the 4 equally likely bootstrap multisets of size 2:
    # {11}, {12}, {21}, {22}; the midpoint-free probes sit on their own
    # memories, so the resample alone decides the basin class.
    # Expected: each probe flips with probability 1/4, bias cancels to 0 and
    # variance is mean(2 p (1-p)) = 3/8.
    ms = MemorySet(np.array([[0.0], [1.0]]), ("a", "b"))
    ls = EnergyLandscape(ms, 12.0)
    rows = bias_variance_probes(ls, hierarchy_1d(1), seed=13, probe_sigma=1e-9,
                                bootstrap_rounds=600, stratified=False)
    for r in rows:
        assert r["bias_per_class"]["a"] == pytest.approx(0.0, abs=0.06)
        assert r["bias_per_class"]["b"] == pytest.approx(0.0, abs=0.06)
        assert r["variance_mean"] == pytest.approx(3.0 / 8.0, abs=0.06)


def test_biasvar_stratified_three_memory_enumeration():
    # class a = {-1.0, 0.2}, class b = {1.0}; stratified resampling draws the
    # a-pair with replacement (4 equally likely multisets), b is fixed.
    # Only the multiset {a1, a1} moves the probe at 0.2 into b's basin
    # (weighted boundary at ln2 / (2 beta) < 0.2), so that probe flips with
    # probability 1/4: bias = (-1/12, +1/12), variance = (3/8) / 3 = 1/8.
    ms = MemorySet(np.array([[-1.0], [0.2], [1.0]]), ("a", "a", "b"))
    ls = EnergyLandscape(ms, 12.0)
    rows = bias_variance_probes(ls, hierarchy_1d(1), seed=19, probe_sigma=1e-9,
                                bootstrap_rounds=600, stratified=True)
    for r in rows:
        assert r["bias_per_class"]["a"] == pytest.approx(-1.0 / 12.0, abs=0.03)
        assert r["bias_per_class"]["b"] == pytest.approx(+1.0 / 12.0, abs=0.03)
        assert r["variance_mean"] == pytest.approx(1.0 / 8.0, abs=0.02)


def test_biasvar_rounds_validation():
    ls = biased_1d_landscape()
    with pytest.raises(InputError, match="bootstrap_rounds"):
        bias_variance_probes(ls, hierarchy_1d(1), seed=0, bootstrap_rounds=5)


def test_biasvar_deterministic():
    ms = MemorySet(np.array([[-1.0], [0.2], [1.0]]), ("a", "a", "b"))
    ls = EnergyLandscape(ms, 12.0)
    kwargs = {"seed": 3, "probe_sigma": 0.01, "bootstrap_rounds": 15}
    a = bias_variance_probes(ls, hierarchy_1d(2), **kwargs)
    b = bias_variance_probes(ls, hierarchy_1d(2), **kwargs, workers=3)
    assert a == b


def test_biasvar_fails_before_running_every_round(monkeypatch):
    # the CLI's tanh config whose memories partly lie outside the decoder
    # range: flows toward them cannot converge, so the run is rejected
    # once failures pass 1 % of the planned flows. Each level flows all
    # rounds as one batch, so level 1 passes the budget and level 2,
    # the one after it, never flows
    ms = gaussian_blobs(dim=2, class_counts=[6, 2], spread=0.2,
                        seed=derive_seed(0, "landscape"), center_scale=1.0,
                        labels=["c0", "c1"])
    ls = EnergyLandscape(ms, 10.0)
    hierarchy = tanh_hierarchy([0.9, 0.81], dim=2)
    rounds = 50
    flow_cfg = FlowConfig(step_size=1.0, grad_tol=1e-5, max_steps=500)
    flowed = {}
    real = dynamics.flow_batch

    def counting(target, starts, *args, **kwargs):
        level = target.lvl.level
        flowed[level] = flowed.get(level, 0) + starts.shape[0]
        return real(target, starts, *args, **kwargs)

    monkeypatch.setattr(dynamics, "flow_batch", counting)
    with pytest.raises(CensusFailureError, match="decoder range"):
        bias_variance_probes(ls, hierarchy, flow_cfg, seed=0, bootstrap_rounds=rounds)
    assert set(flowed) == {0, 1}
    assert sum(flowed.values()) < rounds * (hierarchy.levels + 1) * ms.n


def test_biasvar_flows_each_level_in_chunks(monkeypatch):
    # every round of a level flows in one chunked batch: the flow_batch
    # calls are bounded by the chunks, not by rounds x levels
    ls = biased_1d_landscape(12.0)
    hierarchy = hierarchy_1d(1)
    rounds = 120
    calls = []
    real = dynamics.flow_batch

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(dynamics, "flow_batch", counting)
    bias_variance_probes(ls, hierarchy, seed=0, bootstrap_rounds=rounds)
    levels = hierarchy.levels + 1
    assert rounds * ls.memories.n > CHUNK
    assert len(calls) <= levels * math.ceil(rounds * ls.memories.n / CHUNK)


def failing_tanh_census():
    """(landscape, hierarchy, census config, flow config) of a census whose
    level 1 fails: 3 of its 8 memories lie outside the decoder's range."""
    ms = gaussian_blobs(dim=2, class_counts=[6, 2], spread=0.2,
                        seed=derive_seed(0, "landscape"), center_scale=1.0,
                        labels=["c0", "c1"])
    return (EnergyLandscape(ms, 10.0), tanh_hierarchy([0.9, 0.81], dim=2),
            CensusConfig(n_queries=5000, seed=0),
            FlowConfig(step_size=1.0, grad_tol=1e-5, max_steps=500))


def test_census_fails_after_the_chunk_that_passes_the_budget(monkeypatch):
    # level 1 fails, and at its failure rate the 1 % budget is passed
    # within the first chunk, CHUNK rows, so the level's other chunks
    # never run; results are checked in chunk order, so the count in the
    # message does not depend on the worker count
    ls, hierarchy, cfg, flow_cfg = failing_tanh_census()
    bounds = flow_bounds(cfg.n_queries, ls.memories.n, ls.dim)
    assert bounds[0] == (0, CHUNK) and len(bounds) > 1
    calls = []
    real = dynamics.flow_batch

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(dynamics, "flow_batch", counting)
    messages = []
    for workers in (1, 2):
        with pytest.raises(CensusFailureError, match="decoder range") as err:
            run_census(ls, hierarchy, cfg, flow_cfg, workers=workers)
        messages.append(str(err.value))
        if workers == 1:
            # level 0 passes in full, level 1 stops after its first chunk
            assert len(calls) == len(bounds) + 1
    assert messages[0] == messages[1]
    assert messages[0].startswith("level 1: ") and f"/{CHUNK} flows" in messages[0]


# ---------------------------------------------------------------------------
# Flow chunk schedules: a row's result does not depend on its chunk
# ---------------------------------------------------------------------------

def on_chunk_rows(monkeypatch, fn):
    """fn() with flow_chunked cutting every batch into CHUNK-row chunks."""
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "flow_bounds", lambda m, n, d: landscape.chunk_bounds(m))
        return fn()


@pytest.mark.parametrize("dim, beta", [(1, 40.0), (2, 30.0)])
def test_census_reports_do_not_depend_on_the_flow_schedule(monkeypatch, dim, beta):
    # a 90/10 set of 10 memories, levels 0-4: the 3000 queries flow in two
    # chunks, against three on CHUNK rows
    ms = gaussian_blobs(dim=dim, class_counts=[9, 1], spread=0.3, seed=4000 + dim,
                        center_scale=1.0, labels=["maj", "min"])
    ls = EnergyLandscape(ms, beta)
    hierarchy = diagonal_hierarchy([0.9 ** a for a in range(1, 5)], dim=dim)
    cfg = CensusConfig(n_queries=3000, seed=11)
    assert len(flow_bounds(3000, ms.n, dim)) == 2
    for workers in (1, 2):
        reports = run_census(ls, hierarchy, cfg, workers=workers)
        assert [r.level for r in reports] == [0, 1, 2, 3, 4]
        assert reports == on_chunk_rows(
            monkeypatch, lambda: run_census(ls, hierarchy, cfg, workers=workers))


def test_biasvar_results_do_not_depend_on_the_flow_schedule(monkeypatch):
    # 300 rounds of 10 probes: each level's 3000 rows flow in two chunks
    # sized by all 10 memories, against three on CHUNK rows
    ls = biased_1d_landscape(12.0)
    hierarchy = hierarchy_1d(2)
    assert len(flow_bounds(3000, ls.memories.n, 1)) == 2
    for workers in (1, 2):
        def probes():
            return bias_variance_probes(ls, hierarchy, seed=3, bootstrap_rounds=300,
                                        workers=workers)
        assert probes() == on_chunk_rows(monkeypatch, probes)


def test_failing_census_message_does_not_depend_on_the_flow_schedule(monkeypatch):
    # the failing tanh census stops after level 1's first chunk, CHUNK
    # rows on either schedule, with the same message
    ls, hierarchy, cfg, flow_cfg = failing_tanh_census()

    def message(workers):
        with pytest.raises(CensusFailureError) as err:
            run_census(ls, hierarchy, cfg, flow_cfg, workers=workers)
        return str(err.value)

    expected = message(1)
    for workers in (1, 2):
        assert on_chunk_rows(monkeypatch, partial(message, workers)) == expected


# ---------------------------------------------------------------------------
# The bootstrap rounds' one-pass evaluator
# ---------------------------------------------------------------------------

def bootstrap_log_counts(ms, rounds, seed, stratified=True):
    """The (rounds, n) log-count rows bias_variance_probes draws."""
    return np.array([census._bootstrap_log_counts(ms, derive_rng(seed, "bootstrap", b),
                                                  stratified)
                     for b in range(rounds)])


def round_blocks(dim, class_counts, decoder, level, rounds, seed=0):
    """A level's bootstrap rounds, as bias_variance_probes flows them: the
    one-pass _Rounds and the KeyedEvaluators of the same rounds' own
    LevelEnergy evaluators, each on the full memory set with its round's
    log-count offsets, each row's round, the stacked probes with three NaN
    rows, and the rounds' subset sizes."""
    ms = gaussian_blobs(dim=dim, class_counts=class_counts, spread=0.3, seed=seed,
                        center_scale=0.5)
    ls = EnergyLandscape(ms, 12.0)
    hierarchy = decoder([0.9, 0.81], dim=dim)
    log_counts = bootstrap_log_counts(ms, rounds, seed)
    lvls = [hierarchy.level_energy(oracles.ResampledLandscape(ls.memories, ls.beta,
                                                               log_counts=row), level)
            for row in log_counts]
    block = np.repeat(np.arange(rounds), ms.n)
    probes = ms.points + 0.4 * np.random.default_rng(seed).standard_normal(ms.points.shape)
    starts = np.tile(np.asarray(hierarchy.decoders[level].encode(probes)), (rounds, 1))
    starts[[0, starts.shape[0] // 2, -1]] = np.nan
    sizes = set(np.isfinite(log_counts).sum(axis=1).tolist())
    return (census._Rounds(hierarchy.level_energy(ls, level), log_counts),
            oracles.KeyedEvaluators(lvls), block, starts, sizes)


ROUND_CASES = {
    # (dim, class_counts, decoder, level, rounds)
    "d1-diag-small": (1, [4, 2], diagonal_hierarchy, 1, 12),
    "d1-tanh-large": (1, [12, 8], tanh_hierarchy, 1, 6),
    "d2-tanh-small": (2, [5, 3], tanh_hierarchy, 2, 10),
    "d2-diag-straddles-chunk": (2, [6, 4], diagonal_hierarchy, 1, 105),
    "d8-diag-large": (8, [10, 6], diagonal_hierarchy, 0, 8),
    "d16-tanh-large": (16, [12, 8], tanh_hierarchy, 1, 4),
    # 180 rows against 6 memories: the padded path's memory-major scores
    "d2-diag-small-major": (2, [4, 2], diagonal_hierarchy, 1, 30),
}


@pytest.mark.parametrize("name", ROUND_CASES)
def test_round_blocks_give_each_row_its_rounds_bits(name):
    # every flow output of the one-pass evaluator equals, bit for bit, that
    # of KeyedEvaluators, which calls each row's own round's evaluator: the
    # full landscape with the round's offsets, below 8 memories and from 8 on
    dim, class_counts, decoder, level, rounds = ROUND_CASES[name]
    one_pass, per_round, block, starts, sizes = round_blocks(dim, class_counts, decoder,
                                                             level, rounds)
    if "small" in name:
        assert max(sizes) < 8
    if "large" in name:
        assert min(sizes) >= 8
    if "major" in name:
        assert starts.shape[0] >= landscape._MAJOR_ROWS + 8 * sum(class_counts)
    if "straddles" in name:
        # the first chunk ends inside a round
        assert starts.shape[0] > CHUNK and CHUNK % sum(class_counts)
    cfg = FlowConfig(step_size=1.0, grad_tol=1e-5, max_steps=150)
    for workers in (1, 2):
        out, ok = dynamics.flow_chunked(one_pass, starts, cfg, workers, keys=block)
        expected, expected_ok = dynamics.flow_chunked(per_round, starts, cfg, workers,
                                                      keys=block)
        assert ok.any() and out["failed"].sum() == 3
        assert np.array_equal(ok, expected_ok)
        for key in expected:
            assert np.array_equal(out[key], expected[key], equal_nan=True), key


# (memories, dim, rows): numpy sums fewer than 8 memories left to right and
# 8 or more pairwise, in both score layouts (rows on both sides of
# _MAJOR_ROWS + 8 n)
MULTISET_CASES = [(n, dim, landscape._MAJOR_ROWS + 8 * n + side)
                  for n in (*range(1, 9), 12) for dim in (1, 2, 5) for side in (-1, 0)]


@pytest.mark.parametrize("n, dim, rows", MULTISET_CASES,
                         ids=[f"n{n}-d{dim}-rows{rows}" for n, dim, rows in MULTISET_CASES])
def test_multiset_energy_grad_equals_each_rows_own_landscape(n, dim, rows):
    # rows of mixed multiset sizes, one evaluation: each row's energy and
    # gradient are those of the full landscape with its own round's
    # offsets, for a round that drew a single memory and for a NaN row too
    ms = gaussian_blobs(dim=dim, class_counts=[n], spread=0.3, seed=n, center_scale=0.5)
    ls = EnergyLandscape(ms, 12.0)
    rows_of = np.full((6, n), -np.inf)
    rows_of[:5] = bootstrap_log_counts(ms, 5, 2, stratified=False)
    rows_of[5, n // 2] = np.log(float(n))
    rounds = [oracles.ResampledLandscape(ms, ls.beta, log_counts=row) for row in rows_of]
    if n > 2:
        assert len(set(np.isfinite(rows_of).sum(axis=1).tolist())) > 2
    x = ms.centroid + np.random.default_rng(3).standard_normal((rows, dim))
    x[rows // 2] = np.nan
    which = np.arange(rows) % len(rounds)
    e, g = ls.energy_grad(x, log_counts=rows_of[which])
    for b, r in enumerate(rounds):
        own_e, own_g = r.energy_grad(x[which == b])
        assert np.array_equal(e[which == b], own_e, equal_nan=True)
        assert np.array_equal(g[which == b], own_g, equal_nan=True)


@pytest.mark.parametrize("n, dim", [(8, 1), (9, 2), (12, 5), (40, 1), (40, 2), (40, 16)])
def test_drawn_only_landscapes_agree_within_summation_order(n, dim):
    # a landscape of a round's drawn memories alone has each row's drawn
    # scores, max and exps bit for bit; only its sums over the memories
    # run in another order, pairwise without the undrawn zeros from 8
    # memories on. Each sum of at most n non-negative terms is within
    # (n - 1) eps/2 of exact, so log z moves by at most about n eps, and
    # m + log z, its log and the division by beta round by eps/2 of
    # beta |e| each: |de| <= eps (2 n / beta + 4 |e|). The weights then move
    # by n eps, their sum by n eps/2 of the memories' scale M, and x - mean
    # rounds once: |dg| <= eps (2 n M + |g|). Absolute bounds: near a memory
    # the energy cancels, and its relative gap can be hundreds of ulp
    ms = gaussian_blobs(dim=dim, class_counts=[n], spread=0.3, seed=n, center_scale=0.5)
    ls = EnergyLandscape(ms, 12.0)
    rows_of = bootstrap_log_counts(ms, 6, 4, stratified=False)
    rng = np.random.default_rng(n)
    rows = landscape._MAJOR_ROWS + 8 * n + 50
    x = ms.points[rng.integers(0, n, rows)] + (10.0 ** rng.uniform(-9, 0, (rows, 1))
                                               * rng.standard_normal((rows, dim)))
    which = np.arange(rows) % len(rows_of)
    e, g = ls.energy_grad(x, log_counts=rows_of[which])
    eps = np.finfo(float).eps
    scale = np.abs(ms.points).max(axis=0)
    for b, row in enumerate(rows_of):
        own_e, own_g = oracles.round_landscape(ls, row).energy_grad(x[which == b])
        assert np.all(np.abs(e[which == b] - own_e)
                      <= eps * (2 * n / ls.beta + 4 * np.abs(own_e)))
        assert np.all(np.abs(g[which == b] - own_g) <= eps * (2 * n * scale + np.abs(own_g)))


def test_one_pass_classification_equals_each_rounds_nearest_memory():
    # every round's terminals classify at once through _Rounds.nearest_memory,
    # in _nearest_in_blocks' CHUNK-row blocks at workers 1 and 2; each row's
    # memory is the one its round's LevelEnergy.nearest_memory names, over
    # more than one CHUNK of rows
    ms = gaussian_blobs(dim=2, class_counts=[6, 4], spread=0.3, seed=5, center_scale=0.5)
    ls = EnergyLandscape(ms, 12.0)
    hierarchy = tanh_hierarchy([0.9], dim=2)
    log_counts = bootstrap_log_counts(ms, 12, 5)
    rounds = [oracles.round_landscape(ls, row) for row in log_counts]
    z = np.random.default_rng(6).standard_normal((CHUNK + 50, 2))
    which = np.arange(z.shape[0]) % len(rounds)
    for workers in (1, 2):
        for a in (0, 1):
            one_pass = census._Rounds(hierarchy.level_energy(ls, a), log_counts)
            got = _nearest_in_blocks(one_pass, z, workers, keys=which)
            for b, r in enumerate(rounds):
                lvl = hierarchy.level_energy(r, a)
                assert np.array_equal(got[which == b],
                                      r.drawn[lvl.nearest_memory(z[which == b])])
    # equidistant memories: the tie goes to the lower index the round drew
    ms = MemorySet(np.array([[-1.0], [1.0], [3.0]]), ("a", "b", "b"))
    log_counts = np.array([[0.0, 0.0, -np.inf], [-np.inf, 0.0, 0.0]])
    one_pass = census._Rounds(hierarchy_1d(1).level_energy(EnergyLandscape(ms, 1.0), 0),
                              log_counts)
    z = np.array([[0.0], [2.0], [0.0], [2.0]])
    for workers in (1, 2):
        got = _nearest_in_blocks(one_pass, z, workers, keys=np.array([0, 0, 1, 1]))
        assert got.tolist() == [0, 1, 1, 1]


def test_bootstrap_flows_take_one_score_pass_per_evaluation(monkeypatch):
    # each evaluation of a level's rows is one sqdist and one softmax, also
    # over rows of distinct subset sizes: one call of the level's evaluator
    # with every row's own offsets, never a per-round evaluator call
    ls = EnergyLandscape(gaussian_blobs(dim=2, class_counts=[6, 4], spread=0.3, seed=1,
                                        center_scale=0.5), 12.0)
    calls = {"sqdist": 0, "_softmax": 0}
    for name in calls:
        real = getattr(landscape, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(landscape, name, counted)
    per_call = []
    real_energy_grad = census._Rounds.energy_grad

    def logged(evaluator, z, rounds):
        before = dict(calls)
        out = real_energy_grad(evaluator, z, rounds)
        sizes = set(np.isfinite(evaluator.log_counts[rounds]).sum(axis=1).tolist())
        per_call.append((calls["sqdist"] - before["sqdist"],
                         calls["_softmax"] - before["_softmax"], len(sizes)))
        return out

    level_calls = []
    real_level_energy_grad = LevelEnergy.energy_grad

    def level_call(level, z, *, log_counts=None):
        level_calls.append(log_counts is not None and len(log_counts) == len(z))
        return real_level_energy_grad(level, z, log_counts=log_counts)

    monkeypatch.setattr(census._Rounds, "energy_grad", logged)
    monkeypatch.setattr(LevelEnergy, "energy_grad", level_call)
    bias_variance_probes(ls, diagonal_hierarchy([0.9], dim=2), seed=0, bootstrap_rounds=20)
    assert len(per_call) > 20
    assert level_calls == [True] * len(per_call)
    assert any(distinct > 1 for _, _, distinct in per_call)
    for sqdist_calls, softmax_calls, distinct in per_call:
        assert sqdist_calls == 1 and softmax_calls == 1


def test_biasvar_builds_no_per_round_landscape(monkeypatch):
    # each round is a row of log-counts, so once called, a 20-round,
    # 2-level run constructs no MemorySet or EnergyLandscape, and one
    # LevelEnergy per level
    ls = EnergyLandscape(gaussian_blobs(dim=2, class_counts=[6, 4], spread=0.3, seed=1,
                                        center_scale=0.5), 12.0)
    hierarchy = diagonal_hierarchy([0.9], dim=2)
    built = Counter()
    for cls in (MemorySet, EnergyLandscape, LevelEnergy):
        def counting(self, *args, _cls=cls, _real=cls.__init__, **kwargs):
            built[_cls.__name__] += 1
            _real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    results = bias_variance_probes(ls, hierarchy, seed=0, bootstrap_rounds=20)
    assert [r["level"] for r in results] == [0, 1]
    assert built == Counter(LevelEnergy=2), built
