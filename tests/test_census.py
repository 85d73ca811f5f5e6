import math

import numpy as np
import pytest

import oracles
from landscape_lab import census
from landscape_lab._seeds import derive_seed
from landscape_lab.abstraction import diagonal_hierarchy, tanh_hierarchy
from landscape_lab.census import (
    CensusConfig,
    CensusReport,
    _mean_pairwise_distance,
    bias_variance_probes,
    run_census,
)
from landscape_lab.dynamics import FlowConfig
from landscape_lab.errors import CensusFailureError, InputError
from landscape_lab.landscape import EnergyLandscape, MemorySet, gaussian_blobs


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
    # 1-D closed form, and diagonal/off-diagonal CHUNK blocks otherwise;
    # about a quarter of the points are duplicates
    rng = np.random.default_rng(m + dim)
    base = rng.standard_normal((m - m // 4, dim))
    points = base[rng.permutation(np.arange(m) % base.shape[0])]
    total = 0.0
    for i in range(m - 1):
        total += np.linalg.norm(points[i + 1:] - points[i], axis=1).sum()
    want = total / (m * (m - 1) / 2)
    assert abs(_mean_pairwise_distance(points) - want) <= 1e-12 * want


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
    # once failures pass 1 % of the planned flows, not after all rounds
    ms = gaussian_blobs(dim=2, class_counts=[6, 2], spread=0.2,
                        seed=derive_seed(0, "landscape"), center_scale=1.0,
                        labels=["c0", "c1"])
    ls = EnergyLandscape(ms, 10.0)
    hierarchy = tanh_hierarchy([0.9, 0.81], dim=2)
    rounds = 50
    flow_cfg = FlowConfig(step_size=1.0, grad_tol=1e-5, max_steps=500)
    calls = []
    real = census._chunked_flow

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(census, "_chunked_flow", counting)
    with pytest.raises(CensusFailureError, match="decoder range"):
        bias_variance_probes(ls, hierarchy, flow_cfg, seed=0, bootstrap_rounds=rounds)
    assert len(calls) < rounds * (hierarchy.levels + 1)


def test_census_fails_after_the_chunk_that_passes_the_budget(monkeypatch):
    # the same tanh config: level 1 fails, and at its failure rate the 1 %
    # budget is passed within the first CHUNK rows, so the level's other
    # chunks never run; results are checked in chunk order, so the count
    # in the message does not depend on the worker count
    ms = gaussian_blobs(dim=2, class_counts=[6, 2], spread=0.2,
                        seed=derive_seed(0, "landscape"), center_scale=1.0,
                        labels=["c0", "c1"])
    ls = EnergyLandscape(ms, 10.0)
    hierarchy = tanh_hierarchy([0.9, 0.81], dim=2)
    cfg = CensusConfig(n_queries=5000, seed=0)
    flow_cfg = FlowConfig(step_size=1.0, grad_tol=1e-5, max_steps=500)
    chunks = -(-cfg.n_queries // census.CHUNK)
    calls = []
    real = census.flow_batch

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(census, "flow_batch", counting)
    messages = []
    for workers in (1, 2):
        with pytest.raises(CensusFailureError, match="decoder range") as err:
            run_census(ls, hierarchy, cfg, flow_cfg, workers=workers)
        messages.append(str(err.value))
        if workers == 1:
            # level 0 passes in full, level 1 stops after its first chunk
            assert len(calls) == chunks + 1
    assert messages[0] == messages[1]
    assert messages[0].startswith("level 1: ") and f"/{census.CHUNK} flows" in messages[0]
