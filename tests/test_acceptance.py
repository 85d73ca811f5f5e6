"""Acceptance suite: one test per release criterion.

Run with `pytest tests/test_acceptance.py -v -s` to get one pass/fail line
per criterion (printed lines carry the wall time; pytest -v echoes the
verdict per test). Criteria with stated runtime budgets assert them.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

import oracles
from landscape_lab.abstraction import (
    diagonal_hierarchy,
    jacobian_norm_probe,
    smoothness_report,
    tanh_hierarchy,
)
from landscape_lab.census import CensusConfig, run_census
from landscape_lab.cli import main as cli_main
from landscape_lab.dynamics import FlowConfig, find_minima, flow, flow_batch
from landscape_lab.gridsim import coarsen, init_grid
from landscape_lab.knn import knn_predict, soft_knn_predict
from landscape_lab.landscape import EnergyLandscape, MemorySet
from landscape_lab.oddsmodel import MergeScenario, simulate_merge, smoothed_odds


def _report(name, t0):
    print(f"[acceptance] {name}: PASS ({time.monotonic() - t0:.1f}s)")


def random_2d_landscape(seed, n=10, beta=4.0):
    pts = np.random.default_rng(seed).normal(size=(n, 2))
    return EnergyLandscape(MemorySet(pts, tuple(range(n))), beta)


def biased_landscape(dim, seed, beta):
    # 90/10 mix with guaranteed class separation: a spread-out majority
    # cluster and a tight minority blob at distance ~1.4-1.8
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    center_min = (1.4 + 0.4 * rng.random()) * direction
    pts = np.concatenate([
        0.3 * rng.standard_normal((9, dim)),
        center_min + 0.08 * rng.standard_normal((1, dim)),
    ])
    return EnergyLandscape(MemorySet(pts, ("maj",) * 9 + ("min",)), beta)


FACTORS = [0.9 ** a for a in range(1, 5)]


def test_01_smoothness_strictly_decreasing_all_seeds():
    t0 = time.monotonic()
    for seed in range(20):
        ls = random_2d_landscape(seed)
        reports = smoothness_report(diagonal_hierarchy(FACTORS, 2), ls,
                                    probes=256, seed=seed)
        hn = [r.hessian_norm_est for r in reports]
        le = [r.lipschitz_est for r in reports]
        assert all(b < a for a, b in zip(hn, hn[1:])), f"seed {seed}: {hn}"
        assert all(b < a for a, b in zip(le, le[1:])), f"seed {seed}: {le}"
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"runtime budget exceeded: {elapsed:.1f}s"
    _report("smoothness decays strictly across levels (20/20)", t0)


def test_02_jacobian_probe_decreasing_both_families():
    t0 = time.monotonic()
    for seed in range(20):
        diag = diagonal_hierarchy(FACTORS, 2)
        vals = [jacobian_norm_probe(diag, a, probes=32, seed=seed)
                for a in range(diag.levels + 1)]
        assert all(b < a for a, b in zip(vals, vals[1:])), vals
        for a, c in enumerate((1.0, *FACTORS)):
            assert abs(vals[a] - c) < 1e-4
        squash = tanh_hierarchy(FACTORS, 2)
        vals = [jacobian_norm_probe(squash, a, probes=32, seed=seed)
                for a in range(squash.levels + 1)]
        assert all(b < a for a, b in zip(vals, vals[1:])), vals
    _report("decoder Jacobian norms decay strictly, diagonal matches factors", t0)


def test_03_gradient_matches_finite_differences():
    t0 = time.monotonic()
    for d in (1, 2, 4, 8):
        for seed in range(5):
            rng = np.random.default_rng(1000 * d + seed)
            pts = rng.normal(size=(8, d))
            ls = EnergyLandscape(MemorySet(pts, tuple(range(8))),
                                 float(rng.uniform(0.5, 8.0)))
            xs = ls.memories.centroid + rng.normal(size=(100, d))
            grads = ls.grad(xs)
            for x, g in zip(xs, grads):
                fd = oracles.central_diff_gradient(ls.energy, x)
                denom = max(float(np.linalg.norm(g)), 1e-10)
                assert np.linalg.norm(fd - g) / denom < 1e-5
    _report("analytic gradients match central differences (rel < 1e-5)", t0)


def test_04_flow_fixed_point_identity_and_descent():
    t0 = time.monotonic()
    cfg = FlowConfig(step_size=1.0, grad_tol=1e-8, max_steps=10000)
    for seed in range(5):
        ls = random_2d_landscape(seed, beta=4.0)
        starts = ls.memories.centroid + np.random.default_rng(seed).normal(size=(40, 2)) * 2
        out = flow_batch(ls, starts, cfg)
        terminals = out["terminals"][out["converged"]]
        assert terminals.shape[0] > 0
        w = ls.weights(terminals)
        attended = (w[..., :, None] * ls.memories.points).sum(axis=-2)
        residual = np.sqrt(((terminals - attended) ** 2).sum(axis=1))
        assert (residual < 10 * cfg.grad_tol).all()
        for q in starts[:5]:
            res = flow(ls, q, cfg, record_trajectory=True)
            assert (np.diff(res.energies) <= 1e-12).all()
    _report("terminals satisfy the fixed-point identity; energy never rises", t0)


def test_05_merging_regime_matches_1d_oracle():
    t0 = time.monotonic()
    cfg = FlowConfig(step_size=1.0, grad_tol=1e-8, max_steps=10000)
    starts = np.linspace(-2.0, 2.0, 40)[:, None]
    sharp = EnergyLandscape(MemorySet(np.array([[-1.0], [1.0]]), ("a", "b")), 4.0)
    merged = EnergyLandscape(MemorySet(np.array([[-1.0], [1.0]]), ("a", "b")), 0.5)
    found_sharp = find_minima(sharp, starts, cfg, dedup_radius=0.2)
    found_merged = find_minima(merged, starts, cfg, dedup_radius=0.2)
    assert len(found_sharp) == 2
    assert len(found_merged) == 1
    oracle_sharp = sorted(oracles.minima_1d([-1.0, 1.0], 4.0))
    oracle_merged = oracles.minima_1d([-1.0, 1.0], 0.5)
    assert len(oracle_sharp) == 2 and len(oracle_merged) == 1
    for got, expect in zip(sorted(m[0] for m in found_sharp), oracle_sharp):
        assert abs(got - expect) < 0.05
    assert abs(found_merged[0][0] - oracle_merged[0]) < 0.05
    _report("two minima at beta 4, one merged minimum at beta 0.5 (1d oracle)", t0)


def test_06_grid_coarsening_matches_enumeration():
    t0 = time.monotonic()
    # frozen from the 16-configuration enumeration (the map
    # p^4 + 4p^3(1-p) + 3p^2(1-p)^2); note 0.8960 at p = 0.8
    expected_table = {0.5: 0.5, 0.6: 0.648, 0.7: 0.7840, 0.8: 0.8960, 0.9: 0.9720}
    for p, frozen in expected_table.items():
        m = oracles.coarse_share_enumeration(p)   # re-derived from 16 configs
        assert m == pytest.approx(frozen, abs=5e-5)
    for seed, p in enumerate((0.5, 0.6, 0.7, 0.8, 0.9)):
        grid = init_grid(512, p, seed=seed)
        out = coarsen(grid, seed=seed + 100)
        m = oracles.coarse_share_enumeration(p)
        se = math.sqrt(m * (1 - m) / out.side ** 2)
        assert abs(out.red_share - m) < 3 * se, (p, out.red_share, m)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"runtime budget exceeded: {elapsed:.1f}s"
    _report("one coarsening step tracks the 16-configuration map (3 sigma)", t0)


def test_07_merge_odds_match_powers():
    t0 = time.monotonic()
    pa, pb, mixed = oracles.merge_outcome_enumeration(2, 1, 2)
    assert (pa, pb, mixed) == (pytest.approx(4 / 9), pytest.approx(1 / 9),
                               pytest.approx(4 / 9))
    for p, q, s in ((2, 1, 2), (3, 1, 3), (3, 2, 4)):
        scenario = MergeScenario(p, q, s)
        counts = simulate_merge(scenario, 1_000_000, seed=10 * p + q + s)
        target = smoothed_odds(scenario)
        rel = abs(counts.conditional_odds() - target) / target
        assert rel < 0.05, (p, q, s, counts.conditional_odds(), target)
    _report("conditional merge odds converge to the feature-power law", t0)


def test_08_soft_knn_limits_and_hard_oracle():
    t0 = time.monotonic()
    for seed in range(50):
        rng = np.random.default_rng(3000 + seed)
        pts = rng.normal(size=(9, 2))
        numeric = tuple(float(v) for v in rng.integers(-3, 4, size=9))
        ms = MemorySet(pts, numeric)
        q = rng.normal(size=2)
        hot, _ = soft_knn_predict(ms, q, tau=1e8)
        assert hot == pytest.approx(np.mean(numeric), abs=1e-6)
        cold, _ = soft_knn_predict(ms, q, tau=1e-8)
        d2 = ((pts - q) ** 2).sum(axis=1)
        assert cold == numeric[int(np.argsort(d2, kind="stable")[0])]
        # brute-force oracle: exact neighbor sets; powers-of-two k keep the
        # numeric mean bit-exact, categorical probabilities are exact anyway
        for k in (1, 2, 4, 8):
            assert knn_predict(ms, q, k) == oracles.knn_bruteforce(pts, numeric, q, k)
        cats = tuple(rng.choice(["a", "b", "c"], size=9))
        ms_cat = MemorySet(pts, cats)
        for k in (1, 3, 7, 9):
            got = knn_predict(ms_cat, q, k)
            assert {c: v for c, v in got.items() if v > 0} \
                == oracles.knn_bruteforce(pts, cats, q, k)
    _report("soft predictor hits both temperature limits; hard matches oracle", t0)


def test_09_amplification_rank_correlated_with_level():
    t0 = time.monotonic()
    hits = {1: 0, 2: 0}
    for dim, beta in ((1, 40.0), (2, 30.0)):
        for seed in range(20):
            ls = biased_landscape(dim, 4000 + seed, beta)
            rows = run_census(ls, diagonal_hierarchy(FACTORS, dim),
                              CensusConfig(n_queries=5000, seed=seed))
            amps = [r.amplification for r in rows]
            rho = spearmanr(range(len(amps)), amps).statistic
            if rho > 0:
                hits[dim] += 1
        assert hits[dim] >= 18, f"dim {dim}: only {hits[dim]}/20 positive"
    # mirror-symmetric balanced control: amplification is exactly zero in law
    n = 5000
    for dim in (1, 2):
        rng = np.random.default_rng(77 + dim)
        half = 0.8 + 0.4 * rng.random((3, dim))
        pts = np.concatenate([half, -half])
        ms = MemorySet(pts, ("A",) * 3 + ("B",) * 3)
        reports = run_census(EnergyLandscape(ms, 30.0),
                             diagonal_hierarchy(FACTORS, dim),
                             CensusConfig(n_queries=n, seed=dim))
        for r in reports:
            assert abs(r.amplification) < 3 * math.sqrt(0.25 / n), (dim, r.level)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"runtime budget exceeded: {elapsed:.1f}s"
    _report(f"amplification rises with level ({hits[1]}/20 in 1d, "
            f"{hits[2]}/20 in 2d); balanced control flat", t0)


def test_10_privacy_and_diversity_rise_with_level():
    t0 = time.monotonic()
    privacy_hits = 0
    diversity_hits = 0
    for seed in range(20):
        ls = biased_landscape(2, 5000 + seed, 30.0)
        reports = run_census(ls, diagonal_hierarchy(FACTORS, 2),
                             CensusConfig(n_queries=1000, seed=seed,
                                          levels=(0, 4)))
        lo, hi = reports
        if lo.privacy_knn_distance[1] < hi.privacy_knn_distance[1]:
            privacy_hits += 1
        if lo.diversity_mean_pairwise < hi.diversity_mean_pairwise:
            diversity_hits += 1
    assert privacy_hits >= 18, f"privacy trend in {privacy_hits}/20"
    assert diversity_hits >= 18, f"diversity trend in {diversity_hits}/20"
    _report(f"nearest-memory distance ({privacy_hits}/20) and diversity "
            f"({diversity_hits}/20) grow with abstraction", t0)


def test_11_worker_count_never_changes_tables(tmp_path):
    t0 = time.monotonic()
    cfg = tmp_path / "census.json"
    cfg.write_text('{"n_queries": 1200, "dim": 2, "class_counts": [8, 2], '
                   '"depth": 3}', encoding="utf-8")
    outs = {}
    for workers in (1, 8):
        out = tmp_path / f"w{workers}"
        assert cli_main(["census", "--config", str(cfg), "--seed", "31",
                         "--out-dir", str(out), "--workers", str(workers)]) == 0
        outs[workers] = out
    for name in ("census.csv", "privacy.csv", "plotdata_census.csv"):
        assert (outs[1] / name).read_bytes() == (outs[8] / name).read_bytes()

    for exp, table in (("grid", "grid.csv"), ("odds", "odds.csv")):
        runs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{exp}_{tag}"
            workers = "1" if tag == "a" else "8"
            assert cli_main([exp, "--seed", "9", "--out-dir", str(out),
                             "--workers", workers]) == 0
            runs.append((out / table).read_bytes())
        assert runs[0] == runs[1]
    _report("result tables byte-identical at worker counts 1 and 8", t0)
