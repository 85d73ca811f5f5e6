import math

import numpy as np
import pytest

import oracles
from landscape_lab._seeds import derive_rng
from landscape_lab.errors import InputError
from landscape_lab.oddsmodel import (
    MergeCounts,
    MergeScenario,
    initial_odds,
    simulate_merge,
    smoothed_odds,
)


def test_scenario_validation():
    with pytest.raises(InputError):
        MergeScenario(0, 1, 1)
    with pytest.raises(InputError):
        MergeScenario(1, 1, 0)


def test_initial_odds():
    assert initial_odds(MergeScenario(5, 5, 2)) == 1.0
    assert initial_odds(MergeScenario(9, 1, 2)) == 9.0
    assert initial_odds(MergeScenario(3, 2, 2)) == 1.5


def test_smoothed_odds():
    assert smoothed_odds(MergeScenario(7, 3, 1)) == initial_odds(MergeScenario(7, 3, 1))
    assert smoothed_odds(MergeScenario(9, 1, 3)) == 729.0
    assert smoothed_odds(MergeScenario(2, 1, 2)) == 4.0


def test_smoothed_odds_overflow_saturates():
    assert smoothed_odds(MergeScenario(10, 1, 400)) == math.inf


def test_smoothed_amplifies_iff_majority_and_features():
    # equality only at a single feature; strict growth beyond
    for p, q in ((2, 1), (3, 2), (9, 1)):
        for s in (1, 2, 5):
            sc = MergeScenario(p, q, s)
            if s == 1:
                assert smoothed_odds(sc) == initial_odds(sc)
            else:
                assert smoothed_odds(sc) > initial_odds(sc)
    balanced = MergeScenario(4, 4, 6)
    assert smoothed_odds(balanced) == initial_odds(balanced) == 1.0


def test_simulate_exact_enumeration_2_1_2():
    pa, pb, mixed = oracles.merge_outcome_enumeration(2, 1, 2)
    assert (pa, pb, mixed) == (pytest.approx(4 / 9), pytest.approx(1 / 9),
                               pytest.approx(4 / 9))
    trials = 100000
    counts = simulate_merge(MergeScenario(2, 1, 2), trials, seed=5)
    for observed, expected in zip(counts, (pa, pb, mixed)):
        sigma = math.sqrt(expected * (1 - expected) * trials)
        assert abs(observed - expected * trials) < 3 * sigma


def test_simulate_single_feature_never_mixes():
    counts = simulate_merge(MergeScenario(3, 2, 1), 20000, seed=1)
    assert counts.mixed == 0
    assert counts.pure_majority + counts.pure_minority == 20000


def test_simulate_balanced_symmetry():
    trials = 100000
    counts = simulate_merge(MergeScenario(3, 3, 3), trials, seed=2)
    expected = trials * 0.5 ** 3
    sigma = math.sqrt(trials * 0.125 * 0.875)
    assert abs(counts.pure_majority - expected) < 3 * sigma
    assert abs(counts.pure_minority - expected) < 3 * sigma


def test_simulate_conditional_odds_converges():
    for p, q, s in ((2, 1, 2), (3, 1, 3), (3, 2, 4)):
        counts = simulate_merge(MergeScenario(p, q, s), 1_000_000, seed=7)
        target = smoothed_odds(MergeScenario(p, q, s))
        assert abs(counts.conditional_odds() - target) / target < 0.05


def test_conditional_ratio_exceeds_bound_for_large_features():
    # (p/q)^S = 2^7 = 128; the empirical ratio must clear 100
    counts = simulate_merge(MergeScenario(2, 1, 7), 1_000_000, seed=9)
    assert counts.conditional_odds() > 100.0


def test_simulate_determinism_and_validation():
    a = simulate_merge(MergeScenario(2, 1, 2), 5000, seed=3)
    b = simulate_merge(MergeScenario(2, 1, 2), 5000, seed=3)
    assert a == b
    with pytest.raises(InputError):
        simulate_merge(MergeScenario(2, 1, 2), 0, seed=3)


def per_trial_merge(scenario, trials, seed):
    # reference: the per-trial all() reductions simulate_merge replaced,
    # drawn in chunks of 2^18 trials
    rng = derive_rng(seed, "merge-trials")
    pure_a = pure_b = done = 0
    while done < trials:
        m = min(1 << 18, trials - done)
        draws = rng.random((m, scenario.feature_count)) < scenario.majority_prob
        pure_a += int(draws.all(axis=1).sum())
        pure_b += int((~draws).all(axis=1).sum())
        done += m
    return MergeCounts(pure_a, pure_b, trials - pure_a - pure_b)


@pytest.mark.parametrize("s", range(1, 9))
def test_simulate_merge_matches_per_trial_reductions(s):
    # trial counts on both sides of either chunk size
    scenario = MergeScenario(3, 2, s)
    for trials in (1, (1 << 14) + 1, (1 << 18) - 1, 1 << 18, (1 << 18) + 1, 1_000_000):
        for seed in (0, 3, 7):
            counts = simulate_merge(scenario, trials, seed=seed)
            assert counts == per_trial_merge(scenario, trials, seed)
            assert all(type(v) is int for v in counts)


@pytest.mark.parametrize("p, q", [(1000, 1), (6, 1), (1, 1000)])
def test_simulate_merge_counts_past_a_byte(p, q):
    # S = 300 majority features do not fit a uint8 count: 300 would wrap
    # to 44 (no pure-majority) and 256 to 0 (a false pure-minority)
    scenario = MergeScenario(p, q, 300)
    for trials in (1, 5000):
        for seed in (0, 3):
            counts = simulate_merge(scenario, trials, seed=seed)
            assert counts == per_trial_merge(scenario, trials, seed)
    # a pure draw has chance 0.999^300 = 0.74 at 1000:1, below 1e-20 at 6:1
    counts = simulate_merge(scenario, 5000, seed=0)
    assert (counts.pure_majority > 0, counts.pure_minority > 0) == (p == 1000, q == 1000)
