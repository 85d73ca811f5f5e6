import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from landscape_lab.abstraction import diagonal_hierarchy, tanh_hierarchy
from landscape_lab.dynamics import (
    FlowConfig,
    MergedMinimum,
    _project_to_simplex,
    detect_merged,
    find_minima,
    flow,
    flow_batch,
    merged_minimum_locate,
)
from landscape_lab.errors import InputError, NumericalFlowError
from landscape_lab.landscape import EnergyLandscape, MemorySet


def two_memory_1d(beta):
    return EnergyLandscape(MemorySet(np.array([[-1.0], [1.0]]), ("a", "b")), beta)


CFG = FlowConfig(step_size=1.0, grad_tol=1e-8, max_steps=10000)


# ---------------------------------------------------------------------------
# FlowConfig
# ---------------------------------------------------------------------------

def test_flow_config_validation():
    with pytest.raises(InputError):
        FlowConfig(step_size=0.0)
    with pytest.raises(InputError):
        FlowConfig(grad_tol=-1.0)
    with pytest.raises(InputError):
        FlowConfig(max_steps=0)


# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------

def test_flow_single_memory_quadratic_bowl():
    m = np.array([0.5, -1.5])
    ls = EnergyLandscape(MemorySet(m[None, :], ("m",)), 3.0)
    res = flow(ls, np.array([5.0, 5.0]), CFG)
    assert res.converged
    assert np.linalg.norm(res.terminal - m) < 1e-6
    assert res.basin_memory_index == 0


def test_flow_sharp_regime_matches_1d_oracle():
    mins = oracles.minima_1d([-1.0, 1.0], 4.0)
    assert len(mins) == 2
    res = flow(two_memory_1d(4.0), np.array([0.3]), CFG)
    assert res.converged
    assert abs(res.terminal[0] - max(mins)) < 0.05


def test_flow_merged_regime_matches_1d_oracle():
    mins = oracles.minima_1d([-1.0, 1.0], 0.5)
    assert len(mins) == 1
    res = flow(two_memory_1d(0.5), np.array([0.3]), CFG)
    assert res.converged
    assert abs(res.terminal[0] - mins[0]) < 0.05


def test_flow_energy_monotone_along_trajectory():
    ls = two_memory_1d(4.0)
    res = flow(ls, np.array([1.9]), CFG, record_trajectory=True)
    assert res.trajectory.shape[0] == res.steps_taken + 1
    assert (np.diff(res.energies) <= 1e-12).all()
    assert np.array_equal(res.trajectory[-1], res.terminal)


def replayed_trajectory(target, start, config):
    """The former recorder: rerun the flow one max_steps=1 call per step."""
    steps = int(flow_batch(target, start[None, :], config)["steps"][0])
    one_step = FlowConfig(step_size=config.step_size, grad_tol=config.grad_tol,
                          max_steps=1)
    states = [start.copy()]
    x = start
    for _ in range(steps):
        x = flow_batch(target, x[None, :], one_step)["terminals"][0]
        states.append(x.copy())
    trajectory = np.array(states)
    return trajectory, np.asarray(target.energy(trajectory)).reshape(-1)


def test_recorded_trajectory_equals_step_by_step_replay():
    rng = np.random.default_rng(21)
    pts = 0.4 * rng.standard_normal((6, 2))
    ls = EnergyLandscape(MemorySet(pts, tuple(range(6))), 12.0)
    targets = (ls, tanh_hierarchy([0.8], dim=2).level_energy(ls, 1))
    cfg = FlowConfig(step_size=1.0, grad_tol=1e-8, max_steps=400)
    for target in targets:
        for start in rng.standard_normal((10, 2)):
            res = flow(target, start, cfg, record_trajectory=True)
            trajectory, energies = replayed_trajectory(target, start, cfg)
            assert res.steps_taken >= 1
            assert np.array_equal(res.trajectory, trajectory)
            assert np.array_equal(res.energies, energies)
            assert np.array_equal(res.trajectory[-1], res.terminal)


def test_flow_idempotent_at_terminal():
    ls = two_memory_1d(4.0)
    first = flow(ls, np.array([0.3]), CFG)
    again = flow(ls, first.terminal, CFG)
    assert np.linalg.norm(again.terminal - first.terminal) < 1e-6


def test_flow_stall_at_float_resolution_ends_row():
    # one row of this instance reaches |grad| ~ 1.3e-8, just above grad_tol,
    # where its accepted step no longer moves x
    cfg = FlowConfig(step_size=1.0, grad_tol=1e-8, max_steps=4000)
    ms = MemorySet(np.random.default_rng(100).normal(size=(8, 2)), tuple(range(8)))
    gx = np.linspace(-2.5, 2.5, 9)
    starts = np.array([[a, b] for a in gx for b in gx]) + ms.centroid
    ls = EnergyLandscape(ms, 1.0)
    out = flow_batch(ls, starts, cfg)
    stalled = np.flatnonzero(~out["converged"] & ~out["failed"])
    assert stalled.shape[0] >= 1
    assert (out["steps"][stalled] < cfg.max_steps).all()
    for r in stalled:
        again = flow_batch(ls, out["terminals"][r], cfg)
        assert np.array_equal(again["terminals"][0], out["terminals"][r])
        assert again["steps"][0] == 0
        assert not again["converged"][0] and not again["failed"][0]


def test_flow_nonfinite_raises_with_step():
    ls = two_memory_1d(4.0)
    with pytest.raises(NumericalFlowError) as err:
        flow(ls, np.array([np.nan]), CFG)
    assert err.value.step == 0


def test_flow_dimension_mismatch():
    with pytest.raises(InputError):
        flow(two_memory_1d(1.0), np.zeros(2), CFG)


def test_flow_batch_matches_single():
    ls = two_memory_1d(4.0)
    starts = np.array([[0.3], [-0.2], [1.7], [-1.9]])
    out = flow_batch(ls, starts, CFG)
    for i, q in enumerate(starts):
        res = flow(ls, q, CFG)
        assert np.array_equal(res.terminal, out["terminals"][i])
        assert res.steps_taken == out["steps"][i]


class UnfusedEvaluator:
    """Offers flow_batch nothing but dim and energy_grad, computed the
    unfused way: energy, then x minus the broadcast weighted sum of the
    weights. Logs the rows of each call."""

    def __init__(self, landscape):
        self.landscape = landscape
        self.dim = landscape.dim
        self.rows = []

    def energy_grad(self, x):
        self.rows.append(x.shape[0])
        w = self.landscape.weights(x)
        attended = (w[..., :, None] * self.landscape.memories.points).sum(axis=-2)
        return self.landscape.energy(x), x - attended


def test_flow_batch_evaluates_each_trial_once():
    # one energy_grad call for the starts, then one per batch of trials:
    # no separate gradient pass, and the same bits as the unfused values.
    # The Hessian is at most I, so here every unit step descends and each
    # stepping iteration is one call whose rows are the rows that step
    rng = np.random.default_rng(12)
    ls = EnergyLandscape(MemorySet(rng.normal(size=(8, 2)), tuple(range(8))), 4.0)
    starts = ls.memories.centroid + 2.0 * rng.normal(size=(30, 2))
    unfused = UnfusedEvaluator(ls)
    out = flow_batch(unfused, starts, CFG)
    expected = flow_batch(ls, starts, CFG)
    assert out.keys() == expected.keys()
    for key in out:
        assert np.array_equal(out[key], expected[key])
    assert expected["converged"].all()
    assert unfused.rows[0] == starts.shape[0]
    assert len(unfused.rows) - 1 == int(expected["steps"].max())
    assert sum(unfused.rows[1:]) == int(expected["steps"].sum())


def test_flow_batch_returns_at_once_when_stop_is_set():
    # the starts are evaluated, then the loop sees the event before any
    # step: every row comes back where it started, neither converged nor
    # failed; an unset event changes nothing
    rng = np.random.default_rng(12)
    ls = EnergyLandscape(MemorySet(rng.normal(size=(8, 2)), tuple(range(8))), 4.0)
    starts = ls.memories.centroid + 2.0 * rng.normal(size=(30, 2))
    unfused = UnfusedEvaluator(ls)
    stop = threading.Event()
    stop.set()
    out = flow_batch(unfused, starts, CFG, stop=stop)
    assert unfused.rows == [starts.shape[0]]
    assert np.array_equal(out["terminals"], starts)
    assert not out["steps"].any()
    assert not out["converged"].any() and not out["failed"].any()
    running = flow_batch(ls, starts, CFG, stop=threading.Event())
    expected = flow_batch(ls, starts, CFG)
    for key in expected:
        assert np.array_equal(running[key], expected[key])


def test_flow_step_size_rescales_time_only():
    ls = two_memory_1d(4.0)
    slow = FlowConfig(step_size=0.5, grad_tol=1e-8, max_steps=10000)
    a = flow(ls, np.array([0.3]), CFG)
    b = flow(ls, np.array([0.3]), slow)
    assert abs(a.terminal[0] - b.terminal[0]) < 1e-6
    assert b.steps_taken > a.steps_taken


def test_flow_basin_index_level_energy():
    ls = two_memory_1d(4.0)
    h = diagonal_hierarchy([0.5], dim=1)
    lvl = h.level_energy(ls, 1)
    res = flow(lvl, np.array([0.7]), CFG)   # decodes to 0.35, basin of +1
    assert res.basin_memory_index == 1
    # terminal in level coordinates sits near the encoded base minimum
    assert abs(lvl.decode(res.terminal)[0] - 0.99933) < 0.05


# ---------------------------------------------------------------------------
# find_minima
# ---------------------------------------------------------------------------

def test_find_minima_single_memory():
    ls = EnergyLandscape(MemorySet(np.array([[0.7, 0.1]]), ("m",)), 2.0)
    starts = np.random.default_rng(0).normal(size=(10, 2))
    mins = find_minima(ls, starts, CFG, dedup_radius=0.1)
    assert len(mins) == 1
    assert np.linalg.norm(mins[0] - [0.7, 0.1]) < 1e-6


def test_find_minima_sharp_and_merged_counts():
    starts = np.linspace(-2.0, 2.0, 40)[:, None]
    sharp = find_minima(two_memory_1d(4.0), starts, CFG, dedup_radius=0.2)
    assert len(sharp) == 2
    oracle = sorted(oracles.minima_1d([-1.0, 1.0], 4.0))
    for found, expect in zip(sorted(m[0] for m in sharp), oracle):
        assert abs(found - expect) < 0.05
    merged = find_minima(two_memory_1d(0.5), starts, CFG, dedup_radius=0.2)
    assert len(merged) == 1
    assert abs(merged[0][0] - oracles.minima_1d([-1.0, 1.0], 0.5)[0]) < 0.05


def test_find_minima_validation():
    with pytest.raises(InputError):
        find_minima(two_memory_1d(1.0), np.empty((0, 1)), CFG, dedup_radius=0.1)
    with pytest.raises(InputError):
        find_minima(two_memory_1d(1.0), np.array([[0.0]]), CFG, dedup_radius=0.0)


def test_merging_monotone_in_beta_and_level():
    # statistical merging claim: minima count never grows as beta drops,
    # and diagonal rescaling leaves the count unchanged
    cfg = FlowConfig(step_size=1.0, grad_tol=1e-8, max_steps=4000)
    betas = [16.0, 8.0, 4.0, 2.0, 1.0, 0.5]
    gx = np.linspace(-2.5, 2.5, 9)
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        pts = rng.normal(size=(8, 2))
        ms = MemorySet(pts, tuple(range(8)))
        starts = np.array([[a, b] for a in gx for b in gx]) + ms.centroid
        counts = [len(find_minima(EnergyLandscape(ms, b), starts, cfg,
                                  dedup_radius=0.1 * ms.diameter))
                  for b in betas]
        assert (np.diff(counts) <= 0).all(), f"seed {seed}: {counts}"

    ls = EnergyLandscape(MemorySet(np.random.default_rng(7).normal(size=(6, 2)),
                                   tuple(range(6))), 8.0)
    h = diagonal_hierarchy([0.9, 0.8], dim=2)
    base_starts = ls.memories.centroid + np.random.default_rng(8).normal(size=(40, 2))
    level_counts = []
    for a in range(3):
        lvl = h.level_energy(ls, a)
        starts = np.asarray(lvl.encode(base_starts))
        level_counts.append(len(find_minima(lvl, starts, cfg,
                                            dedup_radius=0.1 * ls.memories.diameter)))
    assert (np.diff(level_counts) <= 0).all()


def test_terminals_inside_convex_hull():
    rng = np.random.default_rng(12)
    pts = rng.normal(size=(6, 2))
    ls = EnergyLandscape(MemorySet(pts, tuple(range(6))), 4.0)
    out = flow_batch(ls, rng.normal(size=(30, 2)) * 2, CFG)
    ok = out["converged"]
    for t in out["terminals"][ok]:
        w = ls.weights(t)
        assert np.linalg.norm(t - (w[:, None] * pts).sum(axis=0)) < 1e-6


# ---------------------------------------------------------------------------
# Merged-minimum detection
# ---------------------------------------------------------------------------

def test_detect_merged_none_when_sharp():
    base = [np.array([-0.999]), np.array([0.999])]
    merged = detect_merged(base, base, [0, 1], lambda x: x, epsilon=0.05)
    assert merged == []


def test_detect_merged_two_constituents():
    base = oracles.minima_1d([-1.0, 1.0], 4.0)
    level_min = oracles.minima_1d([-1.0, 1.0], 0.5)
    out = detect_merged([np.array(level_min)],
                        [np.array([b]) for b in base], [0, 1],
                        lambda x: x, epsilon=1.5)
    assert len(out) == 1
    assert out[0].constituent_indices == (0, 1)


def test_detect_merged_zero_epsilon_empty():
    base = [np.array([-1.0]), np.array([1.0])]
    assert detect_merged([np.array([0.0])], base, [0, 1], lambda x: x, 0.0) == []
    with pytest.raises(InputError):
        detect_merged([np.array([0.0])], base, [0, 1], lambda x: x, -0.1)


def test_merged_minimum_invariants():
    with pytest.raises(InputError):
        MergedMinimum(np.zeros(1), (3,), 0.5)   # needs >= 2 constituents


# ---------------------------------------------------------------------------
# Convex-hull minimization
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=2, max_size=6))
def test_simplex_projection_properties(values):
    v = np.array(values)
    p = _project_to_simplex(v)
    assert (p >= 0).all()
    assert abs(p.sum() - 1.0) < 1e-9
    assert np.abs(_project_to_simplex(p) - p).max() < 1e-12


def test_merged_locate_symmetric_midpoint():
    ls = two_memory_1d(0.5)
    x = merged_minimum_locate(ls, [np.array([-1.0]), np.array([1.0])],
                              iters=300, restarts=8, seed=0)
    assert abs(x[0]) < 1e-3


def test_merged_locate_requires_two():
    with pytest.raises(InputError):
        merged_minimum_locate(two_memory_1d(1.0), [np.array([0.0])])


def test_merged_locate_beats_random_simplex_samples():
    rng = np.random.default_rng(21)
    pts = rng.normal(size=(7, 2))
    ls = EnergyLandscape(MemorySet(pts, tuple(range(7))), 1.0)
    hull = [pts[0], pts[3], pts[5]]
    best = merged_minimum_locate(ls, hull, iters=300, restarts=16, seed=1)
    e_best = ls.energy(best)
    for v in hull:
        assert e_best <= ls.energy(v) + 1e-12
    alphas = rng.dirichlet(np.ones(3), size=10000)
    samples = alphas @ np.array(hull)
    assert e_best <= float(np.min(ls.energy(samples))) + 1e-9

