import math
import threading
import tracemalloc
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from landscape_lab import dynamics
from landscape_lab._seeds import derive_rng
from landscape_lab.abstraction import diagonal_hierarchy, tanh_hierarchy
from landscape_lab.census import _bootstrap_log_counts
from landscape_lab.dynamics import (
    FlowConfig,
    find_minima,
    flow,
    flow_batch,
    flow_chunked,
)
from landscape_lab.errors import InputError, NumericalFlowError
from landscape_lab.landscape import (_FLOW_CELLS, CHUNK, EnergyLandscape, MemorySet,
                                     chunk_bounds, flow_bounds, gaussian_blobs)


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


@pytest.mark.parametrize("kwargs, message", [
    # an infinite grad_tol would end every row converged at its start, and
    # an infinite step_size would fail every row on inf - inf
    ({"grad_tol": math.inf}, "grad_tol must be positive and finite, got inf"),
    ({"grad_tol": math.nan}, "grad_tol must be positive and finite, got nan"),
    ({"step_size": math.inf}, "step_size must be positive and finite, got inf"),
    ({"step_size": math.nan}, "step_size must be positive and finite, got nan"),
    ({"step_size": -math.inf}, "step_size must be positive and finite, got -inf"),
    ({"max_steps": 2.5}, "max_steps must be an integer, got 2.5"),
    ({"max_steps": 100.0}, "max_steps must be an integer, got 100.0"),
    ({"max_steps": True}, "max_steps must be an integer, got True"),
    ({"max_steps": math.inf}, "max_steps must be an integer, got inf"),
])
def test_flow_config_rejects_non_finite_and_non_integer_settings(kwargs, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        FlowConfig(**kwargs)


def test_flow_config_takes_numpy_integers():
    assert FlowConfig(max_steps=np.int64(7)).max_steps == 7


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


class LoggedEvaluator:
    """Passes energy_grad (and its keys, if given) through to target,
    keeping a copy of each x."""

    def __init__(self, target):
        self.target = target
        self.dim = target.dim
        self.seen = []

    def energy_grad(self, x, *keys):
        self.seen.append(x.copy())
        return self.target.energy_grad(x, *keys)


def resampled_levels(rounds):
    """Level 1 of a tanh hierarchy over bootstrap resamples of one set.

    The memories lie inside the decoder's range (-0.9, 0.9), up to |x|
    0.76, so each has a level minimum and most flows converge.
    """
    ms = gaussian_blobs(dim=2, class_counts=[5, 3], spread=0.3, seed=4, center_scale=0.4)
    assert np.abs(ms.points).max() < 0.9
    ls = EnergyLandscape(ms, 12.0)
    hierarchy = tanh_hierarchy([0.9], dim=2)
    return [hierarchy.level_energy(oracles.round_landscape(
                ls, _bootstrap_log_counts(ms, derive_rng(0, "bootstrap", b), True)), 1)
            for b in range(rounds)]


def test_blocks_give_each_row_its_own_evaluators_bits():
    # three resampled landscapes; the middle block straddles the CHUNK
    # boundary, and each block holds a start that fails at once
    levels = resampled_levels(3)
    sizes = (CHUNK - 300, 500, 200)
    rng = np.random.default_rng(5)
    starts = 1.5 * rng.standard_normal((sum(sizes), 2))
    starts[[0, CHUNK, sum(sizes) - 1]] = np.nan
    cfg = FlowConfig(step_size=1.0, grad_tol=1e-5, max_steps=300)
    edges = np.cumsum((0,) + sizes)
    own = [flow_batch(lvl, starts[lo:hi], cfg)
           for lvl, lo, hi in zip(levels, edges[:-1], edges[1:])]
    assert all(o["failed"].sum() == 1 for o in own)
    # over 90 % of the rows converge (1356 of 1424), so the bits compared
    # are mostly those of converged endings, not of max_steps ones
    assert sum(o["converged"].sum() for o in own) > 0.9 * starts.shape[0]
    keyed = oracles.KeyedEvaluators(levels)
    for workers in (1, 2):
        out, _ = flow_chunked(keyed, starts, cfg, workers, keys=np.repeat(np.arange(3), sizes))
        for o, lo, hi in zip(own, edges[:-1], edges[1:]):
            for key in ("terminals", "steps", "converged", "failed", "fail_step"):
                assert np.array_equal(out[key][lo:hi], o[key], equal_nan=True), key


def test_each_block_evaluator_sees_only_its_own_rows():
    # a block's evaluator is called with exactly the points it is called
    # with when its rows flow alone: the same calls, in the same order
    cfg = FlowConfig(step_size=1.0, grad_tol=1e-5, max_steps=300)
    levels = resampled_levels(4)
    starts = 1.5 * np.random.default_rng(6).standard_normal((4 * 15, 2))
    shared = [LoggedEvaluator(lvl) for lvl in levels]
    out = flow_batch(oracles.KeyedEvaluators(shared), starts, cfg,
                     keys=np.repeat(np.arange(4), 15))
    assert out["converged"].sum() > 0.9 * starts.shape[0]    # 57 of 60
    for b, lvl in enumerate(levels):
        alone = LoggedEvaluator(lvl)
        flow_batch(alone, starts[15 * b:15 * (b + 1)], cfg)
        assert len(shared[b].seen) == len(alone.seen) > 1
        for x, y in zip(shared[b].seen, alone.seen):
            assert np.array_equal(x, y)


def test_blocks_validation():
    # keys hold one value per start; flow_chunked checks them before it
    # slices them, so a longer array is no chunk's right length either
    keyed = oracles.KeyedEvaluators(resampled_levels(2))
    for keys in ([0, 1, 1], [0], [[0, 1]]):
        for loop in (flow_batch, flow_chunked):
            with pytest.raises(InputError, match="keys of shape"):
                loop(keyed, np.zeros((2, 2)), CFG, keys=np.array(keys))


def test_keyed_flow_on_a_bare_landscape_raises():
    # EnergyLandscape.energy_grad takes log_counts by keyword only, so the
    # keys a keyed flow passes positionally are never read as offsets
    ls = EnergyLandscape(gaussian_blobs(dim=2, class_counts=[5, 3], seed=4), 12.0)
    for loop in (flow_batch, flow_chunked):
        with pytest.raises(TypeError):
            loop(ls, np.zeros((2, 2)), CFG, keys=np.zeros(2, dtype=int))


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_ordered_map_yields_in_order_with_few_calls_ahead(workers):
    # the pool keeps at most 2 * workers calls submitted beyond the results
    # read, so a closed map never calls fn on the items past that window
    started = []
    lock = threading.Lock()

    def fn(item):
        with lock:
            started.append(item)
        return item * item

    items = list(range(50))
    assert list(dynamics.ordered_map(fn, items, workers)) == [i * i for i in items]
    assert sorted(started) == items
    started.clear()
    results = dynamics.ordered_map(fn, items, workers)
    assert [next(results) for _ in range(5)] == [0, 1, 4, 9, 16]
    results.close()
    assert max(started) < 5 + 2 * max(workers, 1)


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


class StopAfter:
    """Passes energy_grad through to target and sets stop after its
    calls-th call, as another chunk's failure does mid-run."""

    def __init__(self, target, stop, calls):
        self.target, self.stop, self.calls = target, stop, calls
        self.dim = target.dim

    def energy_grad(self, x):
        out = self.target.energy_grad(x)
        self.calls -= 1
        if self.calls == 0:
            self.stop.set()
        return out


def census_level(dim, level, decoder=diagonal_hierarchy, n=10, seed=0):
    """A census-sized landscape (n memories, beta 40) at one level."""
    ms = gaussian_blobs(dim=dim, class_counts=[n - 1, 1], spread=0.08, seed=seed,
                        center_scale=1.0)
    hierarchy = decoder([0.9 ** a for a in range(1, 5)], dim=dim)
    return hierarchy.level_energy(EnergyLandscape(ms, 40.0), level)


def census_starts(target, rows, seed=0):
    ms = target.memories
    rng = np.random.default_rng(seed)
    return ms.centroid + 0.5 * rng.standard_normal((rows, ms.dim))


def stall_case(record=False):
    ms = MemorySet(np.random.default_rng(100).normal(size=(8, 2)), tuple(range(8)))
    gx = np.linspace(-2.5, 2.5, 9)
    starts = np.array([[a, b] for a in gx for b in gx]) + ms.centroid
    return (EnergyLandscape(ms, 1.0), starts, FlowConfig(1.0, 1e-8, 4000),
            {"record": record})


def nonfinite_case():
    target = census_level(2, 2)
    starts = census_starts(target, 40, seed=3)
    starts[[0, 7, 39]] = [[np.nan, 0.0], [np.inf, 1.0], [0.0, -np.inf]]
    return target, starts, CFG, {}


def blocks_case(record=False):
    levels = resampled_levels(3)
    starts = 1.5 * np.random.default_rng(5).standard_normal((90, 2))
    starts[[0, 45, 89]] = np.nan
    return (oracles.KeyedEvaluators(levels), starts, FlowConfig(1.0, 1e-5, 300),
            {"keys": np.repeat(np.arange(3), 30), "record": record})


def blocks_of_levels_case():
    # rows of three diagonal levels, which all converge
    levels = [census_level(2, a) for a in (0, 2, 4)]
    starts = census_starts(levels[0], 300, seed=6)
    return (oracles.KeyedEvaluators(levels), starts, CFG,
            {"keys": np.repeat(np.arange(3), 100)})


def stop_case(calls):
    stop = threading.Event()
    target = StopAfter(census_level(2, 3), stop, calls)
    if calls == 0:
        stop.set()
    return target, census_starts(target.target, 200, seed=4), CFG, {"stop": stop}


def blocks_stop_case():
    stop = threading.Event()
    levels = [StopAfter(lvl, stop, 25) for lvl in resampled_levels(3)]
    starts = 1.5 * np.random.default_rng(7).standard_normal((60, 2))
    return (oracles.KeyedEvaluators(levels), starts, FlowConfig(1.0, 1e-5, 300),
            {"keys": np.repeat(np.arange(3), 20), "stop": stop})


def census_case(dim, rows, level, decoder=diagonal_hierarchy, n=10, max_steps=10000,
                step_size=1.0, record=False, seed=0):
    target = census_level(dim, level, decoder, n, seed)
    cfg = FlowConfig(step_size=step_size, grad_tol=1e-8, max_steps=max_steps)
    return target, census_starts(target, rows, seed), cfg, {"record": record}


REFERENCE_CASES = {
    f"d{d}-level{a}-{decoder.__name__[:4]}": partial(census_case, d, 300, a, decoder)
    for d in (1, 2) for a in range(5) for decoder in (diagonal_hierarchy, tanh_hierarchy)}
REFERENCE_CASES.update({
    "rows1": partial(census_case, 2, 1, 4),
    "rows1-record": partial(census_case, 2, 1, 2, tanh_hierarchy, record=True),
    "rows1024": partial(census_case, 2, CHUNK, 1),
    "rows1025": partial(census_case, 2, CHUNK + 1, 3, seed=2),
    "d16-250mem": partial(census_case, 16, 200, 2, n=250),
    "d16-250mem-tanh-max-steps": partial(census_case, 16, 64, 1, tanh_hierarchy, n=250,
                                         max_steps=40),
    "max-steps7": partial(census_case, 2, 200, 4, max_steps=7),
    "max-steps7-record": partial(census_case, 1, 50, 3, max_steps=7, record=True),
    "step50": partial(census_case, 2, 200, 2, step_size=50.0),
    "stall": stall_case,
    "stall-record": partial(stall_case, record=True),
    "nonfinite": nonfinite_case,
    "blocks": blocks_case,
    "blocks-record": partial(blocks_case, record=True),
    "blocks-of-levels": blocks_of_levels_case,
    "stop-before-first-iteration": partial(stop_case, 0),
    "stop-mid-run": partial(stop_case, 40),
    "blocks-stop-mid-run": blocks_stop_case,
})


def logged_flow(loop, case):
    """loop's outputs on a fresh instance of case, and the row count of
    each energy_grad call it made."""
    target, starts, cfg, kwargs = case()
    logged = LoggedEvaluator(target)
    return loop(logged, starts, cfg, **kwargs), [x.shape[0] for x in logged.seen]


# the nonfinite case flows +-inf starts on purpose, whose scores' softmax
# subtracts -inf from -inf
_INF_STARTS = pytest.mark.filterwarnings(
    "ignore:invalid value encountered in subtract:RuntimeWarning")


@pytest.mark.parametrize("name", [pytest.param(name, marks=_INF_STARTS)
                                  if name == "nonfinite" else name
                                  for name in REFERENCE_CASES])
def test_flow_batch_equals_reference_loop(name):
    # the compacted loop against the full-batch loop it replaced: every
    # output array bit for bit, and the same evaluations, call by call
    case = REFERENCE_CASES[name]
    out, sizes = logged_flow(flow_batch, case)
    expected, expected_sizes = logged_flow(oracles.flow_batch_reference, case)
    assert out.keys() == expected.keys()
    for key in expected:
        assert out[key].dtype == expected[key].dtype, key
        assert np.array_equal(out[key], expected[key], equal_nan=True), key
    assert sizes == expected_sizes


@_INF_STARTS
def test_reference_cases_reach_every_ending():
    # between them the cases end rows converged, failed, stalled, at
    # max_steps and stopped, and halve steps; each ending has its reason
    # code, and the codes agree with converged and failed everywhere
    def run(name):
        out, sizes = logged_flow(flow_batch, REFERENCE_CASES[name])
        still = ~out["converged"] & ~out["failed"]
        assert np.array_equal(out["reason"] == dynamics.CONVERGED, out["converged"])
        assert np.array_equal(out["reason"] == dynamics.NONFINITE, out["failed"])
        return out, sizes, still

    reasons = set()
    out, _, _ = run("nonfinite")
    assert out["converged"].any() and out["failed"].any()
    reasons |= set(out["reason"][out["failed"]])
    out, _, _ = run("blocks-of-levels")
    assert out["converged"].all()
    reasons |= set(out["reason"])
    out, _, still = run("stall")
    stalled = still & (out["steps"] < 4000)
    assert stalled.any() and (out["reason"][stalled] == dynamics.STALLED).all()
    reasons |= set(out["reason"][stalled])
    out, _, still = run("max-steps7")
    assert (still & (out["steps"] == 7)).any()
    assert (out["reason"][still & (out["steps"] == 7)] == dynamics.MAX_STEPS).all()
    reasons |= set(out["reason"][still])
    out, _, still = run("stop-mid-run")
    assert still.any() and out["converged"].any()
    assert (out["reason"][still] == dynamics.STOPPED).all()
    reasons |= set(out["reason"][still])
    assert reasons == {dynamics.CONVERGED, dynamics.NONFINITE, dynamics.STALLED,
                       dynamics.MAX_STEPS, dynamics.STOPPED}
    # every row converges, so each stepping iteration moves some row and
    # any call beyond one per iteration is a halving
    out, sizes, _ = run("step50")
    assert out["converged"].all() and len(sizes) - 1 > out["steps"].max()


def minima_sweep_case(beta):
    # the merging test's seed-0 instance, whose batches at beta 1 and 0.5
    # each hold a row that stalls at float resolution
    target, starts, cfg, kwargs = stall_case()
    return EnergyLandscape(target.memories, beta), starts, FlowConfig(1.0, 1e-8, 500), kwargs


ROUND_CASES = {
    **REFERENCE_CASES,
    "step16-tanh": partial(census_case, 2, 100, 1, tanh_hierarchy, step_size=16.0),
    "step50-tanh": partial(census_case, 2, 64, 1, tanh_hierarchy, step_size=50.0),
    "stall-beta0.5": partial(minima_sweep_case, 0.5),
}


@pytest.mark.parametrize("name", [pytest.param(name, marks=_INF_STARTS)
                                  if name == "nonfinite" else name
                                  for name in ROUND_CASES])
def test_halving_rounds_accept_what_one_halving_per_call_accepts(name):
    # each rejected row takes the first length that descends, in rounds
    # of lengths or one length per call alike: every output array bit for
    # bit. Where rows halve many times the rounds take fewer calls
    case = ROUND_CASES[name]
    out, sizes = logged_flow(flow_batch, case)
    single = partial(oracles.flow_batch_reference, rounds=False)
    expected, single_sizes = logged_flow(single, case)
    assert out.keys() == expected.keys()
    for key in expected:
        assert np.array_equal(out[key], expected[key], equal_nan=True), key
    assert len(sizes) <= len(single_sizes)
    if name in ("step50", "stall", "stall-record", "step16-tanh", "step50-tanh",
                "stall-beta0.5"):
        assert len(sizes) < len(single_sizes)


@pytest.mark.parametrize("dim", range(1, 10))
def test_flow_row_reductions_equal_numpys(dim):
    # below 8 coordinates the flow loop's per-row reductions run one
    # coordinate at a time once the rows are many; either way they keep
    # the bits of numpy's row reductions, special values included
    rng = np.random.default_rng(dim)
    g = rng.standard_normal((715, dim))
    g[:6, 0] = [np.nan, np.inf, -np.inf, -0.0, 1e-200, 1e200]
    g[6:9] = np.array([[0.0], [-0.0], [1e-170]])
    t = g.copy()
    t[::5, dim - 1] = np.nextafter(t[::5, dim - 1], np.inf)
    t[7] = 0.0                                    # -0.0 == 0.0: not moved
    assert dynamics._coordinate_rows(dim) == (64 * (dim - 1) if dim < 8 else math.inf)
    for by_coordinate in (False, True)[:1 + (dim < 8)]:
        with np.errstate(over="ignore"):
            norms = dynamics._row_norms(g, by_coordinate)
            assert np.array_equal(norms, np.sqrt((g * g).sum(axis=1)), equal_nan=True)
        moved = dynamics._rows_differ(t, g, by_coordinate)
        assert np.array_equal(moved, (t != g).any(axis=1))
        assert moved.any() and not moved.all() and not moved[7]


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
# flow_chunked's chunk bounds
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, d", [(1, 1), (10, 1), (10, 2), (6, 16), (250, 16), (2000, 32),
                                  (_FLOW_CELLS, 1)])
def test_flow_bounds_cover_the_rows_within_the_cell_budget(n, d):
    size = max(CHUNK, _FLOW_CELLS // (n + d))
    for m in (1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 5000, 50_000, size + CHUNK + 1):
        bounds = flow_bounds(m, n, d)
        # every row lies in exactly one chunk, in order, and none is empty
        assert [lo for lo, _ in bounds] == [0] + [hi for _, hi in bounds[:-1]]
        assert bounds[-1][1] == m and all(lo < hi for lo, hi in bounds)
        assert bounds[0] == (0, min(m, CHUNK))
        assert max(hi - lo for lo, hi in bounds) <= size
        # a function of (m, n, d) alone
        assert flow_bounds(m, n, d) == bounds
    # wide retrieval (250 memories in 16-D) keeps its CHUNK-row chunks
    assert flow_bounds(2048, 250, 16) == chunk_bounds(2048) == [(0, CHUNK), (CHUNK, 2 * CHUNK)]
    assert flow_bounds(5000, 10, 2) == [(0, CHUNK), (CHUNK, 5000)]


def test_flow_chunked_flows_the_bounds_of_its_shape_at_any_worker_count(monkeypatch):
    # the chunks flowed are flow_bounds of the batch's rows, the memories
    # of its score pass and its coordinates, at 1 and 2 workers and for an
    # evaluator, unkeyed or keyed
    rng = np.random.default_rng(9)
    ls = EnergyLandscape(MemorySet(rng.normal(size=(100, 2)), tuple(range(100))), 6.0)
    starts = rng.standard_normal((CHUNK + 2 * (_FLOW_CELLS // 102) + 7, 2))
    real = dynamics.flow_batch
    sizes = []

    def counting(target, rows, *args, **kwargs):
        sizes.append(rows.shape[0])
        return real(target, rows, *args, **kwargs)

    monkeypatch.setattr(dynamics, "flow_batch", counting)
    expected = sorted(hi - lo for lo, hi in flow_bounds(starts.shape[0], 100, 2))
    assert len(expected) == 4
    keyed = oracles.KeyedEvaluators((ls,)), np.zeros(starts.shape[0], dtype=np.intp)
    for target, keys in ((ls, None), keyed):
        for workers in (1, 2):
            sizes.clear()
            flow_chunked(target, starts, FlowConfig(max_steps=20), workers, keys=keys)
            assert sorted(sizes) == expected


def test_flow_chunked_memory_is_bounded_by_the_cell_budget(monkeypatch):
    # numpy reports its buffers to tracemalloc. A chunk of r rows against
    # n memories in d coordinates has r (n + d) <= _FLOW_CELLS, and the
    # flow loop holds a few (r, n) score arrays and (r, d) state arrays at
    # once, allowed 5 _FLOW_CELLS float64s together. Beside them lie the m
    # rows' outputs, twice: the chunks' parts and their concatenation.
    # One chunk of all 50 000 rows (m x n cells) peaks above that bound.
    rng = np.random.default_rng(10)
    ls = EnergyLandscape(MemorySet(rng.normal(size=(10, 2)), tuple(range(10))), 4.0)
    starts = ls.memories.centroid + 1.5 * rng.standard_normal((50_000, 2))
    cfg = FlowConfig(step_size=1.0, grad_tol=1e-5, max_steps=500)
    flow_chunked(ls, starts[:100], cfg)

    def peak_of_flow():
        tracemalloc.start()
        try:
            out, ok = flow_chunked(ls, starts, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ok.all()
        return peak, sum(a.nbytes for a in out.values()) + ok.nbytes

    peak, outputs = peak_of_flow()
    bound = 5 * _FLOW_CELLS * 8 + 2 * outputs
    assert peak <= bound
    monkeypatch.setattr(dynamics, "flow_bounds", lambda m, n, d: [(0, m)])
    assert peak_of_flow()[0] > bound


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


def test_find_minima_flows_a_chunk_at_a_time(monkeypatch):
    # 2 CHUNK + 1 starts flow a chunk at a time, in flow_bounds' chunks
    # (here a first CHUNK-row chunk and one more), and give the minima of
    # one unchunked flow_batch over all of them
    rng = np.random.default_rng(8)
    ls = EnergyLandscape(MemorySet(rng.normal(size=(6, 2)), tuple(range(6))), 6.0)
    starts = ls.memories.centroid + 1.5 * rng.standard_normal((2 * CHUNK + 1, 2))
    real = dynamics.flow_batch
    calls = []

    def counting(target, rows, *args, **kwargs):
        calls.append(rows.shape[0])
        return real(target, rows, *args, **kwargs)

    def unchunked(target, rows, config):
        out = real(target, rows, config)
        return out, out["converged"] & ~out["failed"]

    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "flow_chunked", unchunked)
        expected = find_minima(ls, starts, CFG, dedup_radius=0.05)
    monkeypatch.setattr(dynamics, "flow_batch", counting)
    found = find_minima(ls, starts, CFG, dedup_radius=0.05)
    bounds = flow_bounds(starts.shape[0], ls.memories.n, ls.dim)
    assert calls == [hi - lo for lo, hi in bounds] and len(calls) > 1
    assert len(found) == len(expected) > 1
    for a, b in zip(found, expected):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("dim", [1, 2, 5, 8, 16])
@pytest.mark.parametrize("terminals", ["distinct", "repeated"])
@pytest.mark.parametrize("energy", ["ties", "distinct"])
def test_find_minima_merges_as_the_candidate_loop_does(monkeypatch, dim, terminals, energy):
    # the one pass per accepted minimum against the loop over candidates
    # it replaced, on terminals in clusters of widths 1e-4 to 0.3: the same
    # points, bit for bit, at radii from 1e-3 diameters to inf. The flows
    # are replaced: each start is its own terminal, of energy fn
    rng = np.random.default_rng(dim)
    centers = rng.normal(size=(6, dim))
    widths = 10.0 ** rng.uniform(-4, math.log10(0.3), size=(240, 1))
    points = centers[rng.integers(6, size=240)] + widths * rng.normal(size=(240, dim))
    if terminals == "repeated":
        points = np.concatenate([points, points[rng.integers(240, size=60)]])
        rng.shuffle(points)
    assert np.unique(points, axis=0).shape[0] == 240
    if energy == "ties":
        def fn(x):
            return np.round(x[:, 0], 1)              # about 40 energy levels
    else:
        def fn(x):
            return (x * x).sum(axis=1)
    monkeypatch.setattr(dynamics, "flow_chunked",
                        lambda target, starts, config: ({"terminals": starts},
                                                        np.ones(starts.shape[0], bool)))
    diameter = np.sqrt(((points[:, None] - points[None]) ** 2).sum(axis=2)).max()
    counts = []
    for radius in [diameter * f for f in (1e-3, 1e-2, 0.05, 0.2, 1.0)] + [math.inf]:
        found = find_minima(SimpleNamespace(energy=fn), points, CFG, dedup_radius=radius)
        expected = oracles.merged_minima(points, fn(points), radius)
        assert len(found) == len(expected)
        for a, b in zip(found, expected):
            assert np.array_equal(a, b)
        counts.append(len(found))
    assert counts[0] > counts[2] > counts[-1] == 1


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
