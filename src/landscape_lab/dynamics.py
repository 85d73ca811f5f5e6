"""Gradient-flow retrieval, basin assignment, and multistart minima search.

Flows integrate x' = -grad E(x) with explicit Euler steps of length
step_size and energy backtracking: a step that would raise the energy has
its length halved until it does not, so accepted trajectories are
non-increasing in energy by construction.

flow_batch advances many starts at once, in one loop over a compacted
active set: the active rows' state sits in contiguous arrays, and a row
is written back to the outputs when it leaves. Every per-row decision
(step halving, convergence, termination) uses only that row's state, so a
row's result is bit-identical no matter how starts are grouped.
flow_chunked uses that to cut a batch into chunks whose bounds depend on
the batch's shape alone (flow_bounds: a first CHUNK-row chunk, then
chunks sized to a cell budget over the memories a score pass spans and
the coordinates), flowed on a thread pool when asked, and stops once a
failure budget is passed.
ordered_map is the package's one thread pool: it runs flow_chunked's
chunks and the census's classification blocks, diversity pair tiles and
privacy blocks, and yields results in order.
Each trial is evaluated once, by its evaluator's energy_grad, and an
accepted trial's gradient drives the next step.

Given keys, one value per start, each evaluation passes the evaluator the
keys of the rows it evaluates, energy_grad(x, keys[rows]); an evaluator
that reads them can give each row the bits of its own landscape, as
census's bootstrap rounds do in one pass, so many small flows run as one
loop. Every row ends with a reason code.
"""

from __future__ import annotations

import logging
import math
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Sequence

import numpy as np

from landscape_lab.errors import InputError, NumericalFlowError
from landscape_lab.landscape import flow_bounds, sqdist

logger = logging.getLogger(__name__)

_MAX_HALVINGS = 60

CONVERGED = 0   # flow_batch's reason codes: |grad| fell below grad_tol
NONFINITE = 1   # a non-finite energy or gradient (the row failed)
STALLED = 2     # at float resolution: no step length descends or moves x
MAX_STEPS = 3   # still moving after max_steps steps
STOPPED = 4     # the batch's stop event was set


@dataclass
class FlowConfig:
    """Integration parameters for the descent flow."""

    step_size: float = 1.0
    grad_tol: float = 1e-8
    max_steps: int = 10000

    def __post_init__(self):
        for name in ("step_size", "grad_tol"):
            if not (getattr(self, name) > 0):
                raise InputError(f"{name} must be positive, got {getattr(self, name)}")
        if self.max_steps < 1:
            raise InputError(f"max_steps must be >= 1, got {self.max_steps}")


@dataclass
class FlowResult:
    terminal: np.ndarray
    steps_taken: int
    converged: bool
    basin_memory_index: int | None = None
    trajectory: np.ndarray | None = None
    energies: np.ndarray | None = None


def _keys_for(keys, m: int) -> np.ndarray | None:
    """keys as an array of one value per start, or None; any other length
    raises InputError."""
    if keys is None:
        return None
    keys = np.asarray(keys)
    if keys.shape != (m,):
        raise InputError(f"keys of shape {keys.shape} for {m} starts")
    return keys


def _coordinate_rows(d: int) -> float:
    """The rows from which the flow loop's row reductions over d
    coordinates run one coordinate at a time, each operation along the
    rows: below 8 coordinates, where numpy also adds left to right, from
    64 (d - 1) rows on, the measured crossover of the two forms' call
    overheads; never from 8 up."""
    return 64 * (d - 1) if d < 8 else math.inf


def _row_norms(g: np.ndarray, by_coordinate: bool) -> np.ndarray:
    """np.sqrt((g * g).sum(axis=1)), bit for bit, taken one coordinate at
    a time by_coordinate."""
    if not by_coordinate:
        return np.sqrt((g * g).sum(axis=1))
    s = g[:, 0] * g[:, 0]
    for k in range(1, g.shape[1]):
        s += g[:, k] * g[:, k]
    return np.sqrt(s, out=s)


def _rows_differ(a: np.ndarray, b: np.ndarray, by_coordinate: bool) -> np.ndarray:
    """(a != b).any(axis=1), taken one coordinate at a time by_coordinate."""
    if not by_coordinate:
        return (a != b).any(axis=1)
    out = a[:, 0] != b[:, 0]
    for k in range(1, a.shape[1]):
        out |= a[:, k] != b[:, k]
    return out


def flow_batch(target, starts: np.ndarray, config: FlowConfig, *,
               keys: np.ndarray | None = None,
               record: bool = False,
               stop: threading.Event | None = None) -> dict:
    """Flow every row of starts to a stationary point.

    target is an evaluator: an EnergyLandscape or a LevelEnergy, or any
    object with dim and a batch energy_grad. Each evaluation of a set of
    rows (the starts, each iteration's trials, each halving's retries) is
    one target.energy_grad(x) call on those rows, or, given keys (one
    value per start, else InputError), target.energy_grad(x, keys[rows]).
    Returns arrays: terminals (m, d), steps (m,), converged (m,), failed
    (m,), fail_step (m,) and reason (m,), each row's int8 reason code.
    Rows that hit non-finite values are marked failed and frozen rather
    than aborting the batch. A row stalled at float resolution (no step
    length descends, or the accepted step leaves x bitwise unchanged) ends
    not converged; steps counts only the steps that moved it. flow's
    recorder sets record, which adds "trajectory": a snapshot of x per
    stepping iteration. In each one every active row either steps or
    leaves, so row r visited trajectory[:steps[r] + 1, r].
    stop is checked once per iteration: once it is set the batch returns
    as it stands, its active rows neither converged nor failed.

    The active rows' x, e and g live in compacted arrays, in batch-row
    order, beside act, their sorted batch rows; every active row has taken
    the same n steps. A row is written back to the outputs when it leaves
    (non-finite, converged or stalled), every iteration under record, and
    at the end if still active (max_steps or stop); reason is written at
    the stall test and at the end. Below 8 coordinates the per-row
    reductions run one coordinate at a time once the rows are many.
    """
    x = np.array(starts, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    m = x.shape[0]
    if x.shape[1] != target.dim:
        raise InputError(
            f"start dimension {x.shape[1]} != energy dimension {target.dim}")
    keys = _keys_for(keys, m)

    def energy_grad(x: np.ndarray, rows: np.ndarray) -> tuple:
        e, g = target.energy_grad(x) if keys is None else target.energy_grad(x, keys[rows])
        return np.asarray(e, dtype=np.float64).reshape(-1), g

    e, g = energy_grad(x, np.arange(m))
    steps = np.zeros(m, dtype=np.int64)
    converged = np.zeros(m, dtype=bool)
    failed = ~np.isfinite(e)
    reason = np.empty(m, dtype=np.int8)
    act = np.flatnonzero(~failed)
    xa, ea, ga = x[act], e[act], g[act]
    n = 0
    coordinate_rows = _coordinate_rows(x.shape[1])

    snapshots = [x.copy()] if record else None

    while act.size and n < config.max_steps:
        if stop is not None and stop.is_set():
            break
        by_coordinate = act.size >= coordinate_rows
        gnorm = _row_norms(ga, by_coordinate)
        bad = ~np.isfinite(gnorm)
        done = gnorm < config.grad_tol
        left = bad | done
        if left.any():
            failed[act[bad]] = True
            converged[act[done]] = True
            x[act[left]], steps[act[left]] = xa[left], n
            act, xa, ea, ga = act[~left], xa[~left], ea[~left], ga[~left]
            if not act.size:
                break

        h = config.step_size
        trial = xa - h * ga
        et, gt = energy_grad(trial, act)
        todo = np.flatnonzero(~(np.isfinite(et) & (et <= ea)))
        for _ in range(_MAX_HALVINGS - 1):
            if not todo.size:
                break
            h *= 0.5
            xh = xa[todo] - h * ga[todo]
            eh, gh = energy_grad(xh, act[todo])
            hit = np.isfinite(eh) & (eh <= ea[todo])
            rows = todo[hit]
            trial[rows], et[rows], gt[rows] = xh[hit], eh[hit], gh[hit]
            todo = todo[~hit]

        # rows at float resolution end here, not converged: those that
        # cannot descend at any step length (still in todo), and those
        # whose accepted trial leaves x bitwise unchanged (from there every
        # iteration would repeat exactly until max_steps)
        moved = _rows_differ(trial, xa, by_coordinate)
        moved[todo] = False
        if moved.all():
            xa, ea, ga = trial, et, gt
        else:
            x[act[~moved]], steps[act[~moved]] = xa[~moved], n
            reason[act[~moved]] = STALLED
            act, xa, ea, ga = act[moved], trial[moved], et[moved], gt[moved]
        n += 1
        if record:
            x[act] = xa
            snapshots.append(x.copy())

    x[act], steps[act] = xa, n
    reason[act] = MAX_STEPS if n >= config.max_steps else STOPPED
    reason[converged], reason[failed] = CONVERGED, NONFINITE
    out = {"terminals": x, "steps": steps, "converged": converged,
           "failed": failed, "fail_step": np.where(failed, steps, -1),
           "reason": reason}
    if record:
        out["trajectory"] = np.array(snapshots)
    return out


def ordered_map(fn: Callable, items: Sequence, workers: int = 1,
                stop: threading.Event | None = None):
    """Yield fn(item) for each item, in item order: on a pool of workers
    threads when workers > 1 and there is more than one item, else in
    the calling thread. This is the package's one place that starts
    threads; they only change scheduling, never what fn computes.

    The pool holds at most 2 * workers submitted calls (each future costs
    about 2 KB of Python objects), topped up as each result is read, so
    a long list of items does not hold one future per item. When the
    generator on the pool ends, is closed early or fails, stop (if given)
    is set, so calls still running can return early; calls not yet
    started are cancelled or never submitted, and the running ones waited
    for.
    """
    if workers <= 1 or len(items) <= 1:
        yield from map(fn, items)
        return
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        ahead = iter(items)
        pending = deque(pool.submit(fn, item) for item in islice(ahead, 2 * workers))
        while pending:
            result = pending.popleft().result()
            pending.extend(pool.submit(fn, item) for item in islice(ahead, 1))
            yield result
    finally:
        if stop is not None:
            stop.set()
        pool.shutdown(cancel_futures=True)


def flow_chunked(target, starts: np.ndarray, config: FlowConfig,
                 workers: int = 1, max_failures: float = math.inf, *,
                 keys: np.ndarray | None = None) -> tuple:
    """flow_batch over chunks of the batch, optionally on a thread pool.

    Given keys, one value per start, each chunk gets the keys of its rows.
    Returns (out, ok): out holds flow_batch's arrays for the rows flowed,
    and ok marks the rows that converged without failing. The chunks are
    flow_bounds(m, n, d) of the batch's m rows, the n memories its score
    pass spans (target.memories) and its d coordinates: a first CHUNK-row
    chunk, then chunks sized to a fixed cell budget. They depend on the
    batch's shape alone and a row's result does not depend on its chunk,
    so the arithmetic is identical at any worker count; threads
    (ordered_map) only change scheduling. Results are taken in chunk
    order. Once more than max_failures rows are not ok, the chunks not
    yet started are cancelled, those still running are told to stop, and
    the arrays returned end with the chunk that passed the budget, so
    where a run stops does not depend on workers.
    """
    m = starts.shape[0]
    keys = _keys_for(keys, m)
    # an empty batch still flows one (empty) chunk, for its empty arrays
    bounds = flow_bounds(max(m, 1), target.memories.n, target.dim)
    stop = threading.Event()

    def chunk(bound):
        lo, hi = bound
        return flow_batch(target, starts[lo:hi], config, stop=stop,
                          keys=None if keys is None else keys[lo:hi])

    parts, failures = [], 0
    # every chunk up to the last one read has finished when the map is
    # closed, so its stop cuts short only chunks whose rows are discarded
    with closing(ordered_map(chunk, bounds, workers, stop)) as results:
        for out in results:
            parts.append(out)
            failures += int((~out["converged"] | out["failed"]).sum())
            if failures > max_failures:
                break
    out = {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}
    return out, out["converged"] & ~out["failed"]


def flow(target, start, config: FlowConfig,
         record_trajectory: bool = False) -> FlowResult:
    """Flow a single start to a nearby stationary point.

    target is an EnergyLandscape or a LevelEnergy. The basin index is the
    nearest memory to the terminal mapped back to base space; raises
    NumericalFlowError (carrying the step index) on non-finite values.
    With record_trajectory the result keeps the visited states and their
    energies.
    """
    start = np.asarray(start, dtype=np.float64)[None, :]
    out = flow_batch(target, start, config, record=record_trajectory)
    if out["failed"][0]:
        raise NumericalFlowError(step=int(out["fail_step"][0]))
    terminal = out["terminals"][0]
    steps = int(out["steps"][0])
    result = FlowResult(terminal, steps, bool(out["converged"][0]),
                        basin_memory_index=int(target.nearest_memory(terminal)))
    if record_trajectory:
        result.trajectory = out["trajectory"][:steps + 1, 0]
        result.energies = np.asarray(target.energy(result.trajectory),
                                     dtype=np.float64).reshape(-1)
    return result


def find_minima(target, starts: Sequence[np.ndarray], config: FlowConfig,
                dedup_radius: float) -> list[np.ndarray]:
    """Distinct stationary points reached from a multistart flow, run a
    chunk at a time so memory is bounded by the chunk.

    Converged terminals are ordered by energy (coordinates break ties) and
    greedily merged when within dedup_radius of an already accepted point.
    Failed or non-converged starts are skipped and counted in the log; so
    are starts stalled at float resolution, even when their gradient is
    just above grad_tol.
    """
    starts = np.atleast_2d(np.asarray(starts, dtype=np.float64))
    if starts.shape[0] == 0:
        raise InputError("starts must be non-empty")
    if not (dedup_radius > 0):
        raise InputError(f"dedup_radius must be positive, got {dedup_radius}")
    out, ok = flow_chunked(target, starts, config)
    skipped = int((~ok).sum())
    if skipped:
        logger.warning("find_minima: skipped %d of %d starts (failed or not converged)",
                       skipped, starts.shape[0])
    terminals = out["terminals"][ok]
    if terminals.shape[0] == 0:
        return []
    energies = np.asarray(target.energy(terminals), dtype=np.float64).reshape(-1)
    order = np.lexsort(tuple(terminals[:, k] for k in range(terminals.shape[1] - 1, -1, -1))
                       + (energies,))
    accepted: list[np.ndarray] = []
    for i in order:
        t = terminals[i]
        if accepted and np.sqrt(sqdist(t, np.array(accepted)).min()) < dedup_radius:
            continue
        accepted.append(t)
    return accepted
