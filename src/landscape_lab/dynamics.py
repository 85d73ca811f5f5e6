"""Gradient-flow retrieval, basin assignment, and merged-minimum detection.

Flows integrate x' = -grad E(x) with explicit Euler steps of length
step_size and energy backtracking: a step that would raise the energy has
its length halved until it does not, so accepted trajectories are
non-increasing in energy by construction.

flow_batch advances many starts at once. Every per-row decision (step
halving, convergence, termination) uses only that row's state, so a row's
result is bit-identical no matter how starts are grouped into batches;
callers may chunk work across threads freely. Each trial is evaluated once,
by the target's energy_grad, and an accepted trial's gradient drives the
next step.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from landscape_lab._seeds import derive_rng
from landscape_lab.errors import InputError, NumericalFlowError
from landscape_lab.landscape import sqdist

logger = logging.getLogger(__name__)

_MAX_HALVINGS = 60


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


@dataclass
class MergedMinimum:
    """Several base minima represented by one minimum of a smoother level.

    Constituents are base minima whose images in the level's space fall
    within epsilon of the level minimum.
    """

    center: np.ndarray
    constituent_indices: tuple
    epsilon: float

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float64)
        self.constituent_indices = tuple(int(i) for i in self.constituent_indices)
        if len(self.constituent_indices) < 2:
            raise InputError("a merged minimum needs at least 2 constituents")


def flow_batch(target, starts: np.ndarray, config: FlowConfig, *,
               record: bool = False) -> dict:
    """Flow every row of starts to a stationary point.

    Returns arrays: terminals (m, d), steps (m,), converged (m,), failed
    (m,) and fail_step (m,). Rows that hit non-finite values are marked
    failed and frozen rather than aborting the batch. A row stalled at
    float resolution (no step length descends, or the accepted step leaves
    x bitwise unchanged) ends not converged; steps counts only the steps
    that moved it. flow's recorder sets record, which adds "trajectory": a
    snapshot of x per stepping iteration. In each one every active row
    either steps or leaves, so row r visited trajectory[:steps[r] + 1, r].
    """
    x = np.array(starts, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] != target.dim:
        raise InputError(
            f"start dimension {x.shape[1]} != energy dimension {target.dim}")
    m = x.shape[0]

    e, g = target.energy_grad(x)
    e = np.asarray(e, dtype=np.float64).reshape(m)
    steps = np.zeros(m, dtype=np.int64)
    converged = np.zeros(m, dtype=bool)
    failed = ~np.isfinite(e)
    fail_step = np.where(failed, 0, -1).astype(np.int64)
    active = ~failed

    snapshots = [x.copy()] if record else None

    while active.any():
        idx = np.flatnonzero(active)
        gi = g[idx]
        gnorm = np.sqrt((gi * gi).sum(axis=1))

        bad = ~np.isfinite(gnorm)
        if bad.any():
            failed[idx[bad]] = True
            fail_step[idx[bad]] = steps[idx[bad]]
            active[idx[bad]] = False
        done = ~bad & (gnorm < config.grad_tol)
        if done.any():
            converged[idx[done]] = True
            active[idx[done]] = False
        moving = ~bad & ~done
        if not moving.any():
            continue

        rows = idx[moving]
        gm = gi[moving]
        scale = np.full(rows.shape[0], config.step_size)
        accepted = np.zeros(rows.shape[0], dtype=bool)
        xa, ea = x[rows], e[rows]
        xt = np.empty_like(xa)
        et = np.empty_like(ea)
        gt = np.empty_like(xa)
        for _ in range(_MAX_HALVINGS):
            todo = ~accepted
            trial = xa[todo] - scale[todo, None] * gm[todo]
            etrial, gtrial = target.energy_grad(trial)
            etrial = np.asarray(etrial, dtype=np.float64).reshape(-1)
            ok = np.isfinite(etrial) & (etrial <= ea[todo])
            sub = np.flatnonzero(todo)
            xt[sub[ok]] = trial[ok]
            et[sub[ok]] = etrial[ok]
            gt[sub[ok]] = gtrial[ok]
            accepted[sub[ok]] = True
            scale[sub[~ok]] *= 0.5
            if accepted.all():
                break

        # rows at float resolution end here, not converged: those that
        # cannot descend at any step length, and those whose accepted
        # trial leaves x bitwise unchanged (from there every iteration
        # would repeat exactly until max_steps)
        moved = accepted & (xt != xa).any(axis=1)
        stalled = ~moved
        if stalled.any():
            active[rows[stalled]] = False
        good = rows[moved]
        x[good] = xt[moved]
        e[good] = et[moved]
        g[good] = gt[moved]
        steps[good] += 1
        if record:
            snapshots.append(x.copy())

        hit = moved & (steps[rows] >= config.max_steps)
        if hit.any():
            active[rows[hit]] = False

    out = {"terminals": x, "steps": steps, "converged": converged,
           "failed": failed, "fail_step": fail_step}
    if record:
        out["trajectory"] = np.array(snapshots)
    return out


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
        raise NumericalFlowError("non-finite energy or gradient during flow",
                                 step=int(out["fail_step"][0]))
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
    """Distinct stationary points reached from a multistart flow.

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
    out = flow_batch(target, starts, config)
    ok = out["converged"] & ~out["failed"]
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


def detect_merged(level_minima: Sequence[np.ndarray],
                  base_minima: Sequence[np.ndarray],
                  base_memory_indices: Sequence[int],
                  pullback: Callable[[np.ndarray], np.ndarray],
                  epsilon: float) -> list[MergedMinimum]:
    """Group base minima represented by a single level minimum.

    pullback maps base-space points into the level's space (the encoder
    direction), so the epsilon comparison happens in the level's own
    coordinates. Only groups of two or more constituents are reported;
    epsilon = 0 is allowed and degenerates to no merges.
    """
    if epsilon < 0:
        raise InputError(f"epsilon must be non-negative, got {epsilon}")
    if len(base_minima) != len(base_memory_indices):
        raise InputError("base_minima and base_memory_indices must be parallel")
    merged = []
    if not len(base_minima):
        return merged
    pulled = np.atleast_2d(np.asarray([pullback(np.asarray(b)) for b in base_minima]))
    for z in level_minima:
        z = np.asarray(z, dtype=np.float64)
        dist = np.sqrt(sqdist(z, pulled))
        hits = np.flatnonzero(dist <= epsilon)
        if hits.shape[0] >= 2:
            idx = sorted(int(base_memory_indices[i]) for i in hits)
            merged.append(MergedMinimum(center=z, constituent_indices=idx,
                                        epsilon=epsilon))
    return merged


def _project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.flatnonzero(u + (1.0 - css) / np.arange(1, v.shape[0] + 1) > 0)[-1]
    lam = (1.0 - css[rho]) / (rho + 1.0)
    return np.maximum(v + lam, 0.0)


def merged_minimum_locate(target, constituents: Sequence[np.ndarray],
                          iters: int = 200, restarts: int = 8,
                          seed: int = 0) -> np.ndarray:
    """Lowest-energy point of the convex hull of the constituents.

    Projected gradient descent on the convex weights with backtracking,
    restarted from the uniform weights, every vertex, and seeded Dirichlet
    draws; returns the best combination found.
    """
    v = np.atleast_2d(np.asarray(constituents, dtype=np.float64))
    n = v.shape[0]
    if n < 2:
        raise InputError(f"need at least 2 constituents, got {n}")
    if v.shape[1] != target.dim:
        raise InputError("constituent dimension mismatch")

    rng = derive_rng(seed, "hull-restarts")
    inits = [np.full(n, 1.0 / n)]
    inits.extend(np.eye(n))
    inits.extend(rng.dirichlet(np.ones(n), size=max(0, int(restarts))))

    def hull_point(alpha):
        return (alpha[:, None] * v).sum(axis=0)

    best_alpha, best_e = None, np.inf
    for alpha0 in inits:
        alpha = np.asarray(alpha0, dtype=np.float64)
        e = float(target.energy(hull_point(alpha)))
        t = 1.0
        for _ in range(int(iters)):
            x = hull_point(alpha)
            g = (v * np.asarray(target.grad(x))).sum(axis=1)
            improved = False
            for _ in range(40):
                cand = _project_to_simplex(alpha - t * g)
                ec = float(target.energy(hull_point(cand)))
                if ec < e:
                    alpha, e = cand, ec
                    t *= 1.5
                    improved = True
                    break
                t *= 0.5
            if not improved:
                break
        if e < best_e:
            best_alpha, best_e = alpha, e
    return hull_point(best_alpha)

