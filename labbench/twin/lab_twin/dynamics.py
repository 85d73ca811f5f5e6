"""Gradient-flow retrieval, basin assignment, and merged-minimum detection.

Flows integrate x' = -(1/tau_rate) * grad E(x) with explicit Euler steps
and energy backtracking: a step that would raise the energy has its length
halved until it does not, so accepted trajectories are non-increasing in
energy by construction. tau_rate only reparameterizes time; the terminal
set is unchanged.

flow_batch advances many starts at once. Every per-row decision (step
halving, convergence, termination) uses only that row's state, so a row's
result is bit-identical no matter how starts are grouped into batches;
callers may chunk work across threads freely.
"""

from __future__ import annotations

import csv
import logging
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from lab_twin._seeds import derive_rng
from lab_twin.errors import InputError, NumericalFlowError
from lab_twin.landscape import hessian_fd_batch, spectral_norm

logger = logging.getLogger(__name__)

_MAX_HALVINGS = 60


@dataclass
class FlowConfig:
    """Integration parameters for the descent flow.

    If lipschitz_hint is supplied (an estimate of the gradient's Lipschitz
    constant), construction warns when the effective step size violates the
    explicit-Euler stability bound step * L < 2; backtracking still keeps
    such flows descending, just slowly.
    """

    step_size: float = 1.0
    grad_tol: float = 1e-8
    max_steps: int = 10000
    tau_rate: float = 1.0
    lipschitz_hint: float | None = None

    def __post_init__(self):
        for name in ("step_size", "grad_tol", "tau_rate"):
            if not (getattr(self, name) > 0):
                raise InputError(f"{name} must be positive, got {getattr(self, name)}")
        if self.max_steps < 1:
            raise InputError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.lipschitz_hint is not None:
            if (self.step_size / self.tau_rate) * self.lipschitz_hint >= 2.0:
                warnings.warn(
                    "step_size times estimated Lipschitz constant is >= 2; "
                    "explicit integration may rely on backtracking",
                    stacklevel=2)


def estimate_lipschitz(target, seed: int = 0, probes: int = 32,
                       radius: float | None = None) -> float:
    """Sampled gradient-Lipschitz estimate (max Hessian norm near the data)."""
    mem = target.memories
    if radius is None:
        radius = 2.0 * mem.radius if mem.radius > 0 else 1.0
    rng = derive_rng(seed, "lipschitz-probes")
    pts = mem.centroid + radius * rng.standard_normal((probes, target.dim))
    if hasattr(target, "encode"):
        pts = np.asarray(target.encode(pts))
    return float(np.max(spectral_norm(hessian_fd_batch(target, pts))))


def stable_flow_config(target, seed: int = 0, **overrides) -> FlowConfig:
    """FlowConfig with step_size chosen against a sampled Lipschitz estimate."""
    lip = estimate_lipschitz(target, seed=seed)
    step = overrides.pop("step_size", min(0.25, 1.0 / max(lip, 1e-9)))
    return FlowConfig(step_size=step, lipschitz_hint=lip, **overrides)


@dataclass
class FlowResult:
    terminal: np.ndarray
    steps_taken: int
    converged: bool
    basin_memory_index: int | None = None
    merged_cluster_id: int | None = None
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


def flow_batch(target, starts: np.ndarray, config: FlowConfig) -> dict:
    """Flow every row of starts to a stationary point.

    Returns arrays: terminals (m, d), steps (m,), converged (m,), failed
    (m,) and fail_step (m,). Rows that hit non-finite values are marked
    failed and frozen rather than aborting the batch.
    """
    x = np.array(starts, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] != target.dim:
        raise InputError(
            f"start dimension {x.shape[1]} != energy dimension {target.dim}")
    m = x.shape[0]

    e = np.asarray(target.energy(x), dtype=np.float64).reshape(m)
    steps = np.zeros(m, dtype=np.int64)
    converged = np.zeros(m, dtype=bool)
    failed = ~np.isfinite(e)
    fail_step = np.where(failed, 0, -1).astype(np.int64)
    active = ~failed

    base_step = config.step_size / config.tau_rate

    while active.any():
        idx = np.flatnonzero(active)
        g = np.asarray(target.grad(x[idx]))
        gnorm = np.sqrt((g * g).sum(axis=1))

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
        gm = g[moving]
        scale = np.full(rows.shape[0], base_step)
        accepted = np.zeros(rows.shape[0], dtype=bool)
        xa, ea = x[rows], e[rows]
        xt = np.empty_like(xa)
        et = np.empty_like(ea)
        for _ in range(_MAX_HALVINGS):
            todo = ~accepted
            trial = xa[todo] - scale[todo, None] * gm[todo]
            etrial = np.asarray(target.energy(trial), dtype=np.float64).reshape(-1)
            ok = np.isfinite(etrial) & (etrial <= ea[todo])
            sub = np.flatnonzero(todo)
            xt[sub[ok]] = trial[ok]
            et[sub[ok]] = etrial[ok]
            accepted[sub[ok]] = True
            scale[sub[~ok]] *= 0.5
            if accepted.all():
                break

        # rows that cannot descend at any step length are at float resolution
        stalled = ~accepted
        if stalled.any():
            active[rows[stalled]] = False
        good = rows[accepted]
        x[good] = xt[accepted]
        e[good] = et[accepted]
        steps[good] += 1

        hit = accepted & (steps[rows] >= config.max_steps)
        if hit.any():
            active[rows[hit]] = False

    return {"terminals": x, "steps": steps, "converged": converged,
            "failed": failed, "fail_step": fail_step}


def flow(target, start, config: FlowConfig,
         record_trajectory: bool = False) -> FlowResult:
    """Flow a single start to a nearby stationary point.

    target is an EnergyLandscape or a LevelEnergy. The basin index is the
    nearest memory to the terminal mapped back to base space; raises
    NumericalFlowError (carrying the step index) on non-finite values.
    """
    start = np.asarray(start, dtype=np.float64)
    if record_trajectory:
        return _flow_recorded(target, start, config)
    out = flow_batch(target, start[None, :], config)
    if out["failed"][0]:
        raise NumericalFlowError("non-finite energy or gradient during flow",
                                 step=int(out["fail_step"][0]))
    terminal = out["terminals"][0]
    return FlowResult(
        terminal=terminal,
        steps_taken=int(out["steps"][0]),
        converged=bool(out["converged"][0]),
        basin_memory_index=_basin_index(target, terminal),
    )


def _flow_recorded(target, start: np.ndarray, config: FlowConfig) -> FlowResult:
    """Single-row flow that keeps the visited states and energies.

    Mirrors flow_batch's per-row arithmetic exactly (same operations on
    shape-(1, d) slices) so recorded and unrecorded flows agree bitwise.
    """
    out = flow_batch(target, start[None, :], config)
    if out["failed"][0]:
        raise NumericalFlowError("non-finite energy or gradient during flow",
                                 step=int(out["fail_step"][0]))
    # replay step by step; cheap relative to the flow itself for desk scale
    states = [start.copy()]
    cfg1 = FlowConfig(step_size=config.step_size, grad_tol=config.grad_tol,
                      max_steps=1, tau_rate=config.tau_rate)
    x = start
    for _ in range(int(out["steps"][0])):
        x = flow_batch(target, x[None, :], cfg1)["terminals"][0]
        states.append(x.copy())
    trajectory = np.array(states)
    energies = np.asarray(target.energy(trajectory), dtype=np.float64).reshape(-1)
    return FlowResult(
        terminal=out["terminals"][0],
        steps_taken=int(out["steps"][0]),
        converged=bool(out["converged"][0]),
        basin_memory_index=_basin_index(target, out["terminals"][0]),
        trajectory=trajectory,
        energies=energies,
    )


def _basin_index(target, terminal: np.ndarray) -> int:
    base_pt = np.asarray(target.base_point(terminal))
    d2 = ((target.memories.points - base_pt) ** 2).sum(axis=1)
    return int(d2.argmin())


def find_minima(target, starts: Sequence[np.ndarray], config: FlowConfig,
                dedup_radius: float) -> list[np.ndarray]:
    """Distinct stationary points reached from a multistart flow.

    Converged terminals are ordered by energy (coordinates break ties) and
    greedily merged when within dedup_radius of an already accepted point.
    Failed or non-converged starts are skipped and counted in the log.
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
        if accepted:
            dmin = min(float(np.sqrt(((t - a) ** 2).sum())) for a in accepted)
            if dmin < dedup_radius:
                continue
        accepted.append(t)
    return accepted


def default_dedup_radius(memories) -> float:
    """Default merge radius: 10% of the memory-set diameter."""
    d = memories.diameter
    return 0.1 * d if d > 0 else 0.1


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
        dist = np.sqrt(((pulled - z) ** 2).sum(axis=1))
        hits = np.flatnonzero(dist <= epsilon)
        if hits.shape[0] >= 2:
            idx = sorted(int(base_memory_indices[i]) for i in hits)
            merged.append(MergedMinimum(center=z, constituent_indices=idx,
                                        epsilon=epsilon))
    return merged


def attach_merged_ids(results: Sequence[FlowResult],
                      merged: Sequence[MergedMinimum]) -> None:
    """Annotate flow results with the index of the merged minimum they hit."""
    for r in results:
        r.merged_cluster_id = None
        for mid, mm in enumerate(merged):
            if np.sqrt(((r.terminal - mm.center) ** 2).sum()) <= mm.epsilon:
                r.merged_cluster_id = mid
                break


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


# ---------------------------------------------------------------------------
# CSV dumps
# ---------------------------------------------------------------------------

def write_trajectory_csv(path, target, starts: Sequence[np.ndarray],
                         config: FlowConfig) -> None:
    """Dump recorded trajectories: start_id, step, x_0.., energy."""
    starts = np.atleast_2d(np.asarray(starts, dtype=np.float64))
    d = starts.shape[1]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["start_id", "step"] + [f"x_{k}" for k in range(d)] + ["energy"])
        for sid, q in enumerate(starts):
            res = flow(target, q, config, record_trajectory=True)
            for step, (xrow, erow) in enumerate(zip(res.trajectory, res.energies)):
                writer.writerow([sid, step] + [repr(float(c)) for c in xrow]
                                + [repr(float(erow))])


def write_minima_csv(path, target, minima: Sequence[np.ndarray], level: int = 0,
                     merged: Sequence[MergedMinimum] | None = None) -> None:
    """Dump located minima: level, min_id, x_0.., energy, n_constituents."""
    minima = [np.asarray(m, dtype=np.float64) for m in minima]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        d = minima[0].shape[0] if minima else target.dim
        writer.writerow(["level", "min_id"] + [f"x_{k}" for k in range(d)]
                        + ["energy", "n_constituents"])
        for mid, x in enumerate(minima):
            count = 1
            if merged:
                for mm in merged:
                    if np.sqrt(((x - mm.center) ** 2).sum()) <= mm.epsilon:
                        count = len(mm.constituent_indices)
                        break
            writer.writerow([level, mid] + [repr(float(c)) for c in x]
                            + [repr(float(target.energy(x))), count])
