"""Independent oracles used to freeze expected values.

Everything here is implemented directly from first principles (plain
formulas, brute force, enumeration, quadrature) and never calls back into
the code paths it is used to check. The exceptions are earlier forms of
census, dynamics and knn code kept to check the current ones.
flow_batch_reference, the flow loop, evaluates through its target's energy_grad, with keys the way
flow_batch passes them, so that both loops' evaluations can be logged and
compared call by call; KeyedEvaluators, the keyed evaluator that tests
flow, runs each run of equal keys through that key's own evaluator.
merged_minima, find_minima's earlier merge, takes its distances from
landscape.sqdist, so that the one-pass merge must match it bit for bit.
ResampledLandscape, one bootstrap round's own landscape and the per-round
reference for census's one-pass rounds, overrides the landscape's scores.
knn_mean_distances_serial, the privacy reduction, takes its distances from
landscape.sqdist, so that the pooled reduction must match it bit for bit.
attendance_weights, one query's weights at its own flow terminal, takes
its flow from dynamics.flow, so that the knn table's batched k_equivalent
column must match it bit for bit.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq
from scipy.stats import norm

from landscape_lab import dynamics
from landscape_lab.abstraction import TanhDecoder
from landscape_lab.errors import InputError
from landscape_lab.knn import SoftWeights
from landscape_lab.landscape import CHUNK, EnergyLandscape, MemorySet, sqdist


def lse_energy_1d(points, beta, x):
    """Direct scalar evaluation of the 1D log-sum-exp energy.

    Shifted by the max exponent so far-field evaluations do not underflow.
    """
    exps = [-beta * (x - m) ** 2 / 2.0 for m in points]
    top = max(exps)
    return -(top + math.log(sum(math.exp(e - top) for e in exps))) / beta


def lse_energy_nd(points, beta, x):
    terms = [math.exp(-beta * sum((xi - mi) ** 2 for xi, mi in zip(x, m)) / 2.0)
             for m in points]
    return -math.log(sum(terms)) / beta


def central_diff_gradient(f, x, h=1e-6):
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def analytic_hessian(points, beta, x):
    """Closed-form Hessian of the log-sum-exp energy.

    Derivation: grad E = x - sum w_i x_i with w = softmax(-beta |x-x_i|^2/2),
    and d(sum w_i x_i)/dx = beta * Cov_w(x_i), so H = I - beta * Cov_w(x_i).
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    w, mean = _weighted_mean(points, beta, x)
    cov = (w[:, None, None] * (points[:, :, None] - mean[:, None])
           * (points[:, None, :] - mean[None, :])).sum(axis=0)
    return np.eye(points.shape[1]) - beta * cov


def _weighted_mean(points, beta, x):
    """Softmax weights w = softmax(-beta |x - x_i|^2 / 2) and sum w_i x_i."""
    s = -0.5 * beta * ((np.asarray(x, dtype=np.float64) - points) ** 2).sum(axis=1)
    s -= s.max()
    w = np.exp(s)
    w /= w.sum()
    return w, (w[:, None] * points).sum(axis=0)


def analytic_level_hessian(landscape, decoder, z):
    """Closed-form Hessian of a level energy E(psi(z)) at one point z.

    Derivation: psi is elementwise, so d(E o psi)/dz_j = psi'_j g_j(psi(z))
    with g = grad E, and d/dz_i of that is psi'_i H_ij psi'_j + delta_ij
    psi''_i g_i: J H(psi(z)) J + diag(psi''(z) * grad E(psi(z))) with
    J = diag(psi'(z)). psi, psi' and psi'' come from the decoder's factor c
    alone: c z, c and 0 for the diagonal decoder; c tanh z, c sech^2 z and
    -2c tanh z sech^2 z for the tanh decoder.
    """
    points = landscape.memories.points
    z = np.asarray(z, dtype=np.float64)
    c = decoder.factor
    if isinstance(decoder, TanhDecoder):
        t = np.tanh(z)
        x, jac, curv = c * t, c * (1.0 - t * t), -2.0 * c * t * (1.0 - t * t)
    else:
        x, jac, curv = c * z, np.full_like(z, c), np.zeros_like(z)
    grad = x - _weighted_mean(points, landscape.beta, x)[1]
    return (jac[:, None] * analytic_hessian(points, landscape.beta, x) * jac[None, :]
            + np.diag(curv * grad))


def fd_jacobian_norms(decoder, points, h):
    """Central-difference Jacobian operator norm of decoder at each point:
    one column per coordinate shift, one column_stack and one 2-norm (an
    SVD) per point."""
    eye = h * np.eye(points.shape[1])
    return np.array([np.linalg.norm(np.column_stack(
        [(decoder.decode(x + e) - decoder.decode(x - e)) / (2.0 * h) for e in eye]), 2)
        for x in points])


def _gradient_1d(points, beta, x):
    """Analytic gradient x - sum_i w_i x_i of the 1D energy at each x, with
    the softmax weights w_i(x) shifted by their max exponent."""
    s = -0.5 * beta * (x[:, None] - points[None, :]) ** 2
    w = np.exp(s - s.max(axis=1, keepdims=True))
    return x - (w * points).sum(axis=1) / w.sum(axis=1)


def basins_1d(points, beta, grid=200001):
    """Sorted interior maxima and minima of the 1D energy, as two arrays.

    Every critical point lies in the memories' hull, where the analytic
    gradient's sign changes on a grid of that many points, each refined
    by brentq: - to + is a minimum, + to - a maximum. The grid reaches a
    little past the hull, where the gradient is nonzero, so that a
    minimum within roundoff of an outer memory is still bracketed. Minima
    and maxima alternate, with one minimum more, so the basin between
    maxima j - 1 and j (the outer basins unbounded) drains to minimum j.
    """
    points = np.asarray(points, dtype=np.float64).ravel()
    pad = 1e-3 * (points.max() - points.min()) + 1e-9
    xs = np.linspace(points.min() - pad, points.max() + pad, grid)
    g = np.concatenate([_gradient_1d(points, beta, part)
                        for part in np.array_split(xs, max(1, grid // 20000))])

    def grad(x):
        return float(_gradient_1d(points, beta, np.array([x]))[0])

    def roots(cells):
        return np.array([brentq(grad, xs[i], xs[i + 1], xtol=1e-15) for i in cells])

    maxima = roots(np.flatnonzero((g[:-1] > 0) & (g[1:] <= 0)))
    minima = roots(np.flatnonzero((g[:-1] < 0) & (g[1:] >= 0)))
    return maxima, minima


def minima_1d(points, beta):
    """Local minima of the 1D energy, ascending (basins_1d)."""
    return basins_1d(points, beta)[1].tolist()


def basin_class_probabilities_1d(points, labels, beta, center, sigma):
    """Query-measure mass per class, integrated over 1D basins.

    Basin boundaries are the landscape's interior maxima (basins_1d); each
    interval between consecutive boundaries drains to one minimum,
    classified by its nearest memory, and holds the N(center, sigma^2)
    mass between its bounds.
    """
    maxima, minima = basins_1d(points, beta)
    cdf = norm.cdf(np.concatenate([[-np.inf], maxima, [np.inf]]), loc=center, scale=sigma)
    mass = {}
    for target, p in zip(minima, np.diff(cdf)):
        label = labels[int(np.argmin([abs(target - m) for m in points]))]
        mass[label] = mass.get(label, 0.0) + float(p)
    return mass


def knn_bruteforce(points, labels, q, k):
    """Exhaustive sort-based k-NN with lower-index tie breaking."""
    scored = sorted((sum((a - b) ** 2 for a, b in zip(p, q)), i)
                    for i, p in enumerate(points))
    chosen = [labels[i] for _, i in scored[:k]]
    if all(isinstance(y, (int, float)) and not isinstance(y, bool) for y in chosen):
        return sum(chosen) / k
    dist = {}
    for y in chosen:
        dist[y] = dist.get(y, 0.0) + 1.0 / k
    return dist


def coarse_share_enumeration(p):
    """Expected red share of one 2x2 majority step, from all 16 configs."""
    total = 0.0
    for cfg in itertools.product((0, 1), repeat=4):
        prob = 1.0
        for c in cfg:
            prob *= p if c == 1 else (1.0 - p)
        reds = sum(cfg)
        if reds > 2:
            win = 1.0
        elif reds == 2:
            win = 0.5
        else:
            win = 0.0
        total += prob * win
    return total


def merge_outcome_enumeration(p_count, q_count, s_count):
    """Exact (pure_majority, pure_minority, mixed) probabilities."""
    pa = p_count / (p_count + q_count)
    pure_a = pure_b = mixed = 0.0
    for cfg in itertools.product((0, 1), repeat=s_count):
        prob = 1.0
        for c in cfg:
            prob *= pa if c == 1 else (1.0 - pa)
        if all(cfg):
            pure_a += prob
        elif not any(cfg):
            pure_b += prob
        else:
            mixed += prob
    return pure_a, pure_b, mixed


@dataclass
class ResampledLandscape(EnergyLandscape):
    """Energy of a bootstrap multiset: duplicate draws become log-count
    offsets on the scores, which is exactly the multiset log-sum-exp.
    drawn holds the distinct memories' indices in the set drawn from, in
    ascending order, the order of memories. nearest_memory is inherited:
    a basin's class ignores the draw counts."""

    log_counts: np.ndarray = field(default=None)
    drawn: np.ndarray = field(default=None)

    def _scores(self, x, by_memory=False):
        s = super()._scores(x, by_memory)
        s += self.log_counts[:, None] if by_memory else self.log_counts
        return s


def round_landscape(landscape, log_counts):
    """The ResampledLandscape of one bootstrap round, from its (n,) row of
    log-counts on landscape's memories (-inf where not drawn)."""
    drawn = np.flatnonzero(np.isfinite(log_counts))
    mem = landscape.memories
    sub = MemorySet(mem.points[drawn], tuple(mem.labels[i] for i in drawn))
    return ResampledLandscape(sub, landscape.beta, log_counts=log_counts[drawn], drawn=drawn)


class KeyedEvaluators:
    """A keyed evaluator over several evaluators: energy_grad(x, keys)
    evaluates each run of consecutive points with equal keys by one
    energy_grad call of evaluators[key] on that slice of the points alone.
    memories are those of the evaluator with the most, which a score pass
    of one call spans."""

    def __init__(self, evaluators):
        self.evaluators = tuple(evaluators)
        self.dim = self.evaluators[0].dim

    @property
    def memories(self):
        return max((t.memories for t in self.evaluators), key=lambda ms: ms.n)

    def energy_grad(self, x, keys):
        edges = np.flatnonzero(np.diff(keys, prepend=-1, append=-1))
        e = np.empty(x.shape[0])
        g = np.empty_like(x)
        for lo, hi in zip(edges[:-1], edges[1:]):
            e[lo:hi], g[lo:hi] = self.evaluators[keys[lo]].energy_grad(x[lo:hi])
        return e, g


def flow_batch_reference(target, starts, config, *, keys=None, record=False, stop=None,
                         rounds=True):
    """The flow loop over full-batch state that flow_batch replaced: each
    iteration finds the active rows again (idx, rows, sub, good) and fills
    an xt/et/gt scratch trio for the accepted trials. Same arguments and
    outputs as dynamics.flow_batch; a row still active when stop ends the
    loop keeps the reason STOPPED.

    After a step's first trial, the rejected rows halve it. With rounds,
    they take their halvings in flow_batch's rounds: each round evaluates
    the next lengths of every row still rejected in one call, twice as
    many as the last round, but no more than fit in dynamics._ROUND_ROWS
    rows and at least one, and each row takes its first length that
    descends. rounds=False is the schedule flow_batch had before: one
    halving per call."""
    x = np.array(starts, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    m = x.shape[0]
    if x.shape[1] != target.dim:
        raise InputError(
            f"start dimension {x.shape[1]} != energy dimension {target.dim}")
    keys = None if keys is None else np.asarray(keys)
    if keys is not None and keys.shape != (m,):
        raise InputError(f"keys of shape {keys.shape} for {m} starts")

    def energy_grad(x, rows):
        e, g = target.energy_grad(x) if keys is None else target.energy_grad(x, keys[rows])
        return np.asarray(e, dtype=np.float64).reshape(-1), g

    e, g = energy_grad(x, np.arange(m))
    steps = np.zeros(m, dtype=np.int64)
    converged = np.zeros(m, dtype=bool)
    failed = ~np.isfinite(e)
    fail_step = np.where(failed, 0, -1).astype(np.int64)
    reason = np.where(failed, dynamics.NONFINITE, dynamics.STOPPED).astype(np.int8)
    active = ~failed

    snapshots = [x.copy()] if record else None

    while active.any():
        if stop is not None and stop.is_set():
            break
        idx = np.flatnonzero(active)
        gi = g[idx]
        gnorm = np.sqrt((gi * gi).sum(axis=1))

        bad = ~np.isfinite(gnorm)
        if bad.any():
            failed[idx[bad]] = True
            fail_step[idx[bad]] = steps[idx[bad]]
            reason[idx[bad]] = dynamics.NONFINITE
            active[idx[bad]] = False
        done = ~bad & (gnorm < config.grad_tol)
        if done.any():
            converged[idx[done]] = True
            reason[idx[done]] = dynamics.CONVERGED
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

        def evaluate(sub, scales):
            # one call for rows sub, each at its own row of scales; a row
            # takes the first of its scales whose trial descends
            cand = np.repeat(sub, scales.shape[1])
            trial = xa[cand] - scales.reshape(-1, 1) * gm[cand]
            etrial, gtrial = energy_grad(trial, rows[cand])
            ok = (np.isfinite(etrial) & (etrial <= ea[cand])).reshape(scales.shape)
            for i, r in enumerate(sub):
                if ok[i].any():
                    c = i * scales.shape[1] + int(np.flatnonzero(ok[i])[0])
                    xt[r], et[r], gt[r] = trial[c], etrial[c], gtrial[c]
                    accepted[r] = True

        evaluate(np.arange(rows.shape[0]), scale[:, None])
        tried, span = 0, 1
        while tried < 59 and not accepted.all():
            sub = np.flatnonzero(~accepted)
            lengths = 1
            if rounds:
                lengths = min(span, 59 - tried, max(1, dynamics._ROUND_ROWS // sub.shape[0]))
            scales = np.empty((sub.shape[0], lengths))
            for j in range(lengths):
                scale[sub] *= 0.5
                scales[:, j] = scale[sub]
            evaluate(sub, scales)
            tried, span = tried + lengths, 2 * lengths

        moved = accepted & (xt != xa).any(axis=1)
        stalled = ~moved
        if stalled.any():
            reason[rows[stalled]] = dynamics.STALLED
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
            reason[rows[hit]] = dynamics.MAX_STEPS
            active[rows[hit]] = False

    out = {"terminals": x, "steps": steps, "converged": converged,
           "failed": failed, "fail_step": fail_step, "reason": reason}
    if record:
        out["trajectory"] = np.array(snapshots)
    return out


def merged_minima(terminals, energies, dedup_radius):
    """The candidate-by-candidate merge that find_minima's one pass per
    accepted minimum replaced: the terminals ordered by energy, then
    coordinates, each accepted unless within dedup_radius of a point
    accepted before it."""
    order = np.lexsort(tuple(terminals[:, k] for k in range(terminals.shape[1] - 1, -1, -1))
                       + (energies,))
    accepted = []
    for i in order:
        t = terminals[i]
        if accepted and np.sqrt(sqdist(t, np.array(accepted)).min()) < dedup_radius:
            continue
        accepted.append(t)
    return accepted


def knn_mean_distances_serial(points, references, ks=(1, 2, 5, 10)):
    """The one-thread privacy loop that census._knn_mean_distances replaced:
    per CHUNK-row block, the mean distance to the k nearest references,
    summed over rows and added to each k's total in block order."""
    n_ref = references.shape[0]
    sums = {k: 0.0 for k in ks}
    for lo in range(0, points.shape[0], CHUNK):
        d = np.sqrt(sqdist(points[lo:lo + CHUNK], references))
        d.sort(axis=1)
        for k in ks:
            kk = min(k, n_ref)
            sums[k] += float(d[:, :kk].mean(axis=1).sum())
    m = points.shape[0]
    return {k: (sums[k] / m if m else 0.0) for k in ks}


def attendance_weights(ls, q, cfg):
    """The weights of landscape ls at the flow terminal of query q, as
    SoftWeights at tau = 2 / beta; their effective_count is the knn
    table's k_equivalent."""
    return SoftWeights(ls.weights(dynamics.flow(ls, q, cfg).terminal), 2.0 / ls.beta)
