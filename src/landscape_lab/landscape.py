"""Labeled memory sets and the canonical smooth energy landscape.

The energy of a point x against memories {x_i} at inverse temperature beta is

    E(x) = -(1/beta) * ln( sum_i exp(-beta * ||x - x_i||^2 / 2) )

a soft minimum of half squared distances. Two identities make this the
canonical choice here:

* its softmax weights w_i(x) are exactly the temperature-weighted attention
  of the soft k-NN predictor with tau = 2/beta, and
* its gradient is the convex-combination residual
  grad E(x) = x - sum_i w_i(x) x_i,
  so every critical point lies in the convex hull of the memories.

All evaluators accept a single point of shape (d,) or a batch of shape
(m, d). Every distance in the package comes from sqdist, whose docstring
states the chunk-invariance contract the evaluators inherit. sqdist gives
the bits of a plain broadcast-and-sum with no (..., n, d) temporary: below
8 coordinates it accumulates one coordinate at a time, as numpy sums fewer
than 8 terms; from 8 up it rebuilds numpy's pairwise sum with 8 (..., n)
lane accumulators, over row blocks sized to stay in cache. No path uses
BLAS, so a row's distances never depend on the batch it is computed in.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from landscape_lab.errors import InputError

_NUMERIC_TYPES = (int, float, np.integer, np.floating)

CHUNK = 1024            # rows per work item of every chunked batch routine
_BLOCK_CELLS = 65536    # (row, memory) cells per sqdist block, d >= 8
_PAIRWISE_BLOCK = 128   # numpy's pairwise_sum splits ranges longer than this


def sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances from a (d,) or (m, d) to each row of b (n, d).

    Takes float64 arrays as they are (no copy or check: this is the score
    hot path). Gives the bits of the broadcast ((a - b)**2).sum(-1) without
    its (..., n, d) temporary. Two paths, chosen by d = b.shape[1]:

    * d < 8: the squares are accumulated into the (..., n) result one
      coordinate at a time. numpy's add.reduce sums fewer than 8 terms
      left to right, so this is the broadcast's order.
    * d >= 8: numpy sums pairwise from 8 terms up, and _pairwise_sqdist
      adds the squares in that order with 8 (rows, n) lane accumulators.
      The rows of a run in blocks of _BLOCK_CELLS // n, written into the
      preallocated result, so a block's lanes stay in cache.

    Chunk-invariance contract: no path uses a BLAS expansion, and a row's
    terms are added in an order fixed by d alone, so a row's result is
    bit-identical however its batch is chunked or offset; every result
    table is worker-count independent because all distances come from here.
    """
    d = b.shape[1]
    if d >= 8:
        n = b.shape[0]
        rows = a.reshape(-1, d)
        out = np.empty((rows.shape[0], n))
        block = max(1, _BLOCK_CELLS // n)
        scratch = np.empty((8, min(block, rows.shape[0]), n))
        for lo in range(0, rows.shape[0], block):
            res = out[lo:lo + block]
            _pairwise_sqdist(rows[lo:lo + block], b, 0, d, res,
                             scratch[:, :res.shape[0]])
        return out.reshape(a.shape[:-1] + (n,))
    acc = a[..., None, 0] - b[:, 0]
    acc *= acc
    for k in range(1, d):
        t = a[..., None, k] - b[:, k]
        t *= t
        acc += t
    return acc


def _pairwise_sqdist(a: np.ndarray, b: np.ndarray, lo: int, hi: int,
                     res: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Sum of the squares t_k = (a_k - b_k)**2 over lo <= k < hi (at least
    8 terms) for a (rows, d) and b (n, d), into res (rows, n), in the order
    of numpy's pairwise_sum (Higham, Accuracy and Stability of Numerical
    Algorithms, sec. 4.2).

    Up to _PAIRWISE_BLOCK terms: lane j sums the t_k with k - lo = j mod 8
    in order, the lanes combine as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and
    the remaining (hi - lo) mod 8 terms are added last. Above it the range
    splits at a multiple of 8 near its middle and the halves are summed
    the same way, then added. scratch holds 7 lanes and one term, each
    shaped like res; res is lane 0.
    """
    m = hi - lo
    if m > _PAIRWISE_BLOCK:
        mid = lo + m // 2 - (m // 2) % 8
        _pairwise_sqdist(a, b, lo, mid, res, scratch)
        res += _pairwise_sqdist(a, b, mid, hi, np.empty_like(res), scratch)
        return res
    lanes = (res, *scratch[:7])
    t = scratch[7]
    for j, r in enumerate(lanes):
        np.subtract(a[:, None, lo + j], b[:, lo + j], out=r)
        r *= r
    tail = hi - m % 8
    for k in range(lo + 8, tail):
        np.subtract(a[:, None, k], b[:, k], out=t)
        t *= t
        r = lanes[(k - lo) % 8]
        r += t
    r0, r1, r2, r3, r4, r5, r6, r7 = lanes
    r0 += r1
    r2 += r3
    r0 += r2
    r4 += r5
    r6 += r7
    r4 += r6
    r0 += r4
    for k in range(tail, hi):
        np.subtract(a[:, None, k], b[:, k], out=t)
        t *= t
        res += t
    return res


def weighted_sum(w: np.ndarray, points: np.ndarray) -> np.ndarray:
    """sum_i w_i x_i: weights (..., n) against points (n, d), shape (..., d).

    Gives the bits of the broadcast (w[..., :, None] * points).sum(-2)
    without its (..., n, d) product. For d >= 2, einsum with its default
    optimize=False adds the memories' terms in the same order as that
    reduction. At d = 1 the reduction runs along a contiguous axis, which
    numpy sums pairwise, and only the plain row sum matches it. No BLAS
    (w @ points rounds differently), so a row's result does not depend on
    its batch. A test checks both paths against the broadcast.
    """
    if points.shape[1] == 1:
        return (w * points[:, 0]).sum(axis=-1)[..., None]
    return np.einsum("...n,nd->...d", w, points)


def _softmax(s: np.ndarray) -> tuple:
    """Max-shifted softmax of scores s (..., n), as (m, ex, z).

    m is the row max, ex = exp(s - m) and z the row sum of ex, so the
    weights are ex / z and the log-sum-exp is m + log(z). The energy, its
    weights and gradient, and the soft k-NN weights all come from here.
    """
    m = s.max(axis=-1)
    ex = np.exp(s - m[..., None])
    return m, ex, ex.sum(axis=-1)


def _is_numeric_label(label) -> bool:
    return isinstance(label, _NUMERIC_TYPES) and not isinstance(label, bool)


@dataclass
class MemorySet:
    """Labeled points in d-dimensional space: the stored training data.

    points is (n, dim) float64 and is made read-only at construction;
    duplicate rows are rejected so per-class counts stay well defined.
    """

    points: np.ndarray
    labels: tuple = field(default=())

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] == 0:
            raise InputError("points must be a non-empty (n, dim) array")
        if not np.all(np.isfinite(pts)):
            raise InputError("memory points must be finite")
        labels = tuple(self.labels)
        if len(labels) != pts.shape[0]:
            raise InputError(
                f"labels length {len(labels)} != number of points {pts.shape[0]}")
        if np.unique(pts, axis=0).shape[0] != pts.shape[0]:
            raise InputError("duplicate memory points are not allowed")
        pts.setflags(write=False)
        self.points = pts
        self.labels = labels

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def centroid(self) -> np.ndarray:
        return self.points.mean(axis=0)

    @property
    def radius(self) -> float:
        """Max distance from a memory to the centroid."""
        return float(np.sqrt(sqdist(self.centroid, self.points)).max())

    @property
    def diameter(self) -> float:
        return float(np.sqrt(sqdist(self.points, self.points)).max())

    def classes(self) -> list:
        return sorted(set(self.labels))

    def class_proportions(self) -> dict:
        n = self.n
        return {c: sum(1 for y in self.labels if y == c) / n for c in self.classes()}

    def labels_numeric(self) -> bool:
        return all(_is_numeric_label(y) for y in self.labels)


@dataclass
class EnergyLandscape:
    """Smooth energy induced by a MemorySet at inverse temperature beta.

    Immutable after construction; all evaluators are pure functions of
    their inputs and safe to share across concurrent workers.
    """

    memories: MemorySet
    beta: float

    def __post_init__(self):
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise InputError(f"beta must be a positive finite real, got {self.beta}")

    @property
    def dim(self) -> int:
        return self.memories.dim

    def _check_dim(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.dim:
            raise InputError(
                f"point dimension {x.shape[-1]} != landscape dimension {self.dim}")
        return x

    def _scores(self, x: np.ndarray) -> np.ndarray:
        """Per-memory scores -beta * ||x - x_i||^2 / 2, shape (..., n)."""
        return -0.5 * self.beta * sqdist(x, self.memories.points)

    def energy(self, x) -> np.ndarray | float:
        """Log-sum-exp energy, computed with max subtraction."""
        m, _, z = _softmax(self._scores(self._check_dim(x)))
        e = -(m + np.log(z)) / self.beta
        return float(e) if e.ndim == 0 else e

    def weights(self, x) -> np.ndarray:
        """Softmax attention over memories; non-negative, sums to 1."""
        _, ex, z = _softmax(self._scores(self._check_dim(x)))
        return ex / z[..., None]

    def energy_grad(self, x) -> tuple:
        """Energy and analytic gradient from one score pass.

        The softmax weights that normalise the log-sum-exp also give the
        gradient x - sum_i w_i x_i, so both come from the same exp. Each
        is bit-identical to what energy and weights compute alone.
        """
        x = self._check_dim(x)
        m, ex, z = _softmax(self._scores(x))
        e = -(m + np.log(z)) / self.beta
        g = x - weighted_sum(ex / z[..., None], self.memories.points)
        return (float(e) if e.ndim == 0 else e), g

    def grad(self, x) -> np.ndarray:
        """Analytic gradient: x minus the weight-averaged memory."""
        return self.energy_grad(x)[1]

    def nearest_memory(self, x) -> np.ndarray | int:
        """Index of the closest memory (ties go to the lower index), taking
        batches CHUNK rows at a time so memory is bounded by the chunk."""
        x = self._check_dim(x)
        points = self.memories.points
        if x.ndim == 1:
            return int(sqdist(x, points).argmin())
        idx = np.empty(x.shape[0], dtype=np.intp)
        for lo in range(0, x.shape[0], CHUNK):
            idx[lo:lo + CHUNK] = sqdist(x[lo:lo + CHUNK], points).argmin(axis=1)
        return idx


def default_probe_radius(memories: MemorySet) -> float:
    """Probe-ball radius around the centroid: 2x the memory radius, else 1."""
    return 2.0 * memories.radius if memories.radius > 0 else 1.0


def _hessian_stencil(x: np.ndarray, h: float) -> np.ndarray:
    """Evaluation points for one central-difference Hessian, shape (k, d).

    Layout: [x, x +- h e_i (2d points), then for each unordered pair i<j the
    four corners x +- h e_i +- h e_j in the order (++, +-, -+, --)].
    """
    d = x.shape[0]
    pts = [x]
    eye = h * np.eye(d)
    for i in range(d):
        pts.append(x + eye[i])
        pts.append(x - eye[i])
    for i in range(d):
        for j in range(i + 1, d):
            pts.append(x + eye[i] + eye[j])
            pts.append(x + eye[i] - eye[j])
            pts.append(x - eye[i] + eye[j])
            pts.append(x - eye[i] - eye[j])
    return np.array(pts)


def _assemble_hessian(values: np.ndarray, d: int, h: float) -> np.ndarray:
    """Raw (unsymmetrized) Hessian from stencil energies of one point."""
    f0 = values[0]
    hess = np.empty((d, d))
    for i in range(d):
        fp, fm = values[1 + 2 * i], values[2 + 2 * i]
        hess[i, i] = (fp - 2.0 * f0 + fm) / (h * h)
    k = 1 + 2 * d
    for i in range(d):
        for j in range(i + 1, d):
            fpp, fpm, fmp, fmm = values[k:k + 4]
            k += 4
            # both orders assembled from the same evaluations; any asymmetry
            # is summation-order roundoff, which the symmetry check bounds
            hess[i, j] = (fpp - fpm - fmp + fmm) / (4.0 * h * h)
            hess[j, i] = (fpp - fmp - fpm + fmm) / (4.0 * h * h)
    return hess


def hessian_fd(target, x, h: float = 1e-4) -> np.ndarray:
    """Symmetrized central-difference Hessian (H + H^T) / 2 at one point.

    target is anything exposing a batch-capable .energy, so the same code
    serves the base landscape and every abstraction level.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise InputError("hessian_fd expects a single point of shape (d,)")
    return hessian_fd_batch(target, x[None], h)[0]


def hessian_fd_batch(target, points: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Hessians at many points with a single batched energy call, (m, d, d)."""
    if not (h > 0):
        raise InputError(f"finite-difference step must be positive, got {h}")
    points = np.asarray(points, dtype=np.float64)
    m, d = points.shape
    stencils = np.concatenate([_hessian_stencil(p, h) for p in points], axis=0)
    values = np.asarray(target.energy(stencils)).reshape(m, -1)
    hessians = np.empty((m, d, d))
    for r in range(m):
        raw = _assemble_hessian(values[r], d, h)
        hessians[r] = 0.5 * (raw + raw.T)
    return hessians


def spectral_norm(h: np.ndarray) -> np.ndarray | float:
    """Largest absolute eigenvalue of one or a batch of symmetric matrices."""
    ev = np.abs(np.linalg.eigvalsh(h)).max(axis=-1)
    return float(ev) if ev.ndim == 0 else ev


# ---------------------------------------------------------------------------
# Memory-set I/O and synthesis
# ---------------------------------------------------------------------------

def _parse_label(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def load_memory_csv(path) -> MemorySet:
    """Load a memory set from CSV with columns x_0..x_{d-1}, label."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty file, header required") from None
        expected = [f"x_{i}" for i in range(len(header) - 1)] + ["label"]
        if header != expected:
            raise InputError(
                f"{path}: header must be x_0..x_{{d-1}},label, got {header}")
        dim = len(header) - 1
        points, labels = [], []
        for row in reader:
            if not row:
                continue
            if len(row) != dim + 1:
                raise InputError(f"{path}: row has {len(row)} fields, expected {dim + 1}")
            points.append([float(v) for v in row[:dim]])
            labels.append(_parse_label(row[dim]))
    if not points:
        raise InputError(f"{path}: no data rows")
    return MemorySet(np.array(points), tuple(labels))


def save_memory_csv(memories: MemorySet, path) -> None:
    """Write a memory set in the CSV interchange format (LF, '.' decimals)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"x_{i}" for i in range(memories.dim)] + ["label"])
        for row, label in zip(memories.points, memories.labels):
            writer.writerow([repr(float(v)) for v in row] + [label])


def gaussian_blobs(dim: int,
                   class_counts: Sequence[int],
                   spread: float = 0.25,
                   seed: int = 0,
                   center_scale: float = 2.0,
                   labels: Sequence | None = None,
                   centers: np.ndarray | None = None) -> MemorySet:
    """Synthesize Gaussian class blobs with configurable per-class counts."""
    from landscape_lab._seeds import derive_rng

    if dim < 1 or any(c < 1 for c in class_counts):
        raise InputError("dim and every class count must be >= 1")
    if labels is None:
        labels = list(range(len(class_counts)))
    if len(labels) != len(class_counts):
        raise InputError("labels must parallel class_counts")
    rng = derive_rng(seed, "blobs")
    if centers is None:
        centers = center_scale * rng.standard_normal((len(class_counts), dim))
    else:
        centers = np.asarray(centers, dtype=np.float64)
    points, ys = [], []
    for center, count, label in zip(centers, class_counts, labels):
        points.append(center + spread * rng.standard_normal((count, dim)))
        ys.extend([label] * count)
    return MemorySet(np.concatenate(points, axis=0), tuple(ys))
