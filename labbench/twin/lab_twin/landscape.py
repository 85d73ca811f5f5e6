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
(m, d). Batched reductions are written with explicit broadcast-and-sum
(never BLAS matmul) so each row's result is bit-identical regardless of how
a batch is chunked; the Monte Carlo census relies on this for
worker-count-independent determinism.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from lab_twin.errors import InputError

_NUMERIC_TYPES = (int, float, np.integer, np.floating)


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
        return float(np.sqrt(((self.points - self.centroid) ** 2).sum(axis=1)).max())

    @property
    def diameter(self) -> float:
        diffs = self.points[:, None, :] - self.points[None, :, :]
        return float(np.sqrt((diffs ** 2).sum(axis=-1)).max())

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
        diff = x[..., None, :] - self.memories.points
        return -0.5 * self.beta * np.square(diff).sum(axis=-1)

    def energy(self, x) -> np.ndarray | float:
        """Log-sum-exp energy, computed with max subtraction."""
        s = self._scores(self._check_dim(x))
        m = s.max(axis=-1)
        lse = m + np.log(np.exp(s - m[..., None]).sum(axis=-1))
        e = -lse / self.beta
        return float(e) if e.ndim == 0 else e

    def weights(self, x) -> np.ndarray:
        """Softmax attention over memories; non-negative, sums to 1."""
        s = self._scores(self._check_dim(x))
        s = s - s.max(axis=-1, keepdims=True)
        w = np.exp(s)
        return w / w.sum(axis=-1, keepdims=True)

    def grad(self, x) -> np.ndarray:
        """Analytic gradient: x minus the weight-averaged memory."""
        x = self._check_dim(x)
        w = self.weights(x)
        attended = (w[..., :, None] * self.memories.points).sum(axis=-2)
        return x - attended

    def base_point(self, x) -> np.ndarray:
        """Identity; mirrors LevelEnergy's decode-to-base-space hook."""
        return self._check_dim(x)

    def nearest_memory(self, x) -> np.ndarray | int:
        """Index of the closest memory (ties go to the lower index)."""
        x = self._check_dim(x)
        diff = x[..., None, :] - self.memories.points
        idx = np.square(diff).sum(axis=-1).argmin(axis=-1)
        return int(idx) if idx.ndim == 0 else idx


def energy(landscape: EnergyLandscape, x) -> float:
    return landscape.energy(x)


def grad_energy(landscape: EnergyLandscape, x) -> np.ndarray:
    return landscape.grad(x)


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


def hessian_fd_raw(target, x, h: float = 1e-4) -> np.ndarray:
    """Central-difference Hessian before symmetrization."""
    if not (h > 0):
        raise InputError(f"finite-difference step must be positive, got {h}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise InputError("hessian_fd expects a single point of shape (d,)")
    values = np.asarray(target.energy(_hessian_stencil(x, h)))
    return _assemble_hessian(values, x.shape[0], h)


def hessian_fd(target, x, h: float = 1e-4) -> np.ndarray:
    """Symmetrized central-difference Hessian (H + H^T) / 2.

    target is anything exposing a batch-capable .energy, so the same code
    serves the base landscape and every abstraction level.
    """
    raw = hessian_fd_raw(target, x, h)
    return 0.5 * (raw + raw.T)


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
    from lab_twin._seeds import derive_rng

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
