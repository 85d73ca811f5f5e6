"""Hierarchies of contractive abstraction maps and per-level energies.

A hierarchy is specified by its decoders psi_a (level 0 is the identity):
smooth componentwise maps from the level's latent space back to the base
space, each with Jacobian operator norm bounded by a contraction factor
c_a, strictly decreasing in the level. The energy at level a is the base
energy composed with the decoder, E_a = E o psi_a, so its Hessian picks up
a factor J^T H J (plus a curvature correction for nonlinear decoders) and
the landscape flattens as the factors shrink.

Two decoder families ship: diagonal scaling (closed-form oracles) and
componentwise scaled tanh (nonlinear, exercises the second-order term).
Both are elementwise, which keeps level gradients exact via the chain rule
with a diagonal Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from landscape_lab._seeds import derive_rng
from landscape_lab.errors import InputError
from landscape_lab.landscape import (EnergyLandscape, default_probe_radius,
                                     hessian_fd_batch, pair_tiles, spectral_norm,
                                     sqdist)

_ATANH_CLIP = 1.0 - 1e-12


class DiagonalDecoder:
    """Uniform scaling psi(z) = c * z; encode is the exact inverse."""

    def __init__(self, factor: float):
        if not (0 < factor <= 1):
            raise InputError(f"contraction factor must be in (0, 1], got {factor}")
        self.factor = float(factor)

    def decode(self, z):
        return self.factor * np.asarray(z, dtype=np.float64)

    def encode(self, x):
        return np.asarray(x, dtype=np.float64) / self.factor

    def jacobian_diag(self, z):
        return np.full_like(np.asarray(z, dtype=np.float64), self.factor)


class TanhDecoder:
    """Componentwise squash psi(z) = c * tanh(z).

    The Jacobian is diag(c * sech^2 z), so the operator norm is at most c
    with the supremum attained at the origin. encode clips its argument
    into the open interval (-c, c) before inverting; base points outside
    the decoder's range are mapped to the boundary.
    """

    def __init__(self, factor: float):
        if not (0 < factor <= 1):
            raise InputError(f"contraction factor must be in (0, 1], got {factor}")
        self.factor = float(factor)

    def decode(self, z):
        return self.factor * np.tanh(np.asarray(z, dtype=np.float64))

    def encode(self, x):
        u = np.asarray(x, dtype=np.float64) / self.factor
        return np.arctanh(np.clip(u, -_ATANH_CLIP, _ATANH_CLIP))

    def jacobian_diag(self, z):
        t = np.tanh(np.asarray(z, dtype=np.float64))
        return self.factor * (1.0 - t * t)


@dataclass
class AbstractionHierarchy:
    """Indexed family of decoders psi_a for levels a = 0..A.

    Each decoder's factor is its claimed contraction factor. Level 0 must
    be the identity (factor 1); factors are strictly decreasing afterwards.
    Construction samples each decoder's derivative to check the claimed
    Jacobian bound.
    """

    decoders: tuple
    dim: int

    def __post_init__(self):
        self.decoders = tuple(self.decoders)
        if not self.decoders:
            raise InputError("decoders must be non-empty")
        self.factors = tuple(float(d.factor) for d in self.decoders)
        if self.dim < 1:
            raise InputError("dim must be >= 1")
        if abs(self.factors[0] - 1.0) > 1e-12:
            raise InputError(f"level-0 factor must be 1, got {self.factors[0]}")
        for a, c in enumerate(self.factors):
            if not (0 < c <= 1):
                raise InputError(f"factor at level {a} must be in (0, 1], got {c}")
            if a >= 1 and not (c < self.factors[a - 1]):
                raise InputError(
                    "factors must be strictly decreasing for levels >= 1, got "
                    f"{self.factors[a - 1]} -> {c}")
        self._check_jacobian_bounds()

    def _check_jacobian_bounds(self, probes: int = 16, tol: float = 1e-6):
        rng = derive_rng(0, "hierarchy-check")
        z = np.concatenate([np.zeros((1, self.dim)),
                            2.0 * rng.standard_normal((probes, self.dim))])
        for a, (dec, c) in enumerate(zip(self.decoders, self.factors)):
            norms = _fd_jacobian_norms(dec, z)
            if norms.max() > c + tol:
                raise InputError(
                    f"decoder at level {a} exceeds its contraction factor: "
                    f"sampled Jacobian norm {norms.max():.6g} > {c}")

    @property
    def levels(self) -> int:
        """Top level index A (valid levels are 0..A)."""
        return len(self.decoders) - 1

    def check_level(self, a: int) -> int:
        if not (0 <= a <= self.levels):
            raise InputError(f"level {a} out of range 0..{self.levels}")
        return int(a)

    def level_energy(self, base: EnergyLandscape, a: int) -> "LevelEnergy":
        return LevelEnergy(base, self, self.check_level(a))


def diagonal_hierarchy(factors: Sequence[float], dim: int) -> AbstractionHierarchy:
    """Hierarchy of uniform scalings; level 0 identity is prepended."""
    decs = [DiagonalDecoder(c) for c in (1.0, *factors)]
    return AbstractionHierarchy(decs, dim)


def tanh_hierarchy(factors: Sequence[float], dim: int) -> AbstractionHierarchy:
    """Scaled-tanh hierarchy; level 0 stays the identity scaling."""
    decs = [DiagonalDecoder(1.0), *(TanhDecoder(c) for c in factors)]
    return AbstractionHierarchy(decs, dim)


@dataclass
class LevelEnergy:
    """Energy at one abstraction level: E_a(z) = E(psi_a(z)).

    Exposes the same evaluator protocol as EnergyLandscape (batch-capable
    energy, grad and the fused energy_grad, dim, memories, nearest_memory)
    so flows and Hessian probes work unchanged at any level.
    """

    base: EnergyLandscape
    hierarchy: AbstractionHierarchy
    level: int

    def __post_init__(self):
        self.level = self.hierarchy.check_level(self.level)
        self.decoder = self.hierarchy.decoders[self.level]

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def memories(self):
        return self.base.memories

    def decode(self, z):
        return self.decoder.decode(z)

    def encode(self, x):
        return self.decoder.encode(x)

    def energy(self, z):
        return self.base.energy(self.decoder.decode(z))

    def energy_grad(self, z):
        """Energy and chain-rule gradient from one base score pass."""
        z = np.asarray(z, dtype=np.float64)
        e, g = self.base.energy_grad(self.decoder.decode(z))
        return e, self.decoder.jacobian_diag(z) * g

    def grad(self, z):
        return self.energy_grad(z)[1]

    def nearest_memory(self, z) -> np.ndarray | int:
        """Nearest memory of the decoded point: classes live in base space."""
        return self.base.nearest_memory(self.decoder.decode(z))

    def encoded_memories(self) -> np.ndarray:
        return self.decoder.encode(self.base.memories.points)


@dataclass
class SmoothnessReport:
    level: int
    hessian_norm_est: float
    lipschitz_est: float

    def __post_init__(self):
        for name in ("hessian_norm_est", "lipschitz_est"):
            v = getattr(self, name)
            if not (v >= 0 and math.isfinite(v)):
                raise InputError(f"{name} must be finite and non-negative, got {v}")


def _ball_samples(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Uniform samples from the unit ball."""
    v = rng.standard_normal((count, dim))
    v /= np.sqrt((v ** 2).sum(axis=1, keepdims=True))
    r = rng.random(count) ** (1.0 / dim)
    return v * r[:, None]


def smoothness_report(hierarchy: AbstractionHierarchy,
                      base: EnergyLandscape,
                      probes: int = 256,
                      probe_radius: float | None = None,
                      seed: int = 0,
                      fd_step: float = 1e-4) -> list[SmoothnessReport]:
    """Sampled curvature and gradient-Lipschitz estimates per level.

    Probe locations are drawn once, uniformly in a ball of probe_radius
    around the memory centroid in base space, and each level evaluates at
    their pullbacks. Every level therefore estimates its supremum over the
    same base-space region, which is what makes the per-level sequences
    comparable: for diagonal decoders the estimates scale exactly as c_a^2
    times the shared base suprema.

    Estimates are sampled suprema, not certified bounds; deterministic
    given the seed.
    """
    if probes < 2:
        raise InputError(f"probes must be >= 2, got {probes}")
    if probe_radius is None:
        probe_radius = default_probe_radius(base.memories)
    if not (probe_radius > 0):
        raise InputError(f"probe_radius must be positive, got {probe_radius}")

    rng = derive_rng(seed, "smoothness-probes")
    base_pts = base.memories.centroid + probe_radius * _ball_samples(rng, probes, base.dim)

    reports = []
    for a in range(hierarchy.levels + 1):
        lvl = hierarchy.level_energy(base, a)
        z = np.asarray(lvl.encode(base_pts))
        hess = hessian_fd_batch(lvl, z, h=fd_step)
        hess_norm = float(np.max(spectral_norm(hess)))

        lips = _max_difference_quotient(np.asarray(lvl.grad(z)), z)
        reports.append(SmoothnessReport(a, hess_norm, lips))
    return reports


def _max_difference_quotient(grads: np.ndarray, z: np.ndarray) -> float:
    """Max of ||g_i - g_j|| / ||z_i - z_j|| over pairs i < j whose points
    are more than 1e-12 apart, else 0.

    Pairs are taken over the upper-triangle tiles of pair_tiles: tile
    [lo, hi) against rows lo on, so memory is bounded by TILE x m; each
    pair's quotient has the same bits wherever it is computed, and the max
    does not depend on the order of the pairs. A tile's square is bitwise
    symmetric (sqdist subtracts, then squares) and 0 on its diagonal, so
    its max is its max over i < j once pairs within 1e-12 divide by inf.
    """
    maxima = []
    for lo, hi in pair_tiles(z.shape[0]):
        dg = np.sqrt(sqdist(grads[lo:hi], grads[lo:]))
        dz = np.sqrt(sqdist(z[lo:hi], z[lo:]))
        dz[dz <= 1e-12] = np.inf
        dg /= dz
        maxima.append(dg.max())
    return float(np.max(maxima)) if maxima else 0.0


def _fd_jacobian_norms(decoder, points: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Finite-difference Jacobian operator norms at each point, from one
    decode of every shifted point and one batched SVD."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    eye = h * np.eye(points.shape[1])
    cols = (np.asarray(decoder.decode(points[:, None] + eye))
            - np.asarray(decoder.decode(points[:, None] - eye))) / (2.0 * h)
    return np.linalg.norm(cols.transpose(0, 2, 1), 2, axis=(1, 2))


def jacobian_norm_probe(hierarchy: AbstractionHierarchy,
                        a: int,
                        probes: int = 64,
                        seed: int = 0,
                        fd_step: float = 1e-6) -> float:
    """Max finite-difference Jacobian norm of the level-a decoder.

    The probe set is the origin plus seeded Gaussian draws, shared across
    levels (the draws do not depend on a), so per-level values are directly
    comparable and the strict decrease across levels is exact for both
    shipped decoder families.
    """
    a = hierarchy.check_level(a)
    if probes < 1:
        raise InputError(f"probes must be >= 1, got {probes}")
    rng = derive_rng(seed, "jacobian-probes")
    pts = np.concatenate([np.zeros((1, hierarchy.dim)),
                          rng.standard_normal((probes, hierarchy.dim))])
    return float(_fd_jacobian_norms(hierarchy.decoders[a], pts, h=fd_step).max())


# ---------------------------------------------------------------------------
# Grid-based smoothing family
# ---------------------------------------------------------------------------

def _gaussian_kernel(sigma: float) -> np.ndarray:
    radius = math.ceil(3.0 * sigma)
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (offsets / sigma) ** 2)
    return k / k.sum()


def _reflect_correlate(g: np.ndarray, k: np.ndarray, axis: int) -> np.ndarray:
    """Correlate a 2D grid with a symmetric odd-length kernel along one
    axis, with the padding and summation order that grid_smooth states."""
    r = k.size // 2
    n = g.shape[axis]
    pad = [(0, 0), (0, 0)]
    pad[axis] = (r, r)
    p = np.moveaxis(np.pad(g, pad, mode="symmetric"), axis, 0)
    acc = p[r:r + n] * k[r]
    pair = np.empty_like(acc)
    for j in range(r, 0, -1):
        np.add(p[r + j:r + j + n], p[r - j:r - j + n], out=pair)
        pair *= k[r - j]
        acc += pair
    return np.moveaxis(acc, 0, axis)


def grid_smooth(grid_energy: np.ndarray, sigma: float) -> np.ndarray:
    """Truncated-Gaussian smoothing of a 2D energy grid.

    Separable correlation with a normalized kernel k of radius
    r = ceil(3 sigma), axis 0 first, then axis 1. Each axis is padded by
    symmetric reflection, edge cells repeated (d c b a | a b c d | d c b a),
    and again when the kernel is wider than the axis. Each cell c sums in
    the order of scipy.ndimage's symmetric-kernel correlate:
    acc = p[c] * k[r], then acc += (p[c + j] + p[c - j]) * k[r - j] for
    j = r .. 1, so the result equals scipy.ndimage.convolve1d with
    mode="reflect" bit for bit. Reflection makes the smoothing commute with
    the reflected 5-point Laplacian, so the total discrete curvature (see
    total_curvature) never increases.
    """
    g = np.asarray(grid_energy, dtype=np.float64)
    if g.ndim != 2 or min(g.shape) < 3:
        raise InputError(f"grid must be 2D with >= 3 cells per side, got shape {g.shape}")
    if not (sigma > 0 and math.isfinite(sigma)):
        raise InputError(f"sigma must be positive and finite, got {sigma}")
    k = _gaussian_kernel(sigma)
    return _reflect_correlate(_reflect_correlate(g, k, 0), k, 1)


def total_curvature(grid: np.ndarray) -> float:
    """Sum of absolute 5-point Laplacian values, reflected boundary."""
    g = np.asarray(grid, dtype=np.float64)
    if g.ndim != 2:
        raise InputError(f"grid must be 2D, got shape {g.shape}")
    p = np.pad(g, 1, mode="symmetric")
    lap = (p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:] - 4.0 * g)
    return float(np.abs(lap).sum())
