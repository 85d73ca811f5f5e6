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
from scipy.ndimage import convolve1d

from lab_twin._seeds import derive_rng
from lab_twin.errors import InputError
from lab_twin.landscape import EnergyLandscape, hessian_fd_batch, spectral_norm

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

    Level 0 must be the identity (factor 1); factors are strictly
    decreasing afterwards. Construction samples each decoder's derivative
    to check the claimed Jacobian bound.
    """

    decoders: tuple
    factors: tuple
    dim: int

    def __post_init__(self):
        self.decoders = tuple(self.decoders)
        self.factors = tuple(float(c) for c in self.factors)
        if len(self.decoders) != len(self.factors) or not self.decoders:
            raise InputError("decoders and factors must be non-empty and parallel")
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
    facs = (1.0, *[float(c) for c in factors])
    return AbstractionHierarchy(tuple(DiagonalDecoder(c) for c in facs), facs, dim)


def tanh_hierarchy(factors: Sequence[float], dim: int) -> AbstractionHierarchy:
    """Scaled-tanh hierarchy; level 0 stays the identity scaling."""
    decs = (DiagonalDecoder(1.0), *[TanhDecoder(float(c)) for c in factors])
    facs = (1.0, *[float(c) for c in factors])
    return AbstractionHierarchy(decs, facs, dim)


@dataclass
class LevelEnergy:
    """Energy at one abstraction level: E_a(z) = E(psi_a(z)).

    Exposes the same evaluator protocol as EnergyLandscape (batch-capable
    energy/grad, dim, base_point) so flows and Hessian probes work
    unchanged at any level.
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

    def grad(self, z):
        z = np.asarray(z, dtype=np.float64)
        return self.decoder.jacobian_diag(z) * self.base.grad(self.decoder.decode(z))

    def base_point(self, z) -> np.ndarray:
        return self.decoder.decode(z)

    def encoded_memories(self) -> np.ndarray:
        return self.decoder.encode(self.base.memories.points)


def level_energy(hierarchy: AbstractionHierarchy, base: EnergyLandscape,
                 a: int, z) -> float:
    """Energy at abstraction level a; level 0 equals the base energy."""
    return hierarchy.level_energy(base, a).energy(z)


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
        probe_radius = 2.0 * base.memories.radius
        if probe_radius <= 0:
            probe_radius = 1.0
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

        grads = np.asarray(lvl.grad(z))
        dg = np.sqrt(((grads[:, None, :] - grads[None, :, :]) ** 2).sum(axis=-1))
        dz = np.sqrt(((z[:, None, :] - z[None, :, :]) ** 2).sum(axis=-1))
        iu = np.triu_indices(probes, k=1)
        num, den = dg[iu], dz[iu]
        ok = den > 1e-12
        lips = float((num[ok] / den[ok]).max()) if ok.any() else 0.0

        reports.append(SmoothnessReport(a, hess_norm, lips))
    return reports


def _fd_jacobian_norms(decoder, points: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Finite-difference Jacobian operator norms at each point."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    m, d = points.shape
    eye = h * np.eye(d)
    norms = np.empty(m)
    for r in range(m):
        cols = [(np.asarray(decoder.decode(points[r] + eye[k]))
                 - np.asarray(decoder.decode(points[r] - eye[k]))) / (2.0 * h)
                for k in range(d)]
        norms[r] = np.linalg.norm(np.column_stack(cols), 2)
    return norms


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


def grid_smooth(grid_energy: np.ndarray, sigma: float) -> np.ndarray:
    """Truncated-Gaussian smoothing of a 2D energy grid.

    Separable convolution with a normalized kernel of radius ceil(3 sigma)
    and reflected (edge-symmetric) boundaries. Reflection makes the
    smoothing commute with the reflected 5-point Laplacian, so the total
    discrete curvature (see total_curvature) never increases.
    """
    g = np.asarray(grid_energy, dtype=np.float64)
    if g.ndim != 2 or min(g.shape) < 3:
        raise InputError(f"grid must be 2D with >= 3 cells per side, got shape {g.shape}")
    if not (sigma > 0):
        raise InputError(f"sigma must be positive, got {sigma}")
    k = _gaussian_kernel(sigma)
    out = convolve1d(g, k, axis=0, mode="reflect")
    return convolve1d(out, k, axis=1, mode="reflect")


def total_curvature(grid: np.ndarray) -> float:
    """Sum of absolute 5-point Laplacian values, reflected boundary."""
    g = np.asarray(grid, dtype=np.float64)
    p = np.pad(g, 1, mode="symmetric")
    lap = (p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:] - 4.0 * g)
    return float(np.abs(lap).sum())
