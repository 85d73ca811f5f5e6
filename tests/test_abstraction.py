import math
import re

import numpy as np
import pytest

import oracles
from landscape_lab.abstraction import (
    AbstractionHierarchy,
    DiagonalDecoder,
    TanhDecoder,
    _jacobian_norms,
    _max_difference_quotient,
    diagonal_hierarchy,
    jacobian_norm_probe,
    smoothness_report,
    tanh_hierarchy,
)
from landscape_lab.errors import InputError
from landscape_lab.landscape import CHUNK, TILE, EnergyLandscape, MemorySet, sqdist


def random_landscape(seed, n=10, dim=2, beta=4.0, scale=1.0):
    rng = np.random.default_rng(seed)
    pts = scale * rng.normal(size=(n, dim))
    return EnergyLandscape(MemorySet(pts, tuple(range(n))), beta)


# ---------------------------------------------------------------------------
# Hierarchy construction
# ---------------------------------------------------------------------------

class OverclaimingDecoder(DiagonalDecoder):
    """Claims its factor but decodes by 0.9, and declares that derivative."""

    def decode(self, z):
        return 0.9 * np.asarray(z, dtype=np.float64)

    def jacobian_diag(self, z):
        return np.full_like(np.asarray(z, dtype=np.float64), 0.9)


def test_hierarchy_validation():
    with pytest.raises(InputError):             # level-0 factor must be 1
        AbstractionHierarchy((DiagonalDecoder(0.9),), dim=2)
    with pytest.raises(InputError):             # strictly decreasing
        diagonal_hierarchy([0.9, 0.9], dim=2)
    with pytest.raises(InputError):             # the decoders' own factors decide
        AbstractionHierarchy((DiagonalDecoder(1.0), DiagonalDecoder(0.5),
                              DiagonalDecoder(0.8)), dim=2)
    with pytest.raises(InputError):             # factor > 1
        diagonal_hierarchy([1.2], dim=2)
    with pytest.raises(InputError):             # decoder violates claimed bound
        AbstractionHierarchy((DiagonalDecoder(1.0), OverclaimingDecoder(0.5)), dim=2)
    h = diagonal_hierarchy([0.9, 0.8], dim=3)
    assert h.levels == 2
    with pytest.raises(InputError):
        h.check_level(3)
    with pytest.raises(InputError):
        h.check_level(-1)


def test_a_derivative_above_its_factor_by_any_margin_is_rejected():
    # the check reads the declared derivative, so no finite-difference
    # slack lets one ulp above the factor through
    class JustAbove(TanhDecoder):
        def jacobian_diag(self, z):
            return np.nextafter(super().jacobian_diag(z), np.inf)

    with pytest.raises(InputError, match="level 1 exceeds its contraction factor"):
        AbstractionHierarchy((DiagonalDecoder(1.0), JustAbove(0.5)), dim=2)


@pytest.mark.parametrize("level", [0.5, 1.9, 1.0, True, "1"])
def test_levels_must_be_integers(level):
    # check_level used to truncate: 0.5 named level 0, 1.9 and True level 1
    h = diagonal_hierarchy([0.9, 0.8], dim=2)
    message = re.escape(f"level must be an integer, got {level!r}")
    with pytest.raises(InputError, match=message):
        h.check_level(level)
    with pytest.raises(InputError, match=message):
        h.level_energy(random_landscape(0), level)
    with pytest.raises(InputError, match=message):
        jacobian_norm_probe(h, level)


def test_numpy_integer_levels_and_probe_counts_pass():
    h = diagonal_hierarchy([0.9, 0.8], dim=2)
    assert h.check_level(np.int64(2)) == 2 and type(h.check_level(np.int64(2))) is int
    assert jacobian_norm_probe(h, np.int64(1), probes=np.int32(8)) == jacobian_norm_probe(
        h, 1, probes=8)
    ls = random_landscape(0)
    assert smoothness_report(h, ls, probes=np.int64(8)) == smoothness_report(h, ls, probes=8)


@pytest.mark.parametrize("probes", [2.5, 16.0, True])
def test_probe_counts_must_be_integers(probes):
    # 2.5 raised numpy's TypeError; jacobian_norm_probe took True as 1 probe
    h = diagonal_hierarchy([0.5], dim=2)
    message = re.escape(f"probes must be an integer, got {probes!r}")
    with pytest.raises(InputError, match=message):
        smoothness_report(h, random_landscape(0), probes=probes)
    with pytest.raises(InputError, match=message):
        jacobian_norm_probe(h, 1, probes=probes)


def test_level_out_of_range():
    ls = random_landscape(0)
    h = diagonal_hierarchy([0.5], dim=2)
    with pytest.raises(InputError):
        h.level_energy(ls, 2).energy(np.zeros(2))


# ---------------------------------------------------------------------------
# Level energies
# ---------------------------------------------------------------------------

def test_level0_equals_base_bitwise():
    ls = random_landscape(1)
    h = diagonal_hierarchy([0.7], dim=2)
    z = np.random.default_rng(2).normal(size=(50, 2))
    assert np.array_equal(h.level_energy(ls, 0).energy(z), ls.energy(z))


def test_diagonal_closed_form():
    # single memory at origin: E_a(z) = c^2 |z|^2 / 2
    ms = MemorySet(np.zeros((1, 2)), ("m",))
    ls = EnergyLandscape(ms, 1.0)
    h = diagonal_hierarchy([0.5], dim=2)
    assert h.level_energy(ls, 1).energy(np.array([2.0, 0.0])) == pytest.approx(0.5, abs=1e-12)


def test_level_energy_at_fixed_origin():
    ms = MemorySet(np.array([[-1.0], [1.0]]), ("a", "b"))
    ls = EnergyLandscape(ms, 4.0)
    h = diagonal_hierarchy([0.5], dim=1)
    expected = 0.5 - math.log(2.0) / 4.0
    assert h.level_energy(ls, 1).energy(np.array([0.0])) == pytest.approx(expected, abs=1e-12)


def test_level_grad_chain_rule():
    ls = random_landscape(3)
    for h in (diagonal_hierarchy([0.6], dim=2), tanh_hierarchy([0.6], dim=2)):
        lvl = h.level_energy(ls, 1)
        z = np.array([0.4, -0.2])
        fd = oracles.central_diff_gradient(lvl.energy, z)
        assert np.abs(lvl.grad(z) - fd).max() < 1e-6


def test_level_energy_grad_equals_energy_and_chain_rule():
    ls = random_landscape(6)
    z = np.random.default_rng(7).normal(size=(40, 2))
    for h in (diagonal_hierarchy([0.6], dim=2), tanh_hierarchy([0.6], dim=2)):
        lvl = h.level_energy(ls, 1)
        for pts in (z, z[3]):
            e, g = lvl.energy_grad(pts)
            x = lvl.decode(pts)
            base_grad = x - (ls.weights(x)[..., :, None] * ls.memories.points).sum(axis=-2)
            assert type(e) is type(lvl.energy(pts))
            assert np.array_equal(e, lvl.energy(pts))
            assert np.array_equal(g, h.decoders[1].jacobian_diag(pts) * base_grad)
            assert np.array_equal(lvl.grad(pts), g)


def test_level_nearest_memory_decodes_then_delegates():
    ls = random_landscape(4)
    z = np.random.default_rng(5).normal(size=(1100, 2))
    for h in (diagonal_hierarchy([0.6, 0.3], dim=2), tanh_hierarchy([0.6, 0.3], dim=2)):
        for a in range(h.levels + 1):
            lvl = h.level_energy(ls, a)
            expected = ls.nearest_memory(lvl.decode(z))
            assert np.array_equal(lvl.nearest_memory(z), expected)
            assert lvl.nearest_memory(z[7]) == expected[7]


# ---------------------------------------------------------------------------
# Smoothness estimates
# ---------------------------------------------------------------------------

def test_smoothness_single_memory_exact_scaling():
    ms = MemorySet(np.zeros((1, 2)), ("m",))
    ls = EnergyLandscape(ms, 1.0)
    h = diagonal_hierarchy([0.8, 0.6], dim=2)
    reports = smoothness_report(h, ls, probes=32, seed=0)
    assert [r.level for r in reports] == [0, 1, 2]
    expected = [1.0, 0.64, 0.36]
    for r, e in zip(reports, expected):
        assert r.hessian_norm_est == pytest.approx(e, abs=1e-3)


def test_smoothness_monotone_decay_random_landscapes():
    factors = [0.9 ** a for a in range(1, 5)]
    for seed in range(20):
        ls = random_landscape(seed, n=10, dim=2, beta=4.0)
        reports = smoothness_report(diagonal_hierarchy(factors, 2), ls,
                                    probes=128, seed=seed)
        hn = [r.hessian_norm_est for r in reports]
        le = [r.lipschitz_est for r in reports]
        assert all(b < a for a, b in zip(hn, hn[1:])), f"seed {seed}: {hn}"
        assert all(b < a for a, b in zip(le, le[1:])), f"seed {seed}: {le}"
        # analytic scaling bound for diagonal maps, up to FD truncation error
        for r, c in zip(reports, (1.0, *factors)):
            assert r.hessian_norm_est <= c * c * hn[0] * (1 + 1e-5)


def test_lipschitz_below_hessian_estimate():
    # sampled mean-value inequality; both decoder families
    for seed in range(20):
        ls = random_landscape(500 + seed, n=6, dim=2, beta=2.0, scale=0.15)
        for hier in (diagonal_hierarchy([0.9, 0.8, 0.7], 2),
                     tanh_hierarchy([0.9, 0.8, 0.7], 2)):
            probes = 1024 if isinstance(hier.decoders[1], TanhDecoder) else 256
            for r in smoothness_report(hier, ls, probes=probes, seed=seed):
                assert r.lipschitz_est <= r.hessian_norm_est + 1e-3


@pytest.mark.parametrize("m", [2, TILE - 1, TILE, TILE + 1, 2 * TILE + 1,
                               CHUNK, CHUNK + 1, 2 * CHUNK + 50])
def test_difference_quotient_blocks_match_full_matrix(m):
    # the upper-triangle pair tiles give the max of the full pairwise
    # matrix's upper triangle exactly; a fifth of the points are
    # duplicates, whose zero distances are skipped
    rng = np.random.default_rng(m)
    base = rng.standard_normal((m - m // 5, 2))
    z = base[rng.permutation(np.arange(m) % base.shape[0])]
    grads = np.tanh(z) * z[:, ::-1]
    iu = np.triu_indices(m, k=1)
    num, den = np.sqrt(sqdist(grads, grads))[iu], np.sqrt(sqdist(z, z))[iu]
    ok = den > 1e-12
    assert _max_difference_quotient(grads, z) == (num[ok] / den[ok]).max()
    assert _max_difference_quotient(grads[:1].repeat(3, 0), z[:1].repeat(3, 0)) == 0.0


def test_smoothness_determinism_and_validation():
    ls = random_landscape(4)
    h = diagonal_hierarchy([0.5], dim=2)
    a = smoothness_report(h, ls, probes=16, seed=9)
    b = smoothness_report(h, ls, probes=16, seed=9)
    assert [(r.hessian_norm_est, r.lipschitz_est) for r in a] \
        == [(r.hessian_norm_est, r.lipschitz_est) for r in b]
    with pytest.raises(InputError):
        smoothness_report(h, ls, probes=1)


# ---------------------------------------------------------------------------
# Jacobian probes
# ---------------------------------------------------------------------------

def test_jacobian_probe_diagonal():
    h = diagonal_hierarchy([0.7], dim=2)
    assert jacobian_norm_probe(h, 1) == pytest.approx(0.7, abs=1e-4)


def test_jacobian_probe_identity_level():
    h = diagonal_hierarchy([0.5], dim=3)
    assert jacobian_norm_probe(h, 0) == pytest.approx(1.0, abs=1e-6)


def test_jacobian_probe_tanh_sup_at_origin():
    # analytic sup derivative of c * tanh is c, attained at 0
    h = tanh_hierarchy([0.7], dim=2)
    v = jacobian_norm_probe(h, 1)
    assert v <= 0.7 + 1e-9
    assert v == pytest.approx(0.7, abs=1e-6)


def test_jacobian_probe_strictly_decreasing_both_families():
    factors = [0.9 ** a for a in range(1, 5)]
    for seed in range(20):
        for hier in (diagonal_hierarchy(factors, 2), tanh_hierarchy(factors, 2)):
            vals = [jacobian_norm_probe(hier, a, probes=32, seed=seed)
                    for a in range(hier.levels + 1)]
            assert all(b < a for a, b in zip(vals, vals[1:])), vals


@pytest.mark.parametrize("d", [1, 2, 3, 5, 16])
def test_fd_jacobian_norms_match_per_point_norms(d):
    # Each decoder's jacobian_diag norms against the central-difference
    # reference at step h. Both Jacobians are diagonal (an off-axis shift
    # adds +0.0), so the reference errs by the Taylor term
    # h^2 / 6 max|psi'''|, which is 2c for c tanh and 0 for c z, plus
    # rounding: each decode is good to 4 ulps of max|psi| (c for c tanh,
    # c R for c z on points within R), the two decodes' errors divide by
    # 2h, and rounding x +- h (eps R / 2 each) moves the quotient by up to
    # eps R c / 2h; the quotient and the SVD add a few ulps of c.
    h = 1e-6
    eps = np.finfo(float).eps
    rng = np.random.default_rng(d)
    points = np.concatenate([np.zeros((1, d)), 2.0 * rng.standard_normal((256, d))])
    radius = np.abs(points).max() + h
    for hier in (diagonal_hierarchy([0.9, 0.6], d), tanh_hierarchy([0.9, 0.6], d)):
        for decoder in hier.decoders:
            c = decoder.factor
            tanh = isinstance(decoder, TanhDecoder)
            top = c if tanh else c * radius
            bound = (h * h / 6 * (2 * c if tanh else 0.0)
                     + (2 * 4 * eps * top + eps * radius * c) / (2 * h)
                     + 4 * eps * c)
            norms = _jacobian_norms(decoder, points)
            err = np.abs(norms - oracles.fd_jacobian_norms(decoder, points, h)).max()
            assert err <= bound, (type(decoder).__name__, err, bound)
            assert norms.max() == norms[0] == c


# ---------------------------------------------------------------------------
# Tanh hierarchy smoothness (nonlinear correction stays monotone)
# ---------------------------------------------------------------------------

def test_tanh_hierarchy_smoothness_monotone():
    for seed in range(10):
        ls = random_landscape(seed, n=6, dim=2, beta=4.0, scale=0.25)
        reports = smoothness_report(tanh_hierarchy([0.9, 0.8, 0.7], 2), ls,
                                    probes=64, seed=seed)
        hn = [r.hessian_norm_est for r in reports]
        assert all(b < a for a, b in zip(hn, hn[1:])), f"seed {seed}: {hn}"
