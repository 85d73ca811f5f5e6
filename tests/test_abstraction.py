import math

import numpy as np
import pytest

import oracles
from landscape_lab.abstraction import (
    AbstractionHierarchy,
    DiagonalDecoder,
    TanhDecoder,
    _fd_jacobian_norms,
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
    """Claims its factor but decodes by 0.9."""

    def decode(self, z):
        return 0.9 * np.asarray(z, dtype=np.float64)


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


def per_point_jacobian_norms(decoder, points, h=1e-6):
    # reference: one column_stack and one 2-norm per point
    eye = h * np.eye(points.shape[1])
    return np.array([np.linalg.norm(np.column_stack(
        [(decoder.decode(x + e) - decoder.decode(x - e)) / (2.0 * h) for e in eye]), 2)
        for x in points])


@pytest.mark.parametrize("d", [1, 2, 3, 5, 16])
def test_fd_jacobian_norms_match_per_point_norms(d):
    rng = np.random.default_rng(d)
    points = np.concatenate([np.zeros((1, d)), 2.0 * rng.standard_normal((256, d))])
    for hier in (diagonal_hierarchy([0.9, 0.6], d), tanh_hierarchy([0.9, 0.6], d)):
        for decoder in hier.decoders:
            assert np.array_equal(_fd_jacobian_norms(decoder, points),
                                  per_point_jacobian_norms(decoder, points))


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
