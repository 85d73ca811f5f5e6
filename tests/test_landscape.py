import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from landscape_lab.errors import InputError
from landscape_lab.landscape import (
    EnergyLandscape,
    MemorySet,
    _assemble_hessian,
    _hessian_stencil,
    gaussian_blobs,
    hessian_fd,
    hessian_fd_batch,
    load_memory_csv,
    save_memory_csv,
    sqdist,
    weighted_sum,
)
from landscape_lab.census import _ResampledLandscape


def two_memory_1d(beta):
    return EnergyLandscape(MemorySet(np.array([[-1.0], [1.0]]), ("a", "b")), beta)


# ---------------------------------------------------------------------------
# MemorySet construction
# ---------------------------------------------------------------------------

def test_memoryset_validation():
    with pytest.raises(InputError):
        MemorySet(np.empty((0, 2)), ())
    with pytest.raises(InputError):
        MemorySet(np.zeros((2, 2)), ("a",))            # label length mismatch
    with pytest.raises(InputError):
        MemorySet(np.array([[1.0], [1.0]]), ("a", "b"))  # duplicate points
    ms = MemorySet(np.array([[0.0, 1.0], [1.0, 0.0]]), ("a", "b"))
    assert ms.n == 2 and ms.dim == 2
    assert not ms.points.flags.writeable


def test_memoryset_stats():
    ms = MemorySet(np.array([[-1.0], [1.0], [3.0]]), ("a", "a", "b"))
    assert np.allclose(ms.centroid, [1.0])
    assert ms.radius == 2.0
    assert ms.diameter == 4.0
    assert ms.class_proportions() == {"a": 2 / 3, "b": 1 / 3}


# ---------------------------------------------------------------------------
# Energy
# ---------------------------------------------------------------------------

def test_energy_single_memory_is_half_sqdist():
    ms = MemorySet(np.zeros((1, 2)), ("m",))
    for beta in (0.5, 1.0, 7.0):
        ls = EnergyLandscape(ms, beta)
        assert ls.energy(np.zeros(2)) == pytest.approx(0.0, abs=1e-14)
        assert ls.energy(np.array([2.0, 0.0])) == pytest.approx(2.0, abs=1e-12)


def test_energy_two_memories_independent_evaluation():
    # independent one-line evaluation: -(1/4) ln(2 exp(-2)) = 1/2 - ln(2)/4
    expected = 0.5 - math.log(2.0) / 4.0
    assert two_memory_1d(4.0).energy(np.array([0.0])) == pytest.approx(expected, abs=1e-12)
    assert oracles.lse_energy_1d([-1.0, 1.0], 4.0, 0.0) == pytest.approx(expected, abs=1e-12)


def test_energy_dimension_mismatch():
    with pytest.raises(InputError):
        two_memory_1d(1.0).energy(np.zeros(2))
    with pytest.raises(InputError):
        two_memory_1d(1.0).grad(np.zeros(3))


def test_energy_batch_matches_scalar():
    rng = np.random.default_rng(0)
    ls = EnergyLandscape(MemorySet(rng.normal(size=(5, 3)), tuple(range(5))), 2.0)
    xs = rng.normal(size=(7, 3))
    batch = ls.energy(xs)
    for i in range(7):
        assert batch[i] == ls.energy(xs[i])


def test_energy_finite_for_extreme_points():
    ls = two_memory_1d(50.0)
    for x in (1e3, -1e3, 1e6):
        assert math.isfinite(ls.energy(np.array([x])))


def test_sharp_regime_memories_are_local_minima():
    # each memory is a local minimum once beta clears the pairwise merging
    # threshold ~ 1 / (half the closest spacing)^2
    rng = np.random.default_rng(14)
    pts = rng.normal(size=(5, 2))
    gaps = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    delta = gaps[gaps > 0].min()
    beta = 16.0 / delta ** 2
    ls = EnergyLandscape(MemorySet(pts, tuple(range(5))), beta)
    radius = 0.1 * delta
    ring = radius * np.stack([np.cos(np.linspace(0, 2 * np.pi, 16)),
                              np.sin(np.linspace(0, 2 * np.pi, 16))], axis=1)
    for m in pts:
        e0 = ls.energy(m)
        assert (ls.energy(m + ring) >= e0).all()


def test_energy_translation_invariance():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(6, 2))
    x = rng.normal(size=2)
    shift = rng.normal(size=2) * 10
    a = EnergyLandscape(MemorySet(pts, tuple(range(6))), 3.0).energy(x)
    b = EnergyLandscape(MemorySet(pts + shift, tuple(range(6))), 3.0).energy(x + shift)
    assert abs(a - b) < 1e-10


# ---------------------------------------------------------------------------
# Distance kernel and nearest memory
# ---------------------------------------------------------------------------

def broadcast_sqdist(a, b):
    """Reference: the broadcast-and-sum that sqdist must match bit for bit."""
    d = a[..., None, :] - b
    return (d * d).sum(-1)


def rechunking_case(dim=5):
    rng = np.random.default_rng(11)
    mem = MemorySet(rng.standard_normal((37, dim)), tuple(range(37)))
    return EnergyLandscape(mem, 2.0), 3.0 * rng.standard_normal((2503, dim))


@pytest.mark.parametrize("dim", range(1, 301))
def test_sqdist_equals_broadcast_reference(dim):
    # both kernel paths: per-coordinate below 8; from 8 up the lanes, with
    # a tail from 9, and the split of numpy's pairwise sum from 129
    rng = np.random.default_rng(dim)
    b = rng.standard_normal((13, dim))
    single = 2.0 * rng.standard_normal(dim)
    assert np.array_equal(sqdist(single, b), broadcast_sqdist(single, b))
    for m in (0, 1, 7, 1025):
        a = 2.0 * rng.standard_normal((m, dim))
        got = sqdist(a, b)
        assert got.shape == (m, 13)
        assert np.array_equal(got, broadcast_sqdist(a, b))


def test_sqdist_memory_is_bounded_by_its_output():
    # numpy reports its buffers to tracemalloc; the broadcast this kernel
    # replaced peaked at 33x the output here, a (1024, 2000, 32) temporary
    rng = np.random.default_rng(5)
    a = rng.standard_normal((1024, 32))
    b = rng.standard_normal((2000, 32))
    tracemalloc.start()
    try:
        out = sqdist(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * out.nbytes


def test_sqdist_matches_per_row_sums():
    ls, x = rechunking_case()
    pts = ls.memories.points
    full = sqdist(x[:40], pts)
    assert full.shape == (40, 37)
    for r in range(40):
        assert np.array_equal(full[r], ((pts - x[r]) ** 2).sum(axis=1))
        assert np.array_equal(sqdist(x[r], pts), full[r])


@pytest.mark.parametrize("batch", [1, 7, 1024, 1025, 2500])
@pytest.mark.parametrize("offset", [0, 3])
def test_sqdist_and_nearest_memory_rows_do_not_depend_on_chunking(batch, offset):
    # also gates grad and energy_grad; dims 7 and 8 sit on either side of
    # sqdist's switch between paths, 16 runs two rounds of lanes and 130
    # the pairwise split; dim 1 takes weighted_sum's own path
    for dim in (1, 5, 7, 8, 16, 130):
        ls, x = rechunking_case(dim)
        pts = ls.memories.points
        full_d2 = sqdist(x, pts)
        full_idx = ls.nearest_memory(x)
        full_e, full_g = ls.energy_grad(x)
        assert np.array_equal(full_idx, full_d2.argmin(axis=1))
        assert np.array_equal(ls.grad(x), full_g)
        for lo in range(offset, x.shape[0], batch):
            hi = min(lo + batch, x.shape[0])
            assert np.array_equal(sqdist(x[lo:hi], pts), full_d2[lo:hi])
            assert np.array_equal(ls.nearest_memory(x[lo:hi]), full_idx[lo:hi])
            e, g = ls.energy_grad(x[lo:hi])
            assert np.array_equal(e, full_e[lo:hi])
            assert np.array_equal(g, full_g[lo:hi])
            assert np.array_equal(ls.grad(x[lo:hi]), full_g[lo:hi])


def test_nearest_memory_single_point_and_ties():
    ls = two_memory_1d(1.0)
    assert ls.nearest_memory(np.array([0.4])) == 1
    assert ls.nearest_memory(np.array([0.0])) == 0     # tie: lower index
    assert list(ls.nearest_memory(np.array([[-3.0], [2.0]]))) == [0, 1]
    with pytest.raises(InputError):
        ls.nearest_memory(np.zeros(2))


# ---------------------------------------------------------------------------
# Weights and gradient
# ---------------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=2),
       st.floats(0.1, 20.0))
def test_weights_simplex_property(coords, beta):
    rng = np.random.default_rng(1)
    ls = EnergyLandscape(MemorySet(rng.normal(size=(6, 2)), tuple(range(6))), beta)
    w = ls.weights(np.array(coords))
    assert (w >= 0).all()
    assert abs(float(w.sum()) - 1.0) < 1e-12


def broadcast_weighted_sum(w, points):
    """Reference: the (..., n, d) product that weighted_sum must match."""
    return (w[..., :, None] * points).sum(axis=-2)


@pytest.mark.parametrize("dim", [1, 2, 3, 7, 8, 16])
def test_weighted_sum_equals_broadcast_reference(dim):
    rng = np.random.default_rng(dim)
    for n in (1, 2, 6, 8, 9, 10, 33, 250):
        points = rng.standard_normal((n, dim))
        for shape in [(n,)] + [(rows, n) for rows in (1, 2, 3, 7, 64, 1024, 1025)]:
            w = rng.random(shape)
            w /= w.sum(axis=-1, keepdims=True)
            got = weighted_sum(w, points)
            assert got.shape == shape[:-1] + (dim,)
            assert np.array_equal(got, broadcast_weighted_sum(w, points))


@pytest.mark.parametrize("dim", [1, 2, 8])
def test_energy_grad_equals_energy_and_reference_grad(dim):
    # the reference gradient is x minus the broadcast weighted sum of
    # weights(x); the resampled landscape reaches energy_grad through its
    # _scores override
    ls, x = rechunking_case(dim)
    log_counts = np.log(np.random.default_rng(dim).integers(1, 4, ls.memories.n))
    resampled = _ResampledLandscape(ls.memories, ls.beta, log_counts=log_counts)
    for target in (ls, resampled):
        for pts in (x[:300], x[5]):
            e, g = target.energy_grad(pts)
            assert type(e) is type(target.energy(pts))
            assert np.array_equal(e, target.energy(pts))
            reference = pts - broadcast_weighted_sum(target.weights(pts),
                                                     target.memories.points)
            assert np.array_equal(g, reference)
            assert np.array_equal(target.grad(pts), g)


def test_grad_single_memory():
    m = np.array([0.3, -0.7])
    ls = EnergyLandscape(MemorySet(m[None, :], ("m",)), 5.0)
    x = np.array([2.0, 1.0])
    assert np.allclose(ls.grad(x), x - m, atol=1e-14)


def test_grad_symmetry_point():
    assert two_memory_1d(3.0).grad(np.array([0.0])) == pytest.approx(0.0, abs=1e-15)


def test_grad_matches_finite_differences_frozen_case():
    ls = EnergyLandscape(MemorySet(np.array([[0.0], [1.0]]), (0, 1)), 2.0)
    x = np.array([0.25])
    fd = (ls.energy(np.array([0.25 + 1e-5])) - ls.energy(np.array([0.25 - 1e-5]))) / 2e-5
    g = ls.grad(x)[0]
    assert abs(g - fd) / abs(fd) < 1e-6


def test_grad_matches_finite_differences_random():
    # d <= 8, 20 seeds, 100 points per landscape
    for seed in range(20):
        rng = np.random.default_rng(seed)
        d = int(rng.choice([1, 2, 4, 8]))
        pts = rng.normal(size=(6, d))
        ls = EnergyLandscape(MemorySet(pts, tuple(range(6))), float(rng.uniform(0.5, 8.0)))
        xs = ls.memories.centroid + rng.normal(size=(100, d))
        grads = ls.grad(xs)
        for x, g in zip(xs, grads):
            fd = oracles.central_diff_gradient(ls.energy, x)
            denom = max(float(np.linalg.norm(g)), 1e-10)
            assert np.linalg.norm(fd - g) / denom < 1e-5


def test_critical_points_in_convex_hull():
    # fixed-point identity: the gradient is the residual x - sum w_i(x) x_i,
    # so any zero-gradient point is a convex combination of the memories
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(5, 2))
    ls = EnergyLandscape(MemorySet(pts, tuple(range(5))), 4.0)
    for x in rng.normal(size=(20, 2)):
        w = ls.weights(x)
        assert np.allclose(ls.grad(x), x - (w[:, None] * pts).sum(axis=0), atol=1e-14)
    x = pts[2] + 0.1
    for _ in range(5000):
        x = x - 0.9 * ls.grad(x)
        if np.linalg.norm(ls.grad(x)) < 1e-9:
            break
    w = ls.weights(x)
    assert np.linalg.norm(x - (w[:, None] * pts).sum(axis=0)) < 1e-8
    assert (w >= 0).all() and abs(w.sum() - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# Finite-difference Hessian
# ---------------------------------------------------------------------------

def test_hessian_single_memory_identity():
    rng = np.random.default_rng(2)
    ls = EnergyLandscape(MemorySet(rng.normal(size=(1, 3)), ("m",)), 2.0)
    h = hessian_fd(ls, rng.normal(size=3))
    assert np.abs(h - np.eye(3)).max() < 1e-4


def test_hessian_merged_regime_flattened():
    # analytic oracle: E''(x) = 1 - beta Var_w; at 0 with memories +-1, 1 - beta
    ls = two_memory_1d(0.5)
    h = hessian_fd(ls, np.array([0.0]))[0, 0]
    assert h < 1.0
    assert h == pytest.approx(0.5, abs=1e-5)
    assert oracles.analytic_hessian([[-1.0], [1.0]], 0.5, [0.0])[0, 0] == pytest.approx(0.5)


def test_hessian_matches_analytic_random():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(5, 2))
        ls = EnergyLandscape(MemorySet(pts, tuple(range(5))), 3.0)
        x = rng.normal(size=2)
        assert np.abs(hessian_fd(ls, x) - oracles.analytic_hessian(pts, 3.0, x)).max() < 1e-5


def test_hessian_asymmetry_tiny():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(6, 4))
    ls = EnergyLandscape(MemorySet(pts, tuple(range(6))), 2.0)
    stencil = _hessian_stencil(rng.normal(size=4), 1e-4)
    raw = _assemble_hessian(np.asarray(ls.energy(stencil)), 4, 1e-4)
    assert np.abs(raw - raw.T).max() < 1e-6


def test_hessian_fd_is_the_batch_row():
    rng = np.random.default_rng(6)
    for d in (1, 2, 5):
        ls = EnergyLandscape(MemorySet(rng.normal(size=(7, d)), tuple(range(7))), 3.0)
        pts = rng.normal(size=(3, d))
        batch = hessian_fd_batch(ls, pts)
        for x, h in zip(pts, batch):
            assert np.array_equal(hessian_fd(ls, x), h)
    with pytest.raises(InputError):
        hessian_fd(ls, pts)     # one point only


def test_hessian_step_validation():
    with pytest.raises(InputError):
        hessian_fd(two_memory_1d(1.0), np.array([0.0]), h=0.0)


# ---------------------------------------------------------------------------
# CSV interchange and synthesis
# ---------------------------------------------------------------------------

def test_csv_round_trip(tmp_path):
    ms = gaussian_blobs(dim=3, class_counts=[4, 2], spread=0.5, seed=7,
                        labels=["red", "blue"])
    path = tmp_path / "mem.csv"
    save_memory_csv(ms, path)
    loaded = load_memory_csv(path)
    assert np.array_equal(loaded.points, ms.points)
    assert loaded.labels == ms.labels


def test_csv_header_required(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.0,a\n1.0,b\n", encoding="utf-8")
    with pytest.raises(InputError):
        load_memory_csv(path)


def test_csv_numeric_labels_round_trip(tmp_path):
    ms = MemorySet(np.array([[0.0], [1.0]]), (0, 1))
    path = tmp_path / "mem.csv"
    save_memory_csv(ms, path)
    assert load_memory_csv(path).labels == (0, 1)


def test_blobs_counts_and_determinism():
    a = gaussian_blobs(dim=2, class_counts=[5, 3], seed=11)
    b = gaussian_blobs(dim=2, class_counts=[5, 3], seed=11)
    assert a.labels.count(0) == 5 and a.labels.count(1) == 3
    assert np.array_equal(a.points, b.points)
    c = gaussian_blobs(dim=2, class_counts=[5, 3], seed=12)
    assert not np.array_equal(a.points, c.points)


def test_beta_validation():
    ms = MemorySet(np.array([[0.0]]), ("m",))
    with pytest.raises(InputError):
        EnergyLandscape(ms, 0.0)
    with pytest.raises(InputError):
        EnergyLandscape(ms, -1.0)
