import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from landscape_lab import dynamics, landscape
from landscape_lab.errors import InputError
from landscape_lab.landscape import (
    TILE,
    EnergyLandscape,
    MemorySet,
    gaussian_blobs,
    hessian_fd_batch,
    load_memory_csv,
    save_memory_csv,
    sqdist,
    weighted_sum,
)
from landscape_lab.abstraction import TanhDecoder, diagonal_hierarchy, tanh_hierarchy


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


@pytest.mark.parametrize("labels, named", [
    (("a", 1, 1), "'a', 1"),
    (("a", math.nan, math.nan), "'a', nan"),
    ((math.nan, math.nan, 1), "1, nan"),
    ((np.float64(2.0), np.float64(math.nan), 1), "1, np.float64(2.0), np.float64(nan)"),
], ids=["text-and-int", "text-and-nan", "nan-and-int", "numpy-nan"])
def test_memoryset_rejects_unorderable_and_nan_labels(labels, named):
    # classes() sorts the labels, and a NaN label equals no label, its own
    # neither; the message names the distinct labels
    with pytest.raises(InputError) as err:
        MemorySet(np.array([[-1.0], [0.0], [1.0]]), labels)
    assert str(err.value) == f"labels must be mutually orderable and not NaN, got {named}"


@pytest.mark.parametrize("labels, classes", [
    (("b", "a", "c", "a", "b", "a", "c"), ["a", "b", "c"]),
    ((10, 2, 2, 10, 7, 2, 10), [2, 7, 10]),
    ((0.5, -1.5, 0.5, 2.25, -1.5, 0.5, 0.5), [-1.5, 0.5, 2.25]),
    # 1 == 1.0 names one class, written as the first label seen
    ((1.0, 2, 1, 1.0, 2, 1, 1), [1.0, 2]),
], ids=["text", "int", "float", "mixed-1-and-1.0"])
def test_memoryset_class_index(labels, classes):
    ms = MemorySet(np.arange(len(labels), dtype=float)[:, None], labels)
    assert ms.classes() == classes
    assert [type(c) for c in ms.classes()] == [type(c) for c in classes]
    assert ms.class_index.tolist() == [classes.index(y) for y in labels]
    assert not ms.class_index.flags.writeable
    # the shares bit for bit as a per-class count loop gives them
    counts = {c: sum(1 for y in labels if y == c) / len(labels) for c in classes}
    shares = ms.class_proportions()
    assert list(shares) == classes and shares == counts
    assert all(type(p) is float for p in shares.values())


def test_memoryset_stats():
    ms = MemorySet(np.array([[-1.0], [1.0], [3.0]]), ("a", "a", "b"))
    assert np.allclose(ms.centroid, [1.0])
    assert ms.radius == 2.0
    assert ms.diameter == 4.0
    assert ms.class_proportions() == {"a": 2 / 3, "b": 1 / 3}


@pytest.mark.parametrize("n", [2, TILE - 1, TILE, TILE + 1, 2 * TILE + 1])
@pytest.mark.parametrize("dim", [3, 16])
def test_diameter_is_the_full_matrix_max(n, dim):
    # the pair tiles cover every pair, and sqrt of the largest squared
    # distance is the largest distance, bit for bit
    pts = np.random.default_rng(n + dim).standard_normal((n, dim))
    ms = MemorySet(pts, ("a",) * n)
    assert ms.diameter == float(np.sqrt(sqdist(pts, pts)).max())


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


def rechunking_case(dim=5, n=37):
    rng = np.random.default_rng(11)
    mem = MemorySet(rng.standard_normal((n, dim)), tuple(range(n)))
    return EnergyLandscape(mem, 2.0), 3.0 * rng.standard_normal((2503, dim))


def major_rows(n):
    """The rows from which scores against n memories below 8 coordinates
    are built memory-major."""
    return landscape._MAJOR_ROWS + 8 * n


def carved_out(shape, offset=3):
    """A C-contiguous view of the given shape carved from a larger flat
    buffer at an offset, filled with NaN, as a caller's out= argument."""
    size = math.prod(shape)
    return np.full(size + offset + 5, np.nan)[offset:offset + size].reshape(shape)


def assert_sqdist_into_out(a, b, want):
    """sqdist(a, b, out=view) returns that very view, holding want's bits."""
    view = carved_out(want.shape)
    assert sqdist(a, b, out=view) is view
    assert view.tobytes() == want.tobytes()


@pytest.mark.parametrize("dim", range(1, 301))
def test_sqdist_equals_broadcast_reference(dim):
    # both kernel paths: per-coordinate below 8; from 8 up the lanes, with
    # a tail from 9, and the split of numpy's pairwise sum from 129; each
    # also written into a caller's out=
    rng = np.random.default_rng(dim)
    b = rng.standard_normal((13, dim))
    single = 2.0 * rng.standard_normal(dim)
    assert np.array_equal(sqdist(single, b), broadcast_sqdist(single, b))
    assert_sqdist_into_out(single, b, broadcast_sqdist(single, b))
    for m in (0, 1, 7, 1025):
        a = 2.0 * rng.standard_normal((m, dim))
        got = sqdist(a, b)
        assert got.shape == (m, 13)
        assert np.array_equal(got, broadcast_sqdist(a, b))
        assert_sqdist_into_out(a, b, got)


def blocked_reference(a, b):
    """broadcast_sqdist over a C-ordered copy of b, 32 rows of a at a time
    (its (32, n, d) temporaries stay small; rows do not share terms)."""
    b = np.ascontiguousarray(b)
    return np.concatenate([broadcast_sqdist(a[lo:lo + 32], b)
                           for lo in range(0, max(len(a), 1), 32)])


@pytest.mark.parametrize("dim", [1, 2, 7, 8, 9, 16, 130])
@pytest.mark.parametrize("rows", [1, 7, 1025])
def test_sqdist_bits_do_not_depend_on_the_memories_layout(dim, rows):
    # where the small buffer is taken, and from 8 coordinates up, sqdist
    # reads each coordinate of b as a contiguous row: a Fortran-ordered b
    # and its row slices are read as they are, other layouts are copied
    # once. 40 memories never take the buffer, 200 do from 1025 rows. The
    # reference broadcasts over a C-ordered copy: over a Fortran-ordered
    # b its product is laid out coordinate-major, and numpy then sums the
    # strided last axis left to right rather than pairwise. Each case is
    # also written into a caller's out=
    rng = np.random.default_rng(7 * dim + rows)
    a = 2.0 * rng.standard_normal((rows, dim))
    for n in (40, 200):
        pts = rng.standard_normal((n, dim))
        layouts = {"C": np.ascontiguousarray(pts), "F": np.asfortranarray(pts),
                   "F offset": np.asfortranarray(pts)[3:],
                   "offset": pts[3:], "strided": pts[::2]}
        for name, b in layouts.items():
            want = blocked_reference(a, b)
            assert np.array_equal(sqdist(a, b), want), (n, name)
            assert np.array_equal(sqdist(a[0], b), want[0]), (n, name)
            assert_sqdist_into_out(a, b, want)


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


@pytest.mark.parametrize("batch", [1, 7, 1024, 1025, 2500, major_rows(37) - 1, major_rows(37),
                                   major_rows(129) - 1, major_rows(129)])
@pytest.mark.parametrize("offset", [0, 3])
def test_sqdist_and_nearest_memory_rows_do_not_depend_on_chunking(batch, offset):
    # also gates grad and energy_grad; dims 7 and 8 sit on either side of
    # sqdist's switch between paths, 16 runs two rounds of lanes and 130
    # the pairwise split; dim 1 takes weighted_sum's own path. Below 8
    # coordinates the full batch's scores are memory-major and a batch's
    # are so from major_rows(n) rows on; with 129 memories the softmax sum
    # takes the pairwise split along the memories
    for dim, n in ((1, 37), (5, 37), (7, 37), (8, 37), (16, 37), (130, 37), (2, 129)):
        ls, x = rechunking_case(dim, n)
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


BUFFER_FROM = landscape._SMALL_BUFFER_FROM
BUFFER_UPTO = landscape._SMALL_BUFFER_UPTO


@pytest.mark.parametrize("dim", [1, 2, 5, 8, 9, 16, 32, 130])
@pytest.mark.parametrize("n", [BUFFER_FROM - 1, BUFFER_FROM, BUFFER_FROM + 1, 2000,
                               BUFFER_UPTO, BUFFER_UPTO + 1])
def test_sqdist_bits_do_not_depend_on_the_ufunc_buffer(dim, n):
    # where _small_buffer(rows, n, dim) says so, the elementwise work runs
    # with a small ufunc buffer: on both sides of each of its bounds in
    # memories, and with 2 and 3 rows, with few and many cells. The most
    # rows span two of sqdist's row blocks, the second one partial
    rng = np.random.default_rng(dim * n)
    b = rng.standard_normal((n, dim))
    scoped = set()
    for rows in (2, 3, 8, landscape._BLOCK_CELLS // n + 5):
        a = 2.0 * rng.standard_normal((rows, dim))
        scoped.add(landscape._small_buffer(rows, n, dim))
        got = sqdist(a, b)
        want = blocked_reference(a, b)
        assert [v.hex() for v in got.ravel()] == [v.hex() for v in want.ravel()]
        assert [v.hex() for v in sqdist(a[0], b)] == [v.hex() for v in got[0]]
    inside = BUFFER_FROM <= n <= BUFFER_UPTO
    assert scoped == ({False, True} if inside else {False})


def buffer_seen_by_lanes(monkeypatch):
    """Patch the lane routine to record (memories, numpy's ufunc buffer
    size) in each call; return the list it appends to."""
    seen = []
    lanes = landscape._pairwise_sum

    def recording(terms, lo, hi, res, scratch):
        seen.append((res.shape[-1], np.getbufsize()))
        return lanes(terms, lo, hi, res, scratch)

    monkeypatch.setattr(landscape, "_pairwise_sum", recording)
    return seen


@pytest.mark.parametrize("workers", [1, 2])
def test_sqdist_scopes_the_small_buffer_to_its_lanes(monkeypatch, workers):
    # in the calling thread and on ordered_map's threads, which start at
    # numpy's default size: the lanes of 40 rows see the small buffer from
    # BUFFER_FROM memories on, those of 2 rows never, and every caller gets
    # its own size back
    seen = buffer_seen_by_lanes(monkeypatch)
    rng = np.random.default_rng(3)
    a = rng.standard_normal((40, 16))
    wide, narrow = rng.standard_normal((BUFFER_FROM, 16)), rng.standard_normal((64, 16))

    def call(b):
        before = np.getbufsize()
        sqdist(a, b)
        return before, np.getbufsize()

    default = np.getbufsize()
    assert default != landscape._SMALL_BUFFER
    small = (BUFFER_FROM, landscape._SMALL_BUFFER)
    got = list(dynamics.ordered_map(call, [wide, narrow, wide], workers))
    assert got == [(default, default)] * 3
    assert sorted(seen) == sorted([small, (64, default), small])   # threads interleave
    old = np.setbufsize(4096)
    try:
        assert call(wide) == (4096, 4096)
        assert call(narrow) == (4096, 4096)
    finally:
        np.setbufsize(old)
    assert seen[3:] == [small, (64, 4096)]
    sqdist(a[:2], wide)   # two rows do not earn the scope back
    assert seen[5:] == [(BUFFER_FROM, default)]


def assert_buffer_restored_when_raising(monkeypatch, routine, dim):
    """Make sqdist's routine fail inside the small buffer, on a shape that
    takes it; the caller's size comes back."""
    def failing(*args):
        assert np.getbufsize() == landscape._SMALL_BUFFER
        raise FloatingPointError(f"{routine} failed")

    monkeypatch.setattr(landscape, routine, failing)
    rng = np.random.default_rng(4)
    a, b = rng.standard_normal((8, dim)), rng.standard_normal((BUFFER_FROM * 8, dim))
    assert landscape._small_buffer(len(a), len(b), dim)
    before = np.getbufsize()
    with pytest.raises(FloatingPointError):
        sqdist(a, b)
    assert np.getbufsize() == before


def test_sqdist_restores_the_buffer_when_its_lanes_raise(monkeypatch):
    assert_buffer_restored_when_raising(monkeypatch, "_pairwise_sum", 16)


def test_sqdist_restores_the_buffer_when_its_squares_raise(monkeypatch):
    assert_buffer_restored_when_raising(monkeypatch, "_add_squares", 2)


def buffer_seen_by_squares(monkeypatch):
    """Patch the per-coordinate squares of sqdist below 8 coordinates to
    record (result shape, numpy's ufunc buffer size) in each call; return
    the list it appends to."""
    seen = []
    squares = landscape._add_squares

    def recording(a, b, out):
        size = np.getbufsize()
        result = squares(a, b, out)
        seen.append((result.shape, size))
        return result

    monkeypatch.setattr(landscape, "_add_squares", recording)
    return seen


@pytest.mark.parametrize("workers", [1, 2])
def test_sqdist_scopes_the_small_buffer_to_its_squares(monkeypatch, workers):
    # below 8 coordinates, in the calling thread and on ordered_map's
    # threads: the row-major squares see the small buffer exactly where
    # _small_buffer says so, never with 2 rows, outside its memory range
    # or in the memory-major layout, and every caller gets its own size back;
    # each call passes out, so that the unscoped ones run _add_squares too
    seen = buffer_seen_by_squares(monkeypatch)
    rng = np.random.default_rng(6)
    a = rng.standard_normal((40, 2))
    wide, narrow, long = (rng.standard_normal((n, 2)) for n in (250, 64, BUFFER_UPTO + 1))
    cases = [(a, wide, False), (a[:2], wide, False), (a, narrow, False),
             (a, long, False), (a, wide, True)]
    scoped = [not by_memory and landscape._small_buffer(len(x), len(b), 2)
              for x, b, by_memory in cases]
    assert scoped == [True, False, False, False, False]

    def call(case):
        x, b, by_memory = case
        before = np.getbufsize()
        shape = (len(b), len(x)) if by_memory else (len(x), len(b))
        sqdist(x, b, by_memory, out=np.empty(shape))
        return before, np.getbufsize()

    default = np.getbufsize()
    assert default != landscape._SMALL_BUFFER
    want = [((len(b), len(x)) if by_memory else (len(x), len(b)),
             landscape._SMALL_BUFFER if on else default)
            for (x, b, by_memory), on in zip(cases, scoped)]
    got = list(dynamics.ordered_map(call, cases, workers))
    assert got == [(default, default)] * len(cases)
    assert sorted(seen) == sorted(want)   # threads interleave
    old = np.setbufsize(4096)
    try:
        assert [call(case) for case in cases[:3]] == [(4096, 4096)] * 3
    finally:
        np.setbufsize(old)
    assert seen[len(cases):] == [want[0], (want[1][0], 4096), (want[2][0], 4096)]


def score_targets(n, dim, seed):
    """An EnergyLandscape, a ResampledLandscape and a tanh LevelEnergy on
    n memories in dim coordinates."""
    rng = np.random.default_rng(seed)
    ls = EnergyLandscape(MemorySet(rng.standard_normal((n, dim)), tuple(range(n))), 4.0)
    resampled = oracles.ResampledLandscape(ls.memories, 30.0,
                                           log_counts=np.log(rng.integers(1, 4, n)))
    return ls, resampled, tanh_hierarchy([0.8], dim).level_energy(ls, 1)


def score_outputs(target, x):
    """energy, energy_grad and (where the evaluator has it) weights at x."""
    out = [target.energy(x), *target.energy_grad(x)]
    if hasattr(target, "weights"):
        w = target.weights(x)
        assert w.flags.c_contiguous
        out.append(w)
    return out


@pytest.mark.parametrize("n", [1, 7, 8, 9, 10, 16, 17, 128, 129, 250, 300])
def test_score_layouts_give_the_same_bits(n, monkeypatch):
    # the memory-major scores give every output the bits of the row-major
    # ones: the softmax sum and the d = 1 weighted sum in numpy's pairwise
    # order over the memories (lanes from 8, the split above 128), the
    # d >= 2 weighted sum in einsum's order. The layout flips at
    # major_rows(n) rows, and a single row always stays row-major
    for dim in range(1, 8):
        for target in score_targets(n, dim, seed=n * dim):
            base = getattr(target, "base", target)
            for rows in (1, 2, 3, major_rows(n) - 1, major_rows(n), 1025):
                x = 2.0 * np.random.default_rng(rows).standard_normal((rows, dim))
                assert landscape._by_memory(x, base.memories.n) == (rows >= major_rows(n))
                chosen = score_outputs(target, x)
                for layout in (False, True)[:1 + (rows >= 2)]:
                    with monkeypatch.context() as patch:
                        patch.setattr(landscape, "_by_memory", lambda x, n, b=layout: b)
                        forced = score_outputs(target, x)
                    for got, want in zip(forced, chosen):
                        assert np.array_equal(got, want), (dim, type(target), rows, layout)


def test_memory_major_weighted_sum_starts_from_numpys_zero():
    # numpy adds a row sum to its initial 0.0, so a sum of -0.0 terms is
    # 0.0; the lanes would leave -0.0, and x = -0.0 minus it would give a
    # gradient of 0.0 where the row-major one is -0.0
    pts = np.concatenate([[-0.0], -50.0 * np.arange(1.0, 10.0)])[:, None]
    ls = EnergyLandscape(MemorySet(pts, tuple(range(10))), 30.0)
    x = np.full((major_rows(10), 1), -0.0)
    assert landscape._by_memory(x, 10)
    _, g = ls.energy_grad(x)
    _, row_major = ls.energy_grad(x[:2])
    assert np.signbit(g).all() and np.signbit(row_major).all()


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
    resampled = oracles.ResampledLandscape(ls.memories, ls.beta, log_counts=log_counts)
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
    h = hessian_fd_batch(ls, rng.normal(size=3)[None])[0]
    assert np.abs(h - np.eye(3)).max() < 1e-4


def test_hessian_merged_regime_flattened():
    # analytic oracle: E''(x) = 1 - beta Var_w; at 0 with memories +-1, 1 - beta
    ls = two_memory_1d(0.5)
    h = hessian_fd_batch(ls, np.array([[0.0]]))[0, 0, 0]
    assert h < 1.0
    assert h == pytest.approx(0.5, abs=1e-5)
    assert oracles.analytic_hessian([[-1.0], [1.0]], 0.5, [0.0])[0, 0] == pytest.approx(0.5)


def test_hessian_matches_analytic_random():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(5, 2))
        ls = EnergyLandscape(MemorySet(pts, tuple(range(5))), 3.0)
        x = rng.normal(size=2)
        assert np.abs(hessian_fd_batch(ls, x[None])[0]
                      - oracles.analytic_hessian(pts, 3.0, x)).max() < 1e-5


def per_point_hessians(target, points, h):
    # reference: for each point x and coordinate i, one single-point grad
    # at x + h e_i and one at x - h e_i, each offset a fresh vector of +0.0
    # with +-h at i (so off-axis coordinates are x_j + 0.0); column i is
    # their difference over 2h, and the matrix is symmetrized
    d = points.shape[1]
    out = []
    for x in points:
        raw = np.empty((d, d))
        for i in range(d):
            up, down = np.zeros(d), np.zeros(d)
            up[i], down[i] = h, -h
            raw[i] = (target.grad(x + up) - target.grad(x + down)) / (2.0 * h)
        out.append(0.5 * (raw + raw.T))
    return np.array(out).reshape(len(points), d, d)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 16])
@pytest.mark.parametrize("m", [1, 1025])
def test_hessian_fd_batch_matches_per_point_assembly(d, m):
    # base landscape and a diagonal and a tanh level; 1025 points cross the
    # CHUNK boundary, and the -0.0 start must shift as -0.0 + 0.0 does
    rng = np.random.default_rng(d)
    base = EnergyLandscape(MemorySet(rng.normal(size=(9, d)), tuple(range(9))), 3.0)
    points = 0.5 * rng.normal(size=(m, d))
    points[0, 0] = -0.0
    targets = [base] + [hier([0.7], d).level_energy(base, 1)
                        for hier in (diagonal_hierarchy, tanh_hierarchy)]
    for target in targets:
        assert np.array_equal(hessian_fd_batch(target, points),
                              per_point_hessians(target, points, 1e-4))


def fourth_derivative_bound(memories, beta, decoder):
    # A bound on every fourth partial of E(psi(z)), anywhere.
    # E's partials are cumulants of the weighted memories. Each memory
    # coordinate sits within D (the largest coordinate range) of its
    # weighted mean, so |E_ab| <= 1 + beta D^2, |E_abc| <= beta^2 D^3,
    # |E_abcd| <= 4 beta^3 D^4 (E[abcd] less three covariance products),
    # and |E_a| = |x_a - mean_a| <= c + max |x_i| on the tanh family.
    # psi = c tanh has |psi'| <= c, |psi''| <= c, |psi'''| <= 2c and
    # |psi''''| <= 16c; in t = tanh z they are (1 - t^2), 2|t|(1 - t^2),
    # (1 - t^2)|6t^2 - 2| and (1 - t^2)|t||16 - 24t^2|. The diagonal
    # psi = c z has c, 0, 0 and 0.
    # psi acts coordinatewise, so for i != j d_i^3 d_j is
    # psi'_j (E_jiii psi'_i^3 + 3 E_jii psi'_i psi''_i + E_ji psi'''_i),
    # and d_i^4 is E_iiii psi'^4 + 6 E_iii psi'^2 psi'' + 3 E_ii psi''^2
    # + 4 E_ii psi' psi''' + E_i psi''''.
    spread = np.ptp(memories, axis=0).max()
    e2, e3, e4 = 1 + beta * spread**2, beta**2 * spread**3, 4 * beta**3 * spread**4
    c = decoder.factor
    if isinstance(decoder, TanhDecoder):
        p1, p2, p3, p4 = c, c, 2 * c, 16 * c
    else:
        p1, p2, p3, p4 = c, 0.0, 0.0, 0.0
    e1 = c + np.abs(memories).max()
    mixed = p1 * (e4 * p1**3 + 3 * e3 * p1 * p2 + e2 * p3)
    pure = e4 * p1**4 + 6 * e3 * p1**2 * p2 + 3 * e2 * p2**2 + 4 * e2 * p1 * p3 + e1 * p4
    return max(mixed, pure)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 16])
def test_hessian_fd_batch_matches_the_analytic_level_hessian(d):
    # Central differences of g err by (h^2 / 6) g''' per entry (Taylor to
    # third order), so by at most h^2 M4 / 6, where M4 bounds the fourth
    # partials of E o psi. Rounding adds at most 2 delta / 2h for a
    # gradient good to delta, taken as 1e3 ulps of its largest term.
    h = 1e-4
    rng = np.random.default_rng(40 + d)
    pts = rng.normal(size=(9, d))
    base = EnergyLandscape(MemorySet(pts, tuple(range(9))), 3.0)
    z = 0.5 * rng.normal(size=(8, d))
    for hier in (diagonal_hierarchy, tanh_hierarchy):
        lvl = hier([0.7], d).level_energy(base, 1)
        bound = (h * h * fourth_derivative_bound(pts, 3.0, lvl.decoder) / 6
                 + 1e3 * np.finfo(float).eps * (1 + np.abs(pts).max()) / h)
        for zi, fd in zip(z, hessian_fd_batch(lvl, z, h)):
            err = np.abs(fd - oracles.analytic_level_hessian(base, lvl.decoder, zi)).max()
            assert err <= bound, (hier.__name__, err, bound)


def test_hessian_fd_batch_memory_is_bounded_by_the_chunk():
    # one energy call over every stencil row peaked at 403 MB here
    rng = np.random.default_rng(8)
    ls = EnergyLandscape(MemorySet(rng.normal(size=(250, 16)), tuple(range(250))), 2.0)
    points = rng.normal(size=(128, 16))
    tracemalloc.start()
    try:
        hessian_fd_batch(ls, points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def test_hessian_fd_batch_evaluates_at_most_chunk_rows_per_call():
    # with 2d gradient rows per point, an unchunked call over the memory
    # test's points peaks at 26 MB, under that test's 40 MB bound
    rng = np.random.default_rng(8)
    ls = EnergyLandscape(MemorySet(rng.normal(size=(20, 16)), tuple(range(20))), 2.0)
    rows = []

    class Counted:
        def grad(self, x):
            rows.append(len(x))
            return ls.grad(x)

    hessian_fd_batch(Counted(), rng.normal(size=(128, 16)))
    assert rows == [landscape.CHUNK] * 4


def test_hessian_step_validation():
    with pytest.raises(InputError):
        hessian_fd_batch(two_memory_1d(1.0), np.array([[0.0]]), h=0.0)


@pytest.mark.parametrize("point", [[[0.5, 1.0]], [[0.0, 1.0]], [[1e-3, 2.0]]])
def test_hessian_step_below_float_resolution_raises(point):
    # 1e-17 moves 0.0 and 1e-3 but not 0.5, 1.0 or 2.0: a zero difference
    # would read as a flat landscape
    ls = EnergyLandscape(MemorySet(np.array([[0.0, 0.0], [1.0, 1.0]]), ("a", "b")), 1.0)
    with pytest.raises(InputError, match=r"fd_step 1e-17 is below the float resolution"):
        hessian_fd_batch(ls, np.array(point), h=1e-17)
    assert np.isfinite(hessian_fd_batch(ls, np.array(point), h=1e-6)).all()


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
