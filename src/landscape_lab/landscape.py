"""Labeled memory sets and the canonical smooth energy landscape.

The energy of a point x against memories {x_i} at inverse temperature beta is

    E(x) = -(1/beta) * ln( sum_i exp(-beta * ||x - x_i||^2 / 2) )

a soft minimum of half squared distances. Two identities make this the
canonical choice here:

* its softmax weights w_i(x) are the temperature-weighted attention of the
  soft k-NN predictor with tau = 2/beta: knn reads those weights from
  EnergyLandscape(memories, 2/tau).weights, so they agree to the bit, and
* its gradient is the convex-combination residual
  grad E(x) = x - sum_i w_i(x) x_i,
  so every critical point lies in the convex hull of the memories.

All evaluators accept a single point of shape (d,) or a batch of shape
(m, d). Every distance in the package comes from sqdist, whose docstring
states the chunk-invariance contract the evaluators inherit. sqdist gives
the bits of a plain broadcast-and-sum with no (..., n, d) temporary: below
8 coordinates it accumulates one coordinate at a time, as numpy sums fewer
than 8 terms; from 8 up it rebuilds numpy's pairwise sum with 8 (..., n)
lane accumulators, over row blocks, reading the memories coordinate-major
(at most one copy) so that each coordinate is contiguous. No path uses
BLAS, so a row's distances never depend on the batch it is computed in.

numpy runs a ufunc with a broadcast operand, like sqdist's column-minus-
row subtractions, through its buffered iterator, whose default 8192-element
buffers cost 2-4x a plain contiguous operation while they hold several
rows. So where _small_buffer (decided from rows, n and d alone) says so,
either path's elementwise work runs inside _small_ufunc_buffer, a scope
with a small ufunc buffer that restores the caller's size, and reads each
memory coordinate as a contiguous row. Only elementwise ufuncs run in it,
whose bits the buffer cannot change; every reduction stays outside.

Scores come in two layouts with the same bits. Row-major (rows, n) is the
default. Below 8 coordinates, from _MAJOR_ROWS + 8 n rows on (_by_memory,
decided from rows, n and d alone), energy, weights and energy_grad build
them memory-major, (n, rows), so that each numpy operation runs along the
rows rather than along a handful of memories. Their sums over the
memories then follow numpy's pairwise row order through the one lane
routine, _pairwise_sum, that sqdist's d >= 8 path also uses; a single
row always stays row-major, since numpy sums an (n, 1) array pairwise.
"""

from __future__ import annotations

import contextlib
import csv
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from landscape_lab.errors import InputError

_NUMERIC_TYPES = (int, float, np.integer, np.floating)

CHUNK = 1024            # rows per work item of every chunked batch routine
_FLOW_CELLS = 256 * CHUNK  # (row, memory or coordinate) cells per later flow chunk
TILE = 32               # rows per tile of every upper-triangle pair walk
_BLOCK_CELLS = 65536    # (row, memory) cells per sqdist block, d >= 8
_PAIRWISE_BLOCK = 128   # numpy's pairwise_sum splits ranges longer than this
_SMALL_BUFFER = 256     # numpy ufunc buffer (elements) in _small_ufunc_buffer
_SMALL_BUFFER_FROM = 96        # sqdist takes it from this many memories
_SMALL_BUFFER_UPTO = 8192 // 3  # to this many, three rows of numpy's default buffer
_SMALL_BUFFER_CELLS = 8192     # and from this many rows * n * d (_small_buffer)
_MAJOR_ROWS = 96        # scores below 8 coordinates are memory-major from
                        # _MAJOR_ROWS + 8 n rows on (see _by_memory)


def sqdist(a: np.ndarray, b: np.ndarray, by_memory: bool = False,
           out: np.ndarray | None = None) -> np.ndarray:
    """Squared distances from a (d,) or (m, d) to each row of b (n, d).

    Takes float64 arrays without a check (this is the score hot path).
    Gives the bits of the broadcast ((a - b)**2).sum(-1) without its
    (..., n, d) temporary. out, if given, is a C-contiguous array of the
    result's shape that receives the result and is returned, so a caller
    that walks many blocks can reuse one buffer. Two paths, chosen by
    d = b.shape[1]:

    * d < 8: the squares are accumulated into the result one coordinate
      at a time (_add_squares, inline where neither the small buffer nor
      out is taken). numpy's add.reduce sums fewer than 8 terms
      left to right, so this is the broadcast's order. by_memory lays the
      result out memory-major, (n, m) for a (m, d), so that each operation
      runs along the rows of a; the cells hold the same bits in either
      layout.
    * d >= 8: numpy sums pairwise from 8 terms up, and _pairwise_sum adds
      the squares in that order into 8 (rows, n) lanes, one coordinate's
      squares at a time. The rows of a run in blocks of _BLOCK_CELLS // n,
      written into the result, so a block's lanes stay small. by_memory
      is not taken here.

    Both paths subtract a column of a from a row of memory coordinates,
    a broadcast that numpy feeds through its buffered iterator. Where
    _small_buffer(rows, n, d) says so, the row-major elementwise work
    runs in _small_ufunc_buffer, whose small buffer makes it 2-4x cheaper,
    and reads each coordinate of b contiguously (_coordinate_major(b)).
    The scope holds elementwise ufuncs only, so the bits are the same with
    or without it; few-memory calls skip the rule on their n alone.

    Chunk-invariance contract: no path uses a BLAS expansion, and a row's
    terms are added in an order fixed by d alone, so a row's result is
    bit-identical however its batch is chunked or offset, and in either
    layout; every result table is worker-count independent because all
    distances come from here.
    """
    n, d = b.shape
    if d >= 8:
        if out is None:
            out = np.empty(a.shape[:-1] + (n,))
        rows = a.reshape(-1, d)
        bt = _coordinate_major(b)
        res_rows = out.reshape(-1, n)   # a view: out is C-contiguous
        block = max(1, _BLOCK_CELLS // n)
        lanes = np.empty((8, min(block, rows.shape[0]), n))
        # elementwise ufuncs only from here to the end of the loop
        with _small_ufunc_buffer(_small_buffer(rows.shape[0], n, d)):
            for lo in range(0, rows.shape[0], block):
                part = rows[lo:lo + block]
                res = res_rows[lo:lo + block]
                block_lanes = lanes[:, :res.shape[0]]
                lane_views = list(block_lanes)   # made once per block, not per term

                def squares(k, j, into, spare):
                    targets = lane_views if into is block_lanes else into
                    for i, r in zip(range(k, j), targets):
                        s = np.subtract(part[:, None, i], bt[i],
                                        out=r if spare is None else spare)
                        s *= s
                        if spare is not None:
                            r += s

                _pairwise_sum(squares, 0, d, res, block_lanes)
        return out
    # below 8 coordinates: memory-major is the same sum with a and b
    # swapped, and n is tested first, so few-memory flows skip the rule
    if by_memory:
        a, b = b, a
    elif n >= _SMALL_BUFFER_FROM and _small_buffer(a.size // d, n, d):
        with _small_ufunc_buffer(True):
            return _add_squares(a, _coordinate_major(b).T, out)
    if out is not None:
        return _add_squares(a, b, out)
    # _add_squares inline: the helper call costs few-memory flows' calls
    # of 2-4 us about 3 %
    acc = a[..., None, 0] - b[:, 0]
    acc *= acc
    for k in range(1, d):
        t = a[..., None, k] - b[:, k]
        t *= t
        acc += t
    return acc


def _add_squares(a: np.ndarray, b: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """sum_k (a[..., k] - b[:, k])**2, shape a.shape[:-1] + (n,), for a
    (..., d) and b (n, d), into out if given, added left to right, the
    order in which numpy sums fewer than 8 terms: sqdist's d < 8 sum where
    it takes the small buffer or an out. Elementwise ufuncs only, so
    sqdist may run it in _small_ufunc_buffer. In the memory-major layout
    a and b swap roles: (x - y)**2 and (y - x)**2 have the same bits,
    since rounding is symmetric in sign."""
    acc = np.subtract(a[..., None, 0], b[:, 0], out=out)
    acc *= acc
    for k in range(1, b.shape[1]):
        t = a[..., None, k] - b[:, k]
        t *= t
        acc += t
    return acc


def _coordinate_major(b: np.ndarray) -> np.ndarray:
    """b (n, d) as (d, n) with each coordinate a contiguous row: b.T itself
    when its coordinates already are (b Fortran-ordered, or a row slice of
    a Fortran-ordered array), else one copy of n * d floats."""
    return b.T if b.strides[0] == b.itemsize else np.ascontiguousarray(b.T)


@contextlib.contextmanager
def _small_ufunc_buffer(on: bool):
    """Run the body with numpy's ufunc buffer at _SMALL_BUFFER elements
    when on, restoring the caller's size on the way out, raise or not.

    A ufunc with a broadcast operand, like sqdist's column-minus-row
    subtraction, goes through numpy's buffered iterator, which copies the
    operand into buffers of this size (8192 by default); while a default
    buffer holds three rows or more, a small one runs it 2-4x faster, for
    about 5 us a scope (see _small_buffer). The size lives in thread-local
    (numpy 2: context-local) state that every new thread starts at the
    default, so the helper is entered in the thread that runs the body,
    and it never sets the size process-wide. Only elementwise ufuncs may
    run inside: their bits do not depend on the buffer, whereas a
    reduction's inner loop may be split by it. This is the package's one
    np.setbufsize.
    """
    if not on:
        yield
        return
    old = np.setbufsize(_SMALL_BUFFER)
    try:
        yield
    finally:
        np.setbufsize(old)


def _pairwise_sum(terms, lo: int, hi: int, res: np.ndarray,
                  lanes: np.ndarray) -> np.ndarray:
    """Sum of the terms lo <= k < hi (at least 8) into res, in the order of
    numpy's pairwise_sum (Higham, Accuracy and Stability of Numerical
    Algorithms, sec. 4.2). This is the package's one copy of that order:
    sqdist's d >= 8 path sums squares with it, _memory_sum the rows of a
    memory-major array.

    terms(k, j, into, spare) writes terms k..j-1 (at most 8) into the
    stacked arrays into[0..j-k-1], each shaped like res, or, given a spare
    array shaped like res that it may overwrite, adds them to those. lanes
    is 8 arrays shaped like res, used as scratch. The spare is res itself
    until the lanes combine into it, then a spent lane, so the routine
    needs no scratch beyond the lanes.

    Up to _PAIRWISE_BLOCK terms: lane j sums the terms with k - lo = j
    mod 8 in order, the lanes combine as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))
    and the remaining (hi - lo) mod 8 terms are added last. Above it the
    range splits at a multiple of 8 near its middle and the halves are
    summed the same way, then added.
    """
    m = hi - lo
    if m > _PAIRWISE_BLOCK:
        mid = lo + m // 2 - (m // 2) % 8
        _pairwise_sum(terms, lo, mid, res, lanes)
        res += _pairwise_sum(terms, mid, hi, np.empty_like(res), lanes)
        return res
    terms(lo, lo + 8, lanes, None)
    tail = hi - m % 8
    for k in range(lo + 8, tail, 8):
        terms(k, k + 8, lanes, res)
    r0, r1, r2, r3, r4, r5, r6, r7 = lanes
    r0 += r1
    r2 += r3
    r0 += r2
    r4 += r5
    r6 += r7
    r4 += r6
    np.add(r0, r4, out=res)
    into = res[None]
    for k in range(tail, hi):
        terms(k, k + 1, into, r1)
    return res


def _memory_sum(t: np.ndarray) -> np.ndarray:
    """Sum over the first axis of a memory-major t (n, rows), with the bits
    of the row sums of t.T, which numpy adds pairwise along the memories:
    fewer than 8 terms left to right, as add.reduce sums along an outer
    axis, and from 8 up through _pairwise_sum. One exception: numpy adds a
    pairwise sum to its initial 0.0, which turns a sum of -0.0 terms into
    0.0, and the lanes do not, so a caller whose terms can all be -0.0
    adds that 0.0 itself.

    t needs at least 2 rows: for a (n, 1) t numpy itself sums pairwise.
    """
    n, rows = t.shape
    if n < 8:
        return np.add.reduce(t, axis=0)

    def terms(k, j, into, spare):
        if spare is None:
            into[...] = t[k:j]
        else:
            into += t[k:j]

    return _pairwise_sum(terms, 0, n, np.empty(rows), np.empty((8, rows)))


def _by_memory(x: np.ndarray, n: int) -> bool:
    """Whether the scores of points x (rows, d) against n memories are
    built memory-major, decided from rows, n and d alone (so a row's bits,
    the same in either layout, never depend on it): below 8 coordinates,
    once the rows are many enough that running each operation along them
    beats running it along the memories. That is never a single row, which
    numpy would sum pairwise as an (n, 1) block."""
    return len(x) >= _MAJOR_ROWS + 8 * n and x.ndim == 2 and x.shape[1] < 8


def _small_buffer(rows: int, n: int, d: int) -> bool:
    """Whether sqdist runs its elementwise work for rows points against n
    memories in d coordinates in _small_ufunc_buffer, decided from rows, n
    and d alone (the bits are the same either way). The scope costs about
    5 us a call, and a broadcast gains from it only while numpy's default
    buffer of 8192 elements holds at least three rows of n memories; the
    crossover table is the kernel block of BENCH_pair_walk.json. So: from
    3 rows, from _SMALL_BUFFER_FROM to _SMALL_BUFFER_UPTO memories, and
    from _SMALL_BUFFER_CELLS (row, memory, coordinate) cells on."""
    return (rows >= 3 and _SMALL_BUFFER_FROM <= n <= _SMALL_BUFFER_UPTO
            and rows * n * d >= _SMALL_BUFFER_CELLS)


def chunk_bounds(m: int) -> list:
    """Row bounds (lo, hi) of the fixed CHUNK-row blocks of m rows, which
    depend on m alone, never on a worker count."""
    return [(lo, min(lo + CHUNK, m)) for lo in range(0, m, CHUNK)]


def flow_bounds(m: int, n: int, d: int) -> list:
    """Row bounds (lo, hi) of flow_chunked's chunks of m rows, each scored
    against n memories in d coordinates. The first chunk is min(m, CHUNK)
    rows, so a batch whose flows fail stops as early as on CHUNK-row
    chunks; each later one is max(CHUNK, _FLOW_CELLS // (n + d)) rows, so
    a few-memory batch flows in few chunks, each paying the flow loop's
    per-iteration costs once, while its (rows, n) and (rows, d) arrays
    stay within the cell budget. The bounds depend on (m, n, d) alone,
    never on a worker count."""
    first = min(m, CHUNK)
    size = max(CHUNK, _FLOW_CELLS // (n + d))
    return [(0, first)] + [(lo, min(lo + size, m)) for lo in range(first, m, size)]


def pair_tiles(m: int) -> list:
    """Row bounds (lo, hi) of the upper-triangle pair walk over m rows.

    Tile [lo, hi) pairs its rows with each other (its square) and with
    every row from hi on (its strip), so each unordered pair i < j lies in
    exactly one tile and no tile's distances exceed TILE x m. The bounds
    depend on m alone, never on a worker count.
    """
    return [(lo, min(lo + TILE, m)) for lo in range(0, m, TILE)]


def weighted_sum(w: np.ndarray, points: np.ndarray,
                 by_memory: bool = False) -> np.ndarray:
    """sum_i w_i x_i: weights (..., n) against points (n, d), shape (..., d).

    Gives the bits of the broadcast (w[..., :, None] * points).sum(-2)
    without its (..., n, d) product. For d >= 2, einsum with its default
    optimize=False adds the memories' terms in the same order as that
    reduction. At d = 1 the reduction runs along a contiguous axis, which
    numpy sums pairwise, and only the plain row sum matches it. No BLAS
    (w @ points rounds differently), so a row's result does not depend on
    its batch. A test checks both paths against the broadcast.

    by_memory takes memory-major weights (n, rows), rows >= 2, and gives
    the same bits: at d = 1 through _memory_sum, and at d >= 2 by adding
    each coordinate's C-ordered (n, rows) products along the memories
    with add.reduce, which adds an outer axis in order, as einsum does.
    """
    if by_memory:
        if points.shape[1] == 1:
            mean = _memory_sum(w * points)
            mean += 0.0
            return mean[:, None]
        mean = np.empty((points.shape[1], w.shape[1]))
        for k in range(points.shape[1]):
            np.add.reduce(w * points[:, k, None], axis=0, out=mean[k])
        return mean.T
    if points.shape[1] == 1:
        return (w * points[:, 0]).sum(axis=-1)[..., None]
    return np.einsum("...n,nd->...d", w, points)


def _softmax(s: np.ndarray, by_memory: bool = False) -> tuple:
    """Max-shifted softmax of scores s along their memory axis, as (m, ex, z).

    s is (..., n), or memory-major (n, rows), rows >= 2, by_memory (its
    memory axis is then 0). m is the max over the memories, ex = exp(s - m)
    and z the sum of ex over the memories, so the weights are ex / z and
    the log-sum-exp is m + log(z). Both layouts give the same bits: the
    max and exp are exact or elementwise, and the memory-major z is
    _memory_sum's, in the pairwise order of numpy's row sum. The energy,
    its weights and gradient all come from here, and so do the soft k-NN
    weights, which are the weights at beta = 2 / tau.
    """
    if by_memory:
        m = s.max(axis=0)
        ex = np.exp(s - m)
        return m, ex, _memory_sum(ex)
    m = s.max(axis=-1)
    ex = np.exp(s - m[..., None])
    return m, ex, ex.sum(axis=-1)


def _is_numeric_label(label) -> bool:
    return isinstance(label, _NUMERIC_TYPES) and not isinstance(label, bool)


@dataclass
class MemorySet:
    """Labeled points in d-dimensional space: the stored training data.

    points is (n, dim) float64 and is made read-only at construction;
    duplicate rows are rejected so per-class counts stay well defined, and
    so are labels that classes() cannot sort or that are NaN, which equals
    no label. Labels equal in Python (1 and 1.0) name one class, the first
    seen: classes() is sorted(set(labels)), and the read-only (n,) integer
    class_index holds each memory's position in it, for every table to read.
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
        distinct = set(labels)
        try:
            classes = sorted(distinct)
            bad = any(y != y for y in classes)
        except TypeError:
            bad = True
        if bad:
            raise InputError("labels must be mutually orderable and not NaN, got "
                             + ", ".join(sorted(set(map(repr, distinct)))))
        position = {c: j for j, c in enumerate(classes)}
        index = np.array([position[y] for y in labels], dtype=np.intp)
        pts.setflags(write=False)
        index.setflags(write=False)
        self.points = pts
        self.labels = labels
        self._classes = tuple(classes)
        self.class_index = index

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
        """Max distance between two memories, taken over the pair tiles
        (no (n, n) array); sqrt is monotone, so it is taken once, of the
        largest squared distance."""
        pts = self.points
        return math.sqrt(max(float(sqdist(pts[lo:hi], pts[lo:]).max())
                             for lo, hi in pair_tiles(self.n)))

    def classes(self) -> list:
        return list(self._classes)

    def class_proportions(self) -> dict:
        shares = np.bincount(self.class_index) / self.n
        return dict(zip(self._classes, shares.tolist()))

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

    def _scores(self, x: np.ndarray, by_memory: bool = False) -> np.ndarray:
        """Per-memory scores -beta * ||x - x_i||^2 / 2, shape (..., n), or
        memory-major (n, rows) by_memory (see sqdist)."""
        return -0.5 * self.beta * sqdist(x, self.memories.points, by_memory)

    def energy(self, x) -> np.ndarray | float:
        """Log-sum-exp energy, computed with max subtraction."""
        x = self._check_dim(x)
        by_memory = _by_memory(x, len(self.memories.points))
        m, _, z = _softmax(self._scores(x, by_memory), by_memory)
        e = -(m + np.log(z)) / self.beta
        return float(e) if e.ndim == 0 else e

    def weights(self, x) -> np.ndarray:
        """Softmax attention over memories; non-negative, sums to 1. A
        C-ordered (..., n) array in either score layout."""
        x = self._check_dim(x)
        by_memory = _by_memory(x, len(self.memories.points))
        _, ex, z = _softmax(self._scores(x, by_memory), by_memory)
        if by_memory:
            return np.divide(ex.T, z[:, None], out=np.empty(ex.T.shape))
        return ex / z[..., None]

    def energy_grad(self, x, *, log_counts: np.ndarray | None = None) -> tuple:
        """Energy and analytic gradient from one score pass.

        The softmax weights that normalise the log-sum-exp also give the
        gradient x - sum_i w_i x_i, so both come from the same exp. Each
        is bit-identical to what energy and weights compute alone.

        log_counts (m, n), if given, puts each row x_r (of x (m, d)) on its
        own bootstrap multiset of the memories: row r is added to x_r's
        scores, log(count) on each memory drawn and -inf on the others,
        which is the multiset's log-sum-exp, and an undrawn memory's
        weight is an exact zero. A row gets the bits of the full landscape
        with its offsets on the scores, in either score layout, from the
        same one score pass. It is keyword-only, so flow_batch's keys,
        passed positionally, never reach it.
        """
        x = self._check_dim(x)
        by_memory = _by_memory(x, len(self.memories.points))
        s = self._scores(x, by_memory)
        if log_counts is not None:
            s += log_counts.T if by_memory else log_counts
        m, ex, z = _softmax(s, by_memory)
        del s    # freed before the weighted sum
        e = -(m + np.log(z)) / self.beta
        w = ex / z if by_memory else ex / z[..., None]
        g = x - weighted_sum(w, self.memories.points, by_memory)
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


def hessian_fd_batch(target, points: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Symmetrized central differences of the gradient at many points, (m, d, d).

    Column i at x is (g(x + h e_i) - g(x - h e_i)) / 2h (Nocedal & Wright
    2006, 8.1), where e_i's off-axis coordinates are +0.0. target is
    anything with a batch-capable .grad, so the same code serves the base
    landscape and every abstraction level. The 2d shifted rows of every
    point are built in one broadcast and evaluated CHUNK at a time, so the
    gradient's memory is bounded by the chunk; gradients are row-wise, so
    the chunking does not move a bit. A step that leaves some x_i where it
    was raises InputError.
    """
    if not (h > 0):
        raise InputError(f"finite-difference step must be positive, got {h}")
    points = np.asarray(points, dtype=np.float64)
    m, d = points.shape
    if ((points + h == points) | (points - h == points)).any():
        raise InputError(f"fd_step {h!r} is below the float resolution of the points: "
                         "x + h e_i or x - h e_i rounds to x")
    steps = np.stack([np.diag(np.full(d, h)), np.diag(np.full(d, -h))])
    shifted = (points[:, None, None] + steps).reshape(-1, d)
    grads = np.empty_like(shifted)
    for lo in range(0, shifted.shape[0], CHUNK):
        grads[lo:lo + CHUNK] = target.grad(shifted[lo:lo + CHUNK])
    grads = grads.reshape(m, 2, d, d)
    raw = (grads[:, 0] - grads[:, 1]) / (2.0 * h)
    return 0.5 * (raw + raw.transpose(0, 2, 1))


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
    """Load a memory set from CSV with columns x_0..x_{d-1}, label. A file
    that cannot be read as UTF-8 text, or a coordinate that is not a
    number, raises InputError naming the path (and the line)."""
    try:
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
                    raise InputError(f"{path}, line {reader.line_num}: row has "
                                     f"{len(row)} fields, expected {dim + 1}")
                try:
                    points.append([float(v) for v in row[:dim]])
                except ValueError:
                    raise InputError(f"{path}, line {reader.line_num}: coordinates "
                                     f"must be numbers, got {row[:dim]}") from None
                labels.append(_parse_label(row[dim]))
    except OSError as exc:
        raise InputError(f"{path}: cannot read memories: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise InputError(f"{path}: memories must be UTF-8 text") from None
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
                   labels: Sequence | None = None) -> MemorySet:
    """Synthesize Gaussian class blobs with configurable per-class counts:
    class centers drawn at scale center_scale, members at scale spread."""
    from landscape_lab._seeds import derive_rng

    if dim < 1 or any(c < 1 for c in class_counts):
        raise InputError("dim and every class count must be >= 1")
    if not class_counts:
        raise InputError("class_counts must name at least one class")
    if labels is None:
        labels = list(range(len(class_counts)))
    if len(labels) != len(class_counts):
        raise InputError("labels must parallel class_counts")
    rng = derive_rng(seed, "blobs")
    centers = center_scale * rng.standard_normal((len(class_counts), dim))
    points, ys = [], []
    for center, count, label in zip(centers, class_counts, labels):
        points.append(center + spread * rng.standard_normal((count, dim)))
        ys.extend([label] * count)
    return MemorySet(np.concatenate(points, axis=0), tuple(ys))
