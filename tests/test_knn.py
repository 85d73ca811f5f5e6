import math

import numpy as np
import pytest

import oracles
from landscape_lab import knn
from landscape_lab.dynamics import FlowConfig
from landscape_lab.errors import InputError
from landscape_lab.knn import (
    SoftWeights,
    argmax_class,
    attendance_profile,
    knn_predict,
    soft_knn_predict,
)
from landscape_lab.landscape import EnergyLandscape, MemorySet, _softmax

CFG = FlowConfig(step_size=1.0, grad_tol=1e-8, max_steps=10000)


def unit_pair():
    return MemorySet(np.array([[0.0], [1.0]]), (0, 1))


# ---------------------------------------------------------------------------
# Hard k-NN
# ---------------------------------------------------------------------------

def test_knn_k_equals_n_global_mean():
    ms = MemorySet(np.array([[0.0], [1.0], [4.0]]), (0.0, 1.0, 5.0))
    assert knn_predict(ms, np.array([10.0]), k=3) == pytest.approx(2.0)


def test_knn_nearest_neighbor():
    assert knn_predict(unit_pair(), np.array([0.25]), k=1) == 0


def test_knn_matches_bruteforce_oracle():
    # the oracle pins the exact neighbor set; the weighted mean may differ
    # from the oracle's sum-then-divide only by float associativity
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(10, 2))
    labels = tuple(float(v) for v in rng.normal(size=10))
    ms = MemorySet(pts, labels)
    for _ in range(20):
        q = rng.normal(size=2)
        for k in (1, 3, 7, 10):
            expected = oracles.knn_bruteforce(pts, labels, q, k)
            assert knn_predict(ms, q, k) == pytest.approx(expected, abs=1e-12)


def test_knn_matches_bruteforce_oracle_categorical():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(10, 2))
    labels = tuple(rng.choice(["a", "b", "c"], size=10))
    ms = MemorySet(pts, labels)
    for _ in range(20):
        q = rng.normal(size=2)
        for k in (1, 3, 7, 10):
            expected = oracles.knn_bruteforce(pts, labels, q, k)
            got = knn_predict(ms, q, k)
            assert {c: p for c, p in got.items() if p > 0} == expected


def test_knn_categorical_distribution():
    ms = MemorySet(np.array([[0.0], [0.1], [1.0]]), ("a", "a", "b"))
    dist = knn_predict(ms, np.array([0.05]), k=3)
    assert dist == {"a": pytest.approx(2 / 3), "b": pytest.approx(1 / 3)}
    assert argmax_class(dist) == "a"


def test_knn_tie_broken_by_lower_index():
    ms = MemorySet(np.array([[-1.0], [1.0]]), ("first", "second"))
    dist = knn_predict(ms, np.array([0.0]), k=1)
    assert dist == {"first": 1.0, "second": 0.0}


def test_knn_k_validation():
    with pytest.raises(InputError):
        knn_predict(unit_pair(), np.array([0.0]), k=0)
    with pytest.raises(InputError):
        knn_predict(unit_pair(), np.array([0.0]), k=3)


def test_predictors_take_one_query():
    # a (m, d) batch is not a query: knn_predict used to return a
    # non-distribution for it ({'a': 1.0, 'b': 2.0} here), and
    # soft_knn_predict raised an uncaught TypeError
    ms = MemorySet(np.array([[0.0], [1.0], [2.0]]), ("a", "b", "b"))
    batch = np.array([[0.1], [1.9]])
    with pytest.raises(InputError, match=r"query must have shape \(1,\), got \(2, 1\)"):
        knn_predict(ms, batch, k=1)
    with pytest.raises(InputError, match=r"query must have shape \(1,\), got \(2, 1\)"):
        soft_knn_predict(ms, batch, tau=0.5)
    with pytest.raises(InputError, match=r"got \(2,\)"):
        knn_predict(ms, np.array([0.0, 1.0]), k=1)
    assert knn_predict(ms, batch[0], k=1) == {"a": 1.0, "b": 0.0}


# ---------------------------------------------------------------------------
# Soft k-NN
# ---------------------------------------------------------------------------

def test_soft_knn_frozen_scalar_case():
    # direct evaluation: w0 = 1 / (1 + exp(-1)), prediction = 1 - w0
    pred, weights = soft_knn_predict(unit_pair(), np.array([0.25]), tau=0.5)
    w0 = 1.0 / (1.0 + math.exp(-1.0))
    assert weights.weights[0] == pytest.approx(w0, abs=1e-3)
    assert pred == pytest.approx(1.0 - w0, abs=1e-3)


def test_soft_knn_limits():
    rng = np.random.default_rng(1)
    for seed in range(50):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(8, 2))
        labels = tuple(float(v) for v in rng.normal(size=8))
        ms = MemorySet(pts, labels)
        q = rng.normal(size=2)
        pred_hot, _ = soft_knn_predict(ms, q, tau=1e8)
        assert pred_hot == pytest.approx(np.mean(labels), abs=1e-6)
        pred_cold, _ = soft_knn_predict(ms, q, tau=1e-8)
        d2 = ((pts - q) ** 2).sum(axis=1)
        assert pred_cold == labels[int(np.argsort(d2, kind="stable")[0])]


def test_soft_weights_validation():
    with pytest.raises(InputError):
        SoftWeights(np.array([0.5, 0.4]), tau=1.0)    # does not sum to 1
    with pytest.raises(InputError):
        SoftWeights(np.array([1.5, -0.5]), tau=1.0)   # negative weight
    with pytest.raises(InputError):
        soft_knn_predict(unit_pair(), np.array([0.0]), tau=0.0)


def test_soft_weights_are_the_landscape_weights_at_beta_two_over_tau():
    # the identity holds to the bit: the soft k-NN weights of a query, alone
    # or in a batch, are those of the landscape at beta = 2 / tau
    rng = np.random.default_rng(8)
    ms = MemorySet(rng.normal(size=(10, 2)), tuple(range(10)))
    queries = rng.normal(size=(5, 2))
    for tau in (0.02, 0.1, 0.5, 2.0, 10.0):
        batch = EnergyLandscape(ms, 2.0 / tau).weights(queries)
        for q, w in zip(queries, batch):
            assert np.array_equal(soft_knn_predict(ms, q, tau)[1].weights, w)


def test_row_wise_columns_equal_the_one_row_forms():
    # the knn table's columns for a (rows, n) block of weights: each row's
    # k_equivalent is bit for bit SoftWeights(w, tau).effective_count and
    # math.exp of the entropy over the row's positive weights, and each
    # row's soft class is argmax_class of its one-row prediction. The rows
    # include exact-zero weights at n >= 8, where the zeros would regroup
    # numpy's pairwise lanes, and rows whose np.exp and math.exp differ
    rng = np.random.default_rng(12)
    blocks = []
    for n in (3, 8, 20):
        spaced = MemorySet(np.arange(n, dtype=float)[:, None] * 5.0,
                           tuple("abc"[i % 3] for i in range(n)))
        for tau in (0.5, 2.0, 10.0):
            queries = rng.uniform(-2.0, 5.0 * n + 2.0, size=(400, 1))
            blocks.append((spaced, tau, EnergyLandscape(spaced, 2.0 / tau).weights(queries)))
    zero_rows_wide = 0
    entropies = []
    for ms, tau, w in blocks:
        got = knn._effective_counts(w)
        classes = ms.classes()
        soft = knn._aggregate(ms, w).argmax(axis=1)
        for row, k, c in zip(w, got, soft):
            p = row[row > 0]
            h = float(-(p * np.log(p)).sum())
            entropies.append(h)
            assert k == SoftWeights(row, tau).effective_count == math.exp(h)
            assert classes[c] == argmax_class(knn._predict_one(ms, row))
        zero_rows_wide += int((w == 0).any(axis=1).sum()) if ms.n >= 8 else 0
    assert zero_rows_wide > 0
    # a vector exp would fail the equality above on these rows
    assert (np.exp(entropies) != [math.exp(h) for h in entropies]).any()


def test_soft_argmax_shift_invariance():
    # the landscape's scores -beta * sqd / 2 at beta = 2 / tau: shifting
    # every squared distance by one constant leaves the weights unchanged
    def weights(sqd, tau):
        _, ex, z = _softmax(-0.5 * (2.0 / tau) * sqd)
        return ex / z

    rng = np.random.default_rng(4)
    for _ in range(20):
        sqd = rng.uniform(0.0, 5.0, size=9)
        w = weights(sqd, tau=0.7)
        w_shift = weights(sqd + 3.21, tau=0.7)
        assert int(np.argmax(w)) == int(np.argmax(w_shift))
        assert np.abs(w - w_shift).max() < 1e-12


def test_soft_to_hard_two_memory_monotone():
    # exactly monotone for two memories: the far weight is monotone in tau
    taus = np.geomspace(100.0, 1e-6, 25)
    for seed in range(50):
        rng = np.random.default_rng(300 + seed)
        pts = rng.normal(size=(2, 2))
        labels = tuple(float(v) for v in rng.normal(size=2))
        ms = MemorySet(pts, labels)
        q = rng.normal(size=2)
        d2 = ((pts - q) ** 2).sum(axis=1)
        nn_label = labels[int(np.argsort(d2, kind="stable")[0])]
        dists = [abs(soft_knn_predict(ms, q, float(t))[0] - nn_label) for t in taus]
        assert (np.diff(dists) <= 1e-12).all()


def test_soft_to_hard_tail_monotone_generic():
    # once tau dips below the 1-NN squared-distance gap, the approach to the
    # nearest label is monotone; the full grid claim fails for generic
    # multi-label sets (cancellation between far labels), see two-memory test
    taus = np.geomspace(100.0, 1e-6, 25)
    for seed in range(50):
        rng = np.random.default_rng(200 + seed)
        pts = rng.normal(size=(10, 2))
        labels = tuple(float(v) for v in rng.normal(size=10))
        ms = MemorySet(pts, labels)
        q = rng.normal(size=2)
        d2 = np.sort(((pts - q) ** 2).sum(axis=1))
        tail = taus[taus <= d2[1] - d2[0]]
        nn_label = labels[int(np.argsort(((pts - q) ** 2).sum(axis=1), kind="stable")[0])]
        dists = [abs(soft_knn_predict(ms, q, float(t))[0] - nn_label) for t in tail]
        assert (np.diff(dists) <= 1e-12).all()


# ---------------------------------------------------------------------------
# Attendance diagnostics
# ---------------------------------------------------------------------------

def test_attendance_single_memory():
    ls = EnergyLandscape(MemorySet(np.array([[0.5]]), ("m",)), 2.0)
    w = attendance_profile(ls, np.array([3.0]), CFG)
    assert np.allclose(w.weights, [1.0])
    assert w.effective_count == pytest.approx(1.0)


def test_attendance_merged_attends_to_both():
    ls = EnergyLandscape(MemorySet(np.array([[-1.0], [1.0]]), ("a", "b")), 0.5)
    w = attendance_profile(ls, np.array([0.3]), CFG)
    assert np.allclose(w.weights, [0.5, 0.5], atol=1e-6)
    assert w.effective_count == pytest.approx(2.0, abs=1e-5)
    assert w.tau == pytest.approx(2.0 / 0.5)


def test_attendance_sharp_attends_to_one():
    ls = EnergyLandscape(MemorySet(np.array([[-1.0], [1.0]]), ("a", "b")), 8.0)
    w = attendance_profile(ls, np.array([0.3]), CFG)
    assert w.weights.max() > 0.99
    assert w.effective_count == pytest.approx(1.0, abs=1e-2)


def test_attendance_monotone_as_beta_drops():
    betas = [8.0, 4.0, 2.0, 1.0, 0.5]
    cfg = FlowConfig(step_size=1.0, grad_tol=1e-6, max_steps=4000)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(8, 2))
        ms = MemorySet(pts, tuple(range(8)))
        q = ms.centroid + 0.5 * rng.normal(size=2)
        counts = [attendance_profile(EnergyLandscape(ms, b), q, cfg).effective_count
                  for b in betas]
        assert (np.diff(counts) >= -1e-6).all(), f"seed {seed}: {counts}"
