"""Hard and soft k-nearest-neighbor predictors and the effective count of their weights.

The soft predictor weights memories by exp(-||Q - x_i||^2 / tau),
normalized. These weights are EnergyLandscape(memories, 2 / tau).weights,
the softmax weights of the canonical energy landscape at beta = 2 / tau,
read from that landscape itself: tau_landscape builds it, so the
correspondence between temperature-weighted attention and basin attendance
is an identity here, to the bit, rather than an analogy.

Numeric labels give the public predictors a weighted mean, other labels a
class distribution over MemorySet.classes(). The knn experiment reads the
class distribution for every label type, so its class columns hold classes()
entries: labels equal in Python (1, 1.0) name one class, sorted by value.

The predictions, their argmax class and exp(entropy) are computed row-wise
over (rows, n) weights, so that the knn experiment takes each column for a
whole window of queries at once; the public forms take one (d,) query and
are the one-row case of the same code, with the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from landscape_lab.errors import InputError
from landscape_lab.landscape import EnergyLandscape, MemorySet, sqdist


@dataclass
class SoftWeights:
    """Normalized attention over the memory set at temperature tau."""

    weights: np.ndarray
    tau: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.shape[0] == 0:
            raise InputError("weights must be a non-empty vector")
        if _invalid_rows(w[None])[0]:
            raise InputError("weights must be non-negative and sum to 1")
        if not (self.tau > 0):
            raise InputError(f"tau must be positive, got {self.tau}")
        w.setflags(write=False)
        self.weights = w

    @property
    def entropy(self) -> float:
        return float(_entropies(self.weights[None])[0])

    @property
    def effective_count(self) -> float:
        """exp(entropy): how many memories the weights effectively attend to."""
        return _effective_counts(self.weights[None])[0]


def _invalid_rows(w: np.ndarray) -> np.ndarray:
    """Rows of weights (rows, n) with a negative weight or a sum off 1."""
    return (w < 0).any(axis=1) | (np.abs(w.sum(axis=1) - 1.0) > 1e-12)


def _entropies(w: np.ndarray) -> np.ndarray:
    """Entropy of each row of weights (rows, n), over its positive weights.
    A row with a weight that is not positive (an exact zero) sums its
    compressed w[w > 0] alone: from 8 memories on, numpy's pairwise lanes
    would group its terms differently with the zeros left in."""
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -(w * np.log(w)).sum(axis=1)
    for r in np.flatnonzero(~(w > 0).all(axis=1)):
        p = w[r][w[r] > 0]
        h[r] = -(p * np.log(p)).sum()
    return h


def _effective_counts(w: np.ndarray) -> list:
    """exp(entropy) of each row of weights (rows, n), by math.exp: np.exp
    differs from it by an ulp on some rows."""
    return [math.exp(h) for h in _entropies(w)]


def tau_landscape(memories: MemorySet, tau: float) -> EnergyLandscape:
    """The landscape whose softmax weights are the soft k-NN weights at tau."""
    if not (tau > 0):
        raise InputError(f"tau must be positive, got {tau}")
    return EnergyLandscape(memories, beta=2.0 / tau)


def _aggregate(memories: MemorySet, weights: np.ndarray) -> np.ndarray:
    """Class distribution over memories.classes(), (rows, classes), of each
    row of weights (rows, n): a class adds its memories' weights, found by
    memories.class_index, in memory order from 0.0."""
    dist = np.zeros((weights.shape[0], len(memories.classes())))
    for i, j in enumerate(memories.class_index.tolist()):
        dist[:, j] += weights[:, i]
    return dist


def _predict_one(memories: MemorySet, w: np.ndarray):
    """One weight vector's label mean (numeric labels) or {class: p} dict."""
    if memories.labels_numeric():
        return float((w * np.array([float(v) for v in memories.labels])).sum())
    return dict(zip(memories.classes(), map(float, _aggregate(memories, w[None])[0])))


def argmax_class(prediction: dict):
    """Most probable class of a distribution; ties go to sorted-first, as
    argmax over the classes in sorted order takes the first maximum."""
    classes = sorted(prediction)
    return classes[int(np.argmax([prediction[c] for c in classes]))]


def _query(memories: MemorySet, q) -> np.ndarray:
    """q as one (dim,) query, else InputError naming its shape."""
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (memories.dim,):
        raise InputError(f"query must have shape ({memories.dim},), got {q.shape}")
    return q


def knn_predict(memories: MemorySet, q, k: int):
    """Unweighted prediction from the k closest memories to one query q (d,).

    Distance ties are broken by the lower memory index, so results are
    reproducible regardless of storage order quirks.
    """
    if not (1 <= k <= memories.n):
        raise InputError(f"k must be in 1..{memories.n}, got {k}")
    q = _query(memories, q)
    nearest = np.argsort(sqdist(q, memories.points), kind="stable")[:k]
    w = np.zeros(memories.n)
    w[nearest] = 1.0 / k
    return _predict_one(memories, w)


def soft_knn_predict(memories: MemorySet, q, tau: float):
    """Temperature-weighted prediction for one query q (d,), and its
    attention weights."""
    w = tau_landscape(memories, tau).weights(_query(memories, q))
    return _predict_one(memories, w), SoftWeights(w, tau)
