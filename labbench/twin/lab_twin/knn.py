"""Hard and soft k-nearest-neighbor predictors and attendance diagnostics.

The soft predictor weights memories by exp(-||Q - x_i||^2 / tau),
normalized; these are exactly the softmax weights of the canonical energy
landscape with beta = 2 / tau, which is what makes the correspondence
between temperature-weighted attention and basin attendance an identity
here rather than an analogy.

Numeric labels give numeric predictions (weighted means); categorical
labels are one-hot encoded and predictions are class distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from lab_twin.errors import InputError
from lab_twin.landscape import EnergyLandscape, MemorySet

from lab_twin import dynamics


@dataclass
class SoftWeights:
    """Normalized attention over the memory set at temperature tau."""

    weights: np.ndarray
    tau: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.shape[0] == 0:
            raise InputError("weights must be a non-empty vector")
        if (w < 0).any() or abs(float(w.sum()) - 1.0) > 1e-12:
            raise InputError("weights must be non-negative and sum to 1")
        if not (self.tau > 0):
            raise InputError(f"tau must be positive, got {self.tau}")
        w.setflags(write=False)
        self.weights = w

    @property
    def entropy(self) -> float:
        w = self.weights[self.weights > 0]
        return float(-(w * np.log(w)).sum())

    @property
    def effective_count(self) -> float:
        """exp(entropy): how many memories the weights effectively attend to."""
        return math.exp(self.entropy)


def soft_weights_from_sqdist(sqdist: np.ndarray, tau: float) -> np.ndarray:
    """Softmax of -sqdist / tau with max subtraction."""
    if not (tau > 0):
        raise InputError(f"tau must be positive, got {tau}")
    s = -np.asarray(sqdist, dtype=np.float64) / tau
    s = s - s.max(axis=-1, keepdims=True)
    w = np.exp(s)
    return w / w.sum(axis=-1, keepdims=True)


def _sqdist_to_memories(memories: MemorySet, q) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    if q.shape[-1] != memories.dim:
        raise InputError(
            f"query dimension {q.shape[-1]} != memory dimension {memories.dim}")
    return ((memories.points - q) ** 2).sum(axis=-1)


def _aggregate(memories: MemorySet, weights: np.ndarray):
    """Weighted label mean (numeric) or class distribution (categorical)."""
    if memories.labels_numeric():
        y = np.array([float(v) for v in memories.labels])
        return float((weights * y).sum())
    dist = {c: 0.0 for c in memories.classes()}
    for w, label in zip(weights, memories.labels):
        dist[label] += float(w)
    return dist


def argmax_class(prediction: dict):
    """Most probable class of a distribution; ties go to sorted-first."""
    best = max(prediction.values())
    return sorted(c for c, p in prediction.items() if p == best)[0]


def knn_predict(memories: MemorySet, q, k: int):
    """Unweighted prediction from the k closest memories.

    Distance ties are broken by the lower memory index, so results are
    reproducible regardless of storage order quirks.
    """
    if not (1 <= k <= memories.n):
        raise InputError(f"k must be in 1..{memories.n}, got {k}")
    sqd = _sqdist_to_memories(memories, q)
    nearest = np.argsort(sqd, kind="stable")[:k]
    w = np.zeros(memories.n)
    w[nearest] = 1.0 / k
    return _aggregate(memories, w)


def soft_knn_predict(memories: MemorySet, q, tau: float):
    """Temperature-weighted prediction and its attention weights."""
    sqd = _sqdist_to_memories(memories, q)
    w = soft_weights_from_sqdist(sqd, tau)
    return _aggregate(memories, w), SoftWeights(w, tau)


def attendance_profile(landscape: EnergyLandscape, q,
                       config: "dynamics.FlowConfig") -> SoftWeights:
    """Attention weights of the landscape at the flow terminal of q.

    Quantifies how many memories the attractor reached from q attends to;
    the effective_count of the result is the bridge between the soft
    predictor's temperature and the hard predictor's k.
    """
    result = dynamics.flow(landscape, q, config)
    w = landscape.weights(result.terminal)
    return SoftWeights(w, tau=2.0 / landscape.beta)
