"""Feature-selection odds model for merged minima.

A merged minimum holds p majority-class and q minority-class minima. To
produce a pure (non-mixture) sample, all S class-exclusive features must be
drawn from the same class, each independently with majority probability
p / (p + q). The odds of a pure-majority draw against a pure-minority draw
are then (p/q)^S, amplifying the raw count odds p/q for every S > 1.

Mixed draws are reported separately; odds are conditional on purity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from landscape_lab._seeds import derive_rng
from landscape_lab.errors import InputError, require_integer

_OVERFLOW_LIMIT = 1e300


@dataclass(frozen=True)
class MergeScenario:
    """Counts inside one merged minimum: p, q, and the feature count S."""

    majority_minima: int
    minority_minima: int
    feature_count: int

    def __post_init__(self):
        for name in ("majority_minima", "minority_minima", "feature_count"):
            if require_integer(name, getattr(self, name)) < 1:
                raise InputError(f"{name} must be >= 1, got {getattr(self, name)}")

    @property
    def majority_prob(self) -> float:
        return self.majority_minima / (self.majority_minima + self.minority_minima)


class MergeCounts(NamedTuple):
    pure_majority: int
    pure_minority: int
    mixed: int

    def conditional_odds(self) -> float:
        """pure_majority : pure_minority, conditioning on purity."""
        if self.pure_minority == 0:
            return math.inf
        return self.pure_majority / self.pure_minority


def initial_odds(scenario: MergeScenario) -> float:
    """Count odds p/q before smoothing."""
    return scenario.majority_minima / scenario.minority_minima


def smoothed_odds(scenario: MergeScenario) -> float:
    """(p/q)^S, saturating to inf above 1e300."""
    log_odds = scenario.feature_count * (math.log(scenario.majority_minima)
                                         - math.log(scenario.minority_minima))
    if log_odds > math.log(_OVERFLOW_LIMIT):
        return math.inf
    return (scenario.majority_minima / scenario.minority_minima) ** scenario.feature_count


def simulate_merge(scenario: MergeScenario, trials: int, seed: int = 0) -> MergeCounts:
    """Monte Carlo draw of S independent feature sources per trial.

    A feature comes from the majority class when its draw is below p, so a
    trial is pure-majority when all S of its draws are below p, pure-minority
    when none is, otherwise mixed. Trials use a single seeded stream, drawn
    2^14 at a time into one reused buffer that stays in cache (the chunk
    does not change the stream); a block's S columns of draws < p are added
    as bytes into a per-trial count of a dtype that holds S.
    """
    if require_integer("trials", trials) < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    rng = derive_rng(seed, "merge-trials")
    p = scenario.majority_prob
    s = scenario.feature_count
    buf = np.empty((min(1 << 14, trials), s))
    below = np.empty(buf.shape, dtype=np.bool_)
    pure_a = pure_b = 0
    for done in range(0, trials, buf.shape[0]):
        draws = rng.random(out=buf[:trials - done])
        features = np.less(draws, p, out=below[:len(draws)]).view(np.uint8)
        majority = features[:, 0].astype(np.min_scalar_type(s))
        for k in range(1, s):
            majority += features[:, k]
        pure_a += int(np.count_nonzero(majority == s))
        pure_b += int(np.count_nonzero(majority == 0))
    return MergeCounts(pure_a, pure_b, trials - pure_a - pure_b)
