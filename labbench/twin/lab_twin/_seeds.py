"""Deterministic RNG derivation.

All randomness in the package flows through these helpers so that results
are reproducible from a single integer seed and independent of worker
count: every work item derives its own stream from (seed, tags...).
"""

from zlib import crc32

import numpy as np

_MASK63 = (1 << 63) - 1
_MASK32 = (1 << 32) - 1


def _key(tag) -> int:
    if isinstance(tag, str):
        return crc32(tag.encode("utf-8"))
    return int(tag) & _MASK32


def derive_rng(seed: int, *tags) -> np.random.Generator:
    """Generator keyed by (seed, *tags); tags may be ints or short strings."""
    ss = np.random.SeedSequence(entropy=int(seed) & _MASK63,
                                spawn_key=tuple(_key(t) for t in tags))
    return np.random.default_rng(ss)


def derive_seed(seed: int, *tags) -> int:
    """Plain integer sub-seed keyed by (seed, *tags)."""
    ss = np.random.SeedSequence(entropy=int(seed) & _MASK63,
                                spawn_key=tuple(_key(t) for t in tags))
    return int(ss.generate_state(1, np.uint64)[0])
