"""Deterministic random-number substreams.

A substream is a PCG64 generator whose key is derived from (master seed,
context keys...) with a SplitMix64-style mixer. The engine keys one
substream per purpose and step (init per cycle, the failed requests per
cycle and phase where a stock runs short, a rooted run's final shuffle),
never per vertex, so a run draws only a handful of generators and is
identical whenever it is repeated with the same seed.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
# SplitMix64 finalizer constants (Steele, Lea, Flood).
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64(x: int) -> int:
    """64-bit finalizer; stable across platforms."""
    x = (x + _GAMMA) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def splitmix64_array(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 over a uint64 array."""
    x = x.astype(np.uint64, copy=True)
    x += np.uint64(_GAMMA)
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX2)
    x ^= x >> np.uint64(31)
    return x


def derive_key(master_seed: int, *parts: int) -> int:
    """Fold context keys into one 64-bit stream key."""
    h = splitmix64(master_seed & _MASK64)
    for p in parts:
        h = splitmix64(h ^ (int(p) & _MASK64))
    return h


def substream(master_seed: int, *parts: int) -> np.random.Generator:
    """Generator for the substream identified by (master_seed, *parts)."""
    return np.random.Generator(np.random.PCG64(derive_key(master_seed, *parts)))


# Context tags for substream derivation; any distinct constants work, these
# are fixed so streams never collide across purposes.
INIT_STREAM = 0x01
SERVE_STREAM = 0x02
SHUFFLE_STREAM = 0x03
