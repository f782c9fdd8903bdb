"""Deterministic seed derivation for parallel Monte Carlo.

Every random object in the toolkit draws from a numpy Philox (counter-based)
generator whose key is derived from a user-supplied 64-bit master seed through
the SplitMix64 mixing function.  Replication i of an experiment uses
``derive_seed(master_seed, i)``; within one replication, each stochastic
component (fBm component 1/2, the skeleton walk or its terminal position, the
normal of the H = 1/6 correction, the Brownian time draw) gets its own stream
via a fixed offset.
The scheme is stateless, so results are independent of execution order.
A generator is Philox keyed directly, without the OS-entropy seed sequence
``Philox(key=...)`` builds and discards.
"""

from __future__ import annotations

import functools

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
GOLDEN = 0x9E3779B97F4A7C15

# Fixed stream offsets, documented so experiments are externally reproducible.
STREAM_X1 = 0x1
STREAM_X2 = 0x2
STREAM_WALK = 0x3
STREAM_B = 0x4
STREAM_Y = 0x8


def splitmix64(x: int) -> int:
    """One round of the SplitMix64 finalizer (Steele, Lea & Flood)."""
    x = (x + GOLDEN) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return (x ^ (x >> 31)) & _MASK


def derive_seed(master_seed: int, index: int) -> int:
    """Seed for replication ``index`` of a run keyed by ``master_seed``."""
    return splitmix64((master_seed ^ ((index * GOLDEN) & _MASK)) & _MASK)


def stream_seed(seed: int, stream: int) -> int:
    """Seed for one named stochastic component within a replication."""
    return splitmix64((seed ^ ((stream * GOLDEN) & _MASK) ^ GOLDEN) & _MASK)


@functools.cache
def _philox_key() -> type:
    """A seed sequence that hands Philox the key words ``[key, 0]`` that
    ``Philox(key=key)`` sets, so that Philox draws no entropy from the OS.

    Built on first use: numpy loads ``numpy.random`` lazily, and loading it
    at import would add ~6 MB to the memory peak of the set-up."""
    from numpy.random.bit_generator import ISeedSequence

    class PhiloxKey(ISeedSequence):
        __slots__ = ("key",)

        def __init__(self, key: int):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return np.array([self.key, 0], dtype=np.uint64)

    return PhiloxKey


def generator(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator for the given (seed, stream) pair: Philox with
    key ``stream_seed(seed, stream)`` and counter 0."""
    return np.random.Generator(np.random.Philox(_philox_key()(stream_seed(seed, stream))))
