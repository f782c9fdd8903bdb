"""Deterministic seed derivation for parallel Monte Carlo.

Every fBm path, walk and normal in the toolkit draws from a numpy Philox
(counter-based) generator whose key is derived from a user-supplied 64-bit
master seed through the SplitMix64 mixing function.  Replication i of an
experiment uses ``derive_seed(master_seed, i)``; within one replication, each
stochastic component gets its own stream via a fixed offset: fBm components
1 and 2 (``STREAM_X1``, ``STREAM_X2``), the skeleton walk or its terminal
position (``STREAM_WALK``), the normal of the H = 1/6 correction
(``STREAM_B``), the parameters of a random identity instance (horizon, H,
n, t, f, (p, q); ``STREAM_INSTANCE``) and the Brownian time draw
(``STREAM_Y``).  Offsets 0x5 and 0x7 are unused.  The walk reads its
steps from raw 64-bit words: step i is up when bit i mod 64 of word i // 64
is set, least significant bit first, which is bit i mod 8 of byte i // 8 of
the words' little-endian bytes, the packed view ``skeleton.walk_bits``
returns.
The scheme is stateless, so results are independent of execution order.

A Philox stream is a function of its key and counter alone (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011), so a process keeps
one Philox and one Generator, built on first draw, and ``keyed`` re-keys them
for each (seed, stream) draw: key ``[stream_seed(seed, stream), 0]``, counter
0, and an empty output buffer and no buffered 32-bit half-word, the state of a
fresh ``generator(seed, stream)``.  What ``keyed`` returns is valid until the
next call; ``StreamKey`` is a handle that re-keys when it draws.  The pair is
per process (a forked pool worker re-keys its own copy) and not thread-safe.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
GOLDEN = 0x9E3779B97F4A7C15

# Fixed stream offsets, documented so experiments are externally reproducible.
STREAM_X1 = 0x1
STREAM_X2 = 0x2
STREAM_WALK = 0x3
STREAM_B = 0x4
STREAM_INSTANCE = 0x6
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


def generator(seed: int, stream: int) -> np.random.Generator:
    """A fresh counter-based generator for the given (seed, stream) pair:
    Philox with key ``stream_seed(seed, stream)`` and counter 0."""
    return np.random.Generator(np.random.Philox(key=stream_seed(seed, stream)))


@functools.cache
def _shared() -> tuple[np.random.Generator, list, dict]:
    """The process's generator, the key words of the state it is re-keyed
    to and that state.  The words are Python lists, which the state setter
    reads faster than uint64 arrays.  Built on first use:
    numpy loads ``numpy.random`` lazily, and loading it at import would add
    ~6 MB to the memory peak of the set-up."""
    key = [0, 0]
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return generator(0, 0), key, state


def keyed(seed: int, stream: int) -> np.random.Generator:
    """The process's generator re-keyed to the (seed, stream) pair: it draws
    what ``generator(seed, stream)`` draws, until the next call re-keys it."""
    rng, key, state = _shared()
    key[0] = stream_seed(seed, stream)
    rng.bit_generator.state = state
    return rng


class StreamKey(NamedTuple):
    """A (seed, stream) pair that draws its normals through ``keyed``: a
    handle, one per row, for a sampler that reads its rows one by one."""

    seed: int
    stream: int

    def standard_normal(self, out: np.ndarray) -> np.ndarray:
        return keyed(self.seed, self.stream).standard_normal(out=out)
