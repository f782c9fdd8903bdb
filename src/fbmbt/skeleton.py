"""Random-walk skeleton of the Brownian time change.

At level n the Brownian motion Y is watched at the successive hitting times of
the spatial grid ``2**(-n/2) * Z``; the recorded positions form a simple
symmetric random walk.  Everything downstream (crossing counts, the signed
closed form, the terminal value of Y) is a deterministic function of that
walk, so hitting-time durations are never simulated.  Consumers that read
only the terminal position draw it directly with ``sample_terminal``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fgn import check_level, grid_spacing
from .rng import STREAM_WALK, keyed

# Steps per block of the walk and of the crossing count: a block's int64
# jumps or keys take 256 KB, which stays in cache.
_BLOCK = 2**15


@dataclass(frozen=True)
class SkeletonPath:
    """Simple random walk: integer positions s_0..s_m with s_0 = 0."""

    level: int
    steps: int
    positions: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class CrossingTable:
    """Up/downcrossing counts per spatial edge ``[j, j+1]``.

    ``up[j - j_lo]`` counts steps from j to j+1 within the horizon,
    ``down[j - j_lo]`` steps from j+1 to j.
    """

    j_lo: int
    up: np.ndarray = field(repr=False)
    down: np.ndarray = field(repr=False)

    def signed(self) -> dict[int, int]:
        """Map j -> U_j - D_j, zeros omitted."""
        diff = self.up - self.down
        nonzero = np.flatnonzero(diff)
        return dict(zip((nonzero + self.j_lo).tolist(), diff[nonzero].tolist()))


def sample_skeleton(level: int, steps: int, seed: int) -> SkeletonPath:
    """Draw a simple symmetric random walk of ``steps`` unit steps."""
    level = check_level(level)
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    # Step i is up when bit i mod 64 of raw 64-bit word i // 64 of the
    # walk's stream is set, least significant bit first: the little-endian
    # bytes of the words, unpacked little-endian.  So shorter walks are
    # prefixes of longer ones.  A block of _BLOCK steps (whole words) is
    # drawn, turned into jumps and cumulated at a time, the first jump
    # carrying the position the block starts from.
    bits = keyed(seed, STREAM_WALK).bit_generator
    positions = np.empty(steps + 1, dtype=np.int64)
    positions[0] = 0
    jumps = np.empty(min(steps, _BLOCK), dtype=np.int64)
    for lo in range(0, steps, _BLOCK):
        k = min(_BLOCK, steps - lo)
        raw = bits.random_raw((k + 63) // 64).astype("<u8", copy=False)
        up = np.unpackbits(raw.view(np.uint8), count=k, bitorder="little")
        block = jumps[:k]
        np.multiply(up, 2, out=block, dtype=np.int64)
        block -= 1
        block[0] += positions[lo]
        np.cumsum(block, out=positions[lo + 1 : lo + k + 1])
    return SkeletonPath(level=level, steps=int(steps), positions=positions)


def sample_terminal(level: int, steps: int, seed: int) -> int:
    """Terminal position s_steps of a ``steps``-step simple symmetric walk.

    One binomial draw, 2 * Binomial(steps, 1/2) - steps, from the walk's
    stream: the same law as ``sample_skeleton(level, steps, seed)``'s last
    position, without drawing the steps.
    """
    check_level(level)
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    return 2 * int(keyed(seed, STREAM_WALK).binomial(steps, 0.5)) - int(steps)


def _check_horizon(path: SkeletonPath, horizon: int) -> int:
    if not 0 <= horizon <= path.steps:
        raise ValueError(f"horizon {horizon} outside [0, {path.steps}]")
    return int(horizon)


def crossings_bruteforce(path: SkeletonPath, horizon: int) -> CrossingTable:
    """Count every up/downcrossing among the first ``horizon`` steps."""
    horizon = _check_horizon(path, horizon)
    if horizon == 0:
        return CrossingTable(j_lo=0, up=np.zeros(0, np.int64), down=np.zeros(0, np.int64))
    # A step from a to b = a +- 1 keys as 3a + b: 4j + 1 for an up-step over
    # the edge [j, j+1], 4j + 3 for a down-step over it.  The edges run from
    # the walk's minimum to one below its maximum; each block of _BLOCK
    # steps is counted from its own lowest key into its slice of the counts.
    visited = path.positions[: horizon + 1]
    j_lo = int(visited.min())
    counts = np.zeros(4 * (int(visited.max()) - j_lo), np.int64)
    keys = np.empty(min(horizon, _BLOCK), np.int64)
    for lo in range(0, horizon, _BLOCK):
        hi = min(lo + _BLOCK, horizon)
        key = keys[: hi - lo]
        np.multiply(visited[lo:hi], 3, out=key)
        key += visited[lo + 1 : hi + 1]
        base = int(key.min())
        key -= base
        block = np.bincount(key)
        start = base - (4 * j_lo + 1)
        counts[start : start + len(block)] += block
    return CrossingTable(j_lo=j_lo, up=counts[::4], down=counts[2::4])


def signed_crossings_closed_form(path: SkeletonPath, horizon: int) -> dict[int, int]:
    """U_j - D_j without counting: +1 on [0, j*), -1 on [j*, 0), j* = s_horizon."""
    horizon = _check_horizon(path, horizon)
    j_star = int(path.positions[horizon])
    if j_star > 0:
        return {j: 1 for j in range(0, j_star)}
    if j_star < 0:
        return {j: -1 for j in range(j_star, 0)}
    return {}


def terminal_y(path: SkeletonPath, horizon: int) -> float:
    """Value of Y at the horizon-th stopping time: s_horizon * 2**(-n/2)."""
    horizon = _check_horizon(path, horizon)
    return float(path.positions[horizon]) * grid_spacing(path.level)
