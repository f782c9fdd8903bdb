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
from .rng import STREAM_WALK, generator


@dataclass(frozen=True)
class SkeletonPath:
    """Simple random walk: integer positions s_0..s_m with s_0 = 0."""

    level: int
    steps: int
    positions: np.ndarray = field(repr=False)
    seed: int

    @property
    def spacing(self) -> float:
        return grid_spacing(self.level)


@dataclass(frozen=True)
class CrossingTable:
    """Up/downcrossing counts per spatial edge ``[j, j+1]``.

    ``up[j - j_lo]`` counts steps from j to j+1 within the horizon,
    ``down[j - j_lo]`` steps from j+1 to j.
    """

    j_lo: int
    up: np.ndarray = field(repr=False)
    down: np.ndarray = field(repr=False)
    horizon: int

    @property
    def j_hi(self) -> int:
        return self.j_lo + len(self.up) - 1

    def upcrossings(self, j: int) -> int:
        if self.j_lo <= j <= self.j_hi:
            return int(self.up[j - self.j_lo])
        return 0

    def downcrossings(self, j: int) -> int:
        if self.j_lo <= j <= self.j_hi:
            return int(self.down[j - self.j_lo])
        return 0

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
    rng = generator(seed, STREAM_WALK)
    # The top bit of each 32-bit word is exactly what integers(0, 2) draws
    # from the same word, so the stream is unchanged and shorter walks are
    # prefixes of longer ones.
    bits = rng.integers(0, 1 << 32, size=steps, dtype=np.uint32)
    bits >>= 31
    jumps = bits.view(np.int32)
    jumps *= 2
    jumps -= 1
    positions = np.empty(steps + 1, dtype=np.int64)
    positions[0] = 0
    np.cumsum(jumps, out=positions[1:])
    return SkeletonPath(level=level, steps=int(steps), positions=positions, seed=int(seed))


def sample_terminal(level: int, steps: int, seed: int) -> int:
    """Terminal position s_steps of a ``steps``-step simple symmetric walk.

    One binomial draw, 2 * Binomial(steps, 1/2) - steps, from the walk's
    stream: the same law as ``sample_skeleton(level, steps, seed)``'s last
    position, without drawing the steps.
    """
    check_level(level)
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    rng = generator(seed, STREAM_WALK)
    return 2 * int(rng.binomial(steps, 0.5)) - int(steps)


def _check_horizon(path: SkeletonPath, horizon: int) -> int:
    if not 0 <= horizon <= path.steps:
        raise ValueError(f"horizon {horizon} outside [0, {path.steps}]")
    return int(horizon)


def crossings_bruteforce(path: SkeletonPath, horizon: int) -> CrossingTable:
    """Count every up/downcrossing among the first ``horizon`` steps."""
    horizon = _check_horizon(path, horizon)
    if horizon == 0:
        return CrossingTable(j_lo=0, up=np.zeros(0, np.int64), down=np.zeros(0, np.int64), horizon=0)
    a = path.positions[:horizon]
    b = path.positions[1 : horizon + 1]
    slot = np.minimum(a, b)  # step over edge [j, j+1] has min(a,b) = j
    j_lo = int(slot.min())
    width = int(slot.max()) - j_lo + 1
    # One count per (edge, direction): slot 2*(j - j_lo) is down, +1 is up.
    slot -= j_lo
    slot *= 2
    slot += b > a
    counts = np.bincount(slot, minlength=2 * width)
    return CrossingTable(j_lo=j_lo, up=counts[1::2], down=counts[::2], horizon=horizon)


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
    return float(path.positions[horizon]) * path.spacing
