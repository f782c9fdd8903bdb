"""Random-walk skeleton of the Brownian time change.

At level n the Brownian motion Y is watched at the successive hitting times of
the spatial grid ``2**(-n/2) * Z``; the recorded positions form a simple
symmetric random walk.  Everything downstream (crossing counts, the signed
closed form, the terminal value of Y) is a deterministic function of that
walk, so hitting-time durations are never simulated.  Consumers that read
only the terminal position draw it directly with ``sample_terminal``.

A walk's steps are drawn packed (``walk_bits``, a ``WalkBits``): step i is
up when bit i mod 8 of byte i // 8 is set, the little-endian bytes of its
stream's raw 64-bit words.  The crossing count and the terminal position
read those bits as they are, four and eight steps at a time;
``walk_positions`` unpacks them into positions for the consumer that walks
the path.  Every reader reads the whole walk it is given: a shorter horizon
is a walk drawn to fewer steps, whose bits are a prefix of the longer
one's (``WalkBits.prefix``), so one draw serves every horizon.  The
crossing count gives each edge's net crossings U_j - D_j, the one count
the skeleton reduction needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fgn import check_index
from .rng import STREAM_WALK, keyed

def _check_count(value, name: str) -> int:
    """``value`` as an int: a step count must be a nonnegative integer, or a
    ValueError names it."""
    if not value >= 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
    return check_index(value, name)


def _nibble_tables() -> np.ndarray:
    """``tables[r, e + 4, v]``: the net crossings, up less down, of the edge
    [e, e+1] by the first r steps of nibble v (step k up when bit k of v is
    set) taken from position 0, for e in -4..3."""
    k = np.arange(4)[:, None]
    v = np.arange(16)[None, :]
    up = (v >> k) & 1
    jump = 2 * up - 1
    edge = np.cumsum(jump, axis=0) - jump - 1 + up  # from p up over p, down over p - 1
    steps = np.zeros((4, 8, 16), np.int64)
    steps[k, edge + 4, v] = jump
    return np.concatenate([np.zeros((1, 8, 16), np.int64), np.cumsum(steps, axis=0)])


def _byte_table() -> np.ndarray:
    """Three rows over the byte values b: 16 times the displacement of b's
    eight steps, and the count keys 16·start + nibble of b's low and high
    nibble, each less 16 times the position the byte starts from."""
    b = np.arange(256)
    disp = 2 * np.bitwise_count(b).astype(np.int64) - 8
    low = disp[b & 15] + 4  # a byte below 16 moves as its low nibble, less 4
    return np.stack([16 * disp, b & 15, 16 * low + (b >> 4)])


_NIBBLE = _nibble_tables()
_BYTE = _byte_table()
# Positions a nibble starts from lie within 4 of its byte's start and the
# edges it crosses within 4 of that; 3 more rows leave room for the shifted
# sum of the eight edge offsets.
_MARGIN = 11


@dataclass(frozen=True)
class WalkBits:
    """The first ``steps`` steps of a simple walk, packed: step i is up when
    bit i mod 8 of ``bits[i // 8]`` is set.  Bits past ``steps`` in the last
    byte are not steps of this walk."""

    steps: int
    bits: np.ndarray = field(repr=False)

    def __post_init__(self):
        if len(self.bits) != (self.steps + 7) // 8:
            raise ValueError(f"{len(self.bits)} bytes do not pack {self.steps} steps")

    def prefix(self, steps: int) -> WalkBits:
        """The walk of the first ``steps`` of these steps, the walk that
        ``walk_bits`` draws to ``steps``: a copy of the bytes that pack them."""
        if not 0 <= steps <= self.steps:
            raise ValueError(f"a prefix of {self.steps} steps cannot have {steps}")
        return WalkBits(steps, self.bits[: (steps + 7) // 8].copy())


def walk_bits(seed: int, steps: int) -> WalkBits:
    """The first ``steps`` steps of the walk on ``seed``, packed.  The bytes
    are the little-endian bytes of the raw 64-bit words of the walk's
    stream, so step i is bit i mod 64 of word i // 64, and a shorter walk's
    bytes are a prefix of a longer one's."""
    steps = _check_count(steps, "steps")
    words = keyed(seed, STREAM_WALK).bit_generator.random_raw((steps + 63) // 64)
    return WalkBits(steps, words.astype("<u8", copy=False).view(np.uint8)[: (steps + 7) // 8])


def walk_positions(walk: WalkBits) -> np.ndarray:
    """The positions s_0 = 0, s_1, ..., s_steps of the packed walk."""
    up = np.unpackbits(walk.bits, count=walk.steps, bitorder="little")
    positions = np.empty(walk.steps + 1, dtype=np.int64)
    positions[0] = 0
    np.cumsum(2 * up.astype(np.int64) - 1, out=positions[1:])
    return positions


def sample_terminal(steps: int, seed: int) -> int:
    """Terminal position s_steps of a ``steps``-step simple symmetric walk.

    One binomial draw, 2 * Binomial(steps, 1/2) - steps, from the walk's
    stream: the same law as the last of ``walk_positions(walk_bits(seed,
    steps))``, without drawing the steps.
    """
    steps = _check_count(steps, "steps")
    return 2 * int(keyed(seed, STREAM_WALK).binomial(steps, 0.5)) - steps


def terminal_position(walk: WalkBits) -> int:
    """The last position of the packed walk: twice its up-steps, less its
    step count."""
    whole, rest = divmod(walk.steps, 8)
    ups = int(np.bitwise_count(walk.bits[:whole]).sum())
    if rest:
        ups += (int(walk.bits[whole]) & ((1 << rest) - 1)).bit_count()
    return 2 * ups - walk.steps


def crossings_bruteforce(walk: WalkBits) -> dict[int, int]:
    """Count, step by step, the net crossings U_j - D_j of each edge
    [j, j+1] by the packed walk: a map j -> U_j - D_j, zeros omitted."""
    # Four steps at a time: counts[w, v] is how many nibbles v start from
    # position lo + w, and _NIBBLE turns them into net crossings at the
    # eight edge offsets of that start.  The positions come from one cumsum
    # over the whole bytes' starts, each byte's two nibble keys from _BYTE.
    whole, rest = divmod(walk.steps, 8)
    table = _BYTE.take(walk.bits[:whole].astype(np.intp), axis=1)
    start = np.empty(whole + 1, np.int64)
    start[0] = 0
    np.cumsum(table[0], out=start[1:])
    lo = (int(start.min()) >> 4) - _MARGIN
    rows = (int(start.max()) >> 4) - lo + _MARGIN + 1
    end = (int(start[-1]) >> 4) - lo
    start -= lo << 4
    keys = table[1:]
    keys += start[:-1]
    counts = np.bincount(keys.ravel(), minlength=16 * rows).reshape(rows, 16)
    # edges[e + 4, w]: net crossings of edge lo + w + e by the nibbles that
    # start from lo + w.  An integer product on purpose: a float one goes
    # to BLAS, whose worker threads, woken by the larger products, slowed
    # the rest of the identity suite by ~30 % on two cores.
    edges = _NIBBLE[4] @ counts.T
    if rest:  # the steps of the last, partial byte
        byte = int(walk.bits[whole])
        edges[:, end] += _NIBBLE[min(rest, 4), :, byte & 15]
        if rest > 4:
            low = 2 * (byte & 15).bit_count() - 4
            edges[:, end + low] += _NIBBLE[rest - 4, :, byte >> 4]
    # net[k] = sum over i of edges[i, k + 7 - i]: the net crossings of edge
    # lo + 3 + k.  Row i is shifted left by i by reading the 8 x rows table,
    # from its 8th entry on, in rows of rows - 1; the columns past rows - 8
    # wrap into the next row and are dropped.
    net = edges.ravel()[7 : 7 + 8 * (rows - 1)].reshape(8, rows - 1).sum(axis=0)[: rows - 7]
    crossed = np.flatnonzero(net)
    return dict(zip((crossed + lo + 3).tolist(), net[crossed].tolist()))


def signed_crossings_closed_form(j_star: int) -> dict[int, int]:
    """U_j - D_j without counting, for a walk that ends at j*: +1 on
    [0, j*), -1 on [j*, 0)."""
    j_star = check_index(j_star, "j*")
    if j_star > 0:
        return {j: 1 for j in range(0, j_star)}
    if j_star < 0:
        return {j: -1 for j in range(j_star, 0)}
    return {}
