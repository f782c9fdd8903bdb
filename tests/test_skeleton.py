import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmbt.rng import STREAM_WALK, keyed
from fbmbt.fgn import check_level, grid_spacing
from fbmbt.skeleton import (
    WalkBits,
    crossings_bruteforce,
    sample_terminal,
    signed_crossings_closed_form,
    terminal_position,
    walk_bits,
    walk_positions,
)
from fbmbt.stats import ks_two_sample


# ---------------------------------------------------------------------------
# The walk of one seed as positions: the oracle that the package's packed
# walks and ``walk_positions`` are checked against, here and in
# ``tests/test_experiments.py`` and ``tests/test_variations.py``.


@dataclass(frozen=True)
class SkeletonPath:
    """Simple random walk: integer positions s_0..s_m with s_0 = 0."""

    level: int
    steps: int
    positions: np.ndarray = field(repr=False)


def sample_skeleton(level: int, steps: int, seed: int) -> SkeletonPath:
    """Draw a simple symmetric random walk of ``steps`` unit steps: the
    positions of the steps ``walk_bits(seed, steps)`` packs."""
    level = check_level(level)
    walk = walk_bits(seed, steps)
    up = np.unpackbits(walk.bits, count=walk.steps, bitorder="little")
    positions = np.empty(walk.steps + 1, dtype=np.int64)
    positions[0] = 0
    np.cumsum(2 * up.astype(np.int64) - 1, out=positions[1:])
    return SkeletonPath(level=level, steps=walk.steps, positions=positions)


def terminal_y(path: SkeletonPath) -> float:
    """Value of Y at the path's last stopping time: s_m * 2**(-n/2)."""
    return float(path.positions[-1]) * grid_spacing(path.level)


def _manual_path(level, positions):
    positions = np.asarray(positions, dtype=np.int64)
    return SkeletonPath(level=level, steps=len(positions) - 1, positions=positions)


def _packed(positions):
    """The steps of a simple walk, packed as ``walk_bits`` packs them."""
    steps = np.diff(positions)
    return WalkBits(len(steps), np.packbits(steps > 0, bitorder="little"))


def test_sample_skeleton_is_simple_walk():
    walk = sample_skeleton(8, 1000, 42)
    steps = np.diff(walk.positions)
    assert set(np.unique(steps)) <= {-1, 1}
    assert walk.positions[0] == 0
    assert len(walk.positions) == 1001


def test_sample_skeleton_reproducible():
    a = sample_skeleton(8, 500, 7)
    b = sample_skeleton(8, 500, 7)
    assert np.array_equal(a.positions, b.positions)


# Steps of sample_skeleton(8, 64, 20260823), recorded from the sampler that
# reads step i from bit i mod 64 of raw word i // 64, least significant bit
# first: these are the 64 bits of the first raw word of the walk's stream.
_GOLDEN_STEPS = "+-+++++++-----++-+-+-+++-+--++-+++++++-+-++---+++--+++-+-+---+--"


def test_sample_skeleton_golden_stream():
    jumps = [1 if c == "+" else -1 for c in _GOLDEN_STEPS]
    expected = np.concatenate([[0], np.cumsum(jumps)])
    walk = sample_skeleton(8, 64, 20260823)
    assert walk.positions.dtype == np.int64
    assert np.array_equal(walk.positions, expected)


@pytest.mark.parametrize("seed", [0, 20260823, (1 << 64) - 1])
def test_walk_steps_are_the_bits_of_the_raw_words(seed):
    # Step i is bit i mod 64 of raw word i // 64, least significant first.
    words = keyed(seed, STREAM_WALK).bit_generator.random_raw(2)
    bits = [(int(w) >> b) & 1 for w in words for b in range(64)]
    ups = (np.diff(sample_skeleton(5, 128, seed).positions) + 1) // 2
    assert ups.tolist() == bits
    packed = walk_bits(seed, 128)
    assert packed.steps == 128
    assert packed.bits.dtype == np.uint8
    assert np.unpackbits(packed.bits, bitorder="little").tolist() == bits


@given(
    k=st.integers(min_value=0, max_value=3000),
    extra=st.integers(min_value=0, max_value=3000),
    seed=st.integers(min_value=0, max_value=(1 << 64) - 1),
)
def test_walk_bits_of_a_shorter_walk_are_a_prefix(k, extra, seed):
    short = walk_bits(seed, k)
    assert short.steps == k
    assert len(short.bits) == (k + 7) // 8
    assert np.array_equal(short.bits, walk_bits(seed, k + extra).bits[: len(short.bits)])


@given(
    k=st.integers(min_value=0, max_value=3000),
    extra=st.integers(min_value=0, max_value=3000),
    seed=st.integers(min_value=0, max_value=(1 << 64) - 1),
)
def test_sample_skeleton_shorter_walk_is_prefix(k, extra, seed):
    short = sample_skeleton(7, k, seed).positions
    long = sample_skeleton(7, k + extra, seed).positions
    assert np.array_equal(short, long[: k + 1])


@given(
    k=st.integers(min_value=0, max_value=3000),
    extra=st.integers(min_value=0, max_value=3000),
    seed=st.integers(min_value=0, max_value=(1 << 64) - 1),
)
def test_prefix_is_the_shorter_walk_and_its_positions_the_oracles(k, extra, seed):
    # One draw serves every horizon: its prefix is the walk drawn to fewer
    # steps, with its own copy of the bytes, and reads as the oracle's
    # positions.
    long = walk_bits(seed, k + extra)
    short = long.prefix(k)
    assert short.steps == k
    assert np.array_equal(short.bits, walk_bits(seed, k).bits)
    assert not np.shares_memory(short.bits, long.bits)
    assert np.array_equal(walk_positions(short), sample_skeleton(7, k, seed).positions)
    assert walk_positions(short).dtype == np.int64


@pytest.mark.parametrize("steps", [-1, 11])
def test_prefix_must_lie_within_the_walk(steps):
    with pytest.raises(ValueError, match=f"a prefix of 10 steps cannot have {steps}"):
        walk_bits(3, 10).prefix(steps)


def _loop_crossings(positions):
    """Reference counter, one Python step at a time: the net crossings
    U_j - D_j of each edge [j, j+1], zeros omitted."""
    net = Counter()
    for a, b in zip(positions[:-1].tolist(), positions[1:].tolist()):
        net[min(a, b)] += b - a
    return {j: d for j, d in net.items() if d}


def _below_zero_walk(seed, steps):
    """0, then -1 - |s_k|: the positions of a simple walk that stays below 0."""
    s = sample_skeleton(6, steps - 1, seed).positions
    return np.concatenate([[0], -1 - np.abs(s)])


def _walks(steps, seed, horizons):
    """(packed steps, positions) of the walk on ``seed`` drawn to each
    horizon, and of the first horizon steps of one kept below 0."""
    below = _below_zero_walk(seed + 1, steps)
    positions = sample_skeleton(6, steps, seed).positions
    for horizon in horizons:
        yield walk_bits(seed, horizon), positions[: horizon + 1]
        yield _packed(below[: horizon + 1]), below[: horizon + 1]


@settings(deadline=None, max_examples=60)
@given(steps=st.integers(min_value=0, max_value=3000),
       seed=st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_crossing_counts_match_the_closed_form(steps, seed):
    walk = sample_skeleton(6, steps, seed)
    assert crossings_bruteforce(walk_bits(seed, steps)) == signed_crossings_closed_form(
        walk.positions[-1])


@settings(deadline=None, max_examples=80)
@given(steps=st.integers(min_value=0, max_value=3000),
       seed=st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_crossing_counts_match_the_per_step_oracle(steps, seed):
    assert crossings_bruteforce(walk_bits(seed, steps)) == _loop_crossings(
        sample_skeleton(6, steps, seed).positions)


def _assert_matches_loop_counter(bits, positions):
    net = crossings_bruteforce(bits)
    assert net == _loop_crossings(positions)
    assert all(type(j) is int and type(d) is int for j, d in net.items())


def test_crossings_bruteforce_matches_loop_counter():
    walks = [(walk_bits(seed, h), sample_skeleton(6, h, seed).positions)
             for seed in range(20) for h in (0, 1, 133, 399, 400)]
    walks += [(_packed(w[: h + 1]), w[: h + 1])
              for w in (_below_zero_walk(seed, 300) for seed in range(5))
              for h in (0, 1, 100, 299, 300)]
    for bits, positions in walks:
        _assert_matches_loop_counter(bits, positions)
    assert all(_below_zero_walk(0, 300)[1:] < 0)


def test_crossings_at_nibble_byte_and_word_edges():
    # Every residue mod 4 (the steps a table row covers), and one step
    # either side of the byte (8) and raw word (64) edges.
    horizons = set(range(0, 24)) | {
        k * e + d for e in (8, 64) for k in (1, 2, 3) for d in (-1, 0, 1)}
    for seed in range(6):
        for bits, positions in _walks(200, seed, sorted(horizons)):
            _assert_matches_loop_counter(bits, positions)


def test_crossings_read_only_the_walks_steps():
    # Ten steps in two bytes: the six padding bits of the last byte are
    # set, and they are not steps.
    ten = [0, 1, 2, 1, 0, -1, -2, -1, -2, -3, -4]
    bits = _packed(ten).bits
    assert bits[1] == 0
    padded = WalkBits(10, np.array([bits[0], 0b11111100], np.uint8))
    assert crossings_bruteforce(padded) == {-1: -1, -2: -1, -3: -1, -4: -1}
    assert terminal_position(padded) == -4


# Long walks, 2^15 steps and beside, and horizons at multiples of 2^15
# and beside them.
_EDGE_STEPS = [32767, 32768, 32769, 65573]


@pytest.mark.parametrize("steps", _EDGE_STEPS)
def test_walks_across_block_edges_are_prefixes(steps):
    long = sample_skeleton(7, 98304, 11).positions
    walk = sample_skeleton(7, steps, 11)
    assert np.array_equal(walk.positions, long[: steps + 1])
    assert set(np.unique(np.diff(walk.positions)).tolist()) == {-1, 1}


@pytest.mark.parametrize("steps", _EDGE_STEPS)
def test_crossings_across_block_edges_match_loop_counter(steps):
    edges = {0, 1, steps - 1, steps} | {
        k * 32768 + d for k in (1, 2) for d in (-1, 0, 1)}
    horizons = sorted(h for h in edges if 0 <= h <= steps)
    for bits, positions in _walks(steps, 3, horizons):
        _assert_matches_loop_counter(bits, positions)


def test_signed_omits_zero_edges():
    # Edge -1 is crossed down and back up; edges 0 and 1 have net +1.
    net = crossings_bruteforce(_packed([0, 1, 0, -1, 0, 1, 2]))
    assert net == {0: 1, 1: 1}
    assert all(type(j) is int and type(d) is int for j, d in net.items())


def test_crossings_on_known_path():
    # 0 1 2 1 2 1 0 -1 0: every edge is crossed as often down as up.
    path = [0, 1, 2, 1, 2, 1, 0, -1, 0]
    assert crossings_bruteforce(_packed(path)) == {}
    assert signed_crossings_closed_form(path[8]) == {}
    prefixes = [crossings_bruteforce(_packed(path[: k + 1])) for k in range(9)]
    assert prefixes == [{}, {0: 1}, {0: 1, 1: 1}, {0: 1}, {0: 1, 1: 1}, {0: 1}, {}, {-1: -1}, {}]
    assert prefixes == [signed_crossings_closed_form(j) for j in path]


def test_signed_closed_form_positive_terminal():
    path = [0, 1, 0, 1, 2, 3]
    assert signed_crossings_closed_form(path[5]) == {0: 1, 1: 1, 2: 1}
    assert crossings_bruteforce(_packed(path)) == {0: 1, 1: 1, 2: 1}


def test_signed_closed_form_negative_terminal():
    path = [0, -1, 0, -1, -2]
    assert signed_crossings_closed_form(path[4]) == {-1: -1, -2: -1}
    assert crossings_bruteforce(_packed(path)) == {-1: -1, -2: -1}


@pytest.mark.parametrize("bad", [2.5, -0.5, float("nan"), float("inf")])
def test_closed_form_needs_an_integer_terminal_position(bad):
    # int() would truncate j* = 2.5 to 2 and give {0: 1, 1: 1}.
    with pytest.raises(ValueError, match=f"j\\* must be an integer, got {re.escape(repr(bad))}"):
        signed_crossings_closed_form(bad)
    assert signed_crossings_closed_form(np.int64(-2)) == {-2: -1, -1: -1}
    assert signed_crossings_closed_form(3.0) == {0: 1, 1: 1, 2: 1}


def test_signed_closed_form_random_walks():
    for seed in range(200):
        walk = sample_skeleton(6, 300, seed)
        horizon = (seed * 37) % 301
        assert (
            crossings_bruteforce(walk_bits(seed, horizon))
            == signed_crossings_closed_form(walk.positions[horizon])
        )


@given(steps=st.integers(min_value=0, max_value=3000),
       seed=st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_terminal_position_is_the_walks_position(steps, seed):
    j_star = terminal_position(walk_bits(seed, steps))
    assert type(j_star) is int
    assert j_star == sample_skeleton(6, steps, seed).positions[-1]


def test_walk_bits_must_pack_their_step_count():
    bits = np.zeros(2, np.uint8)
    assert WalkBits(9, bits).steps == 9
    for steps in (8, 17):
        with pytest.raises(ValueError, match="2 bytes do not pack"):
            WalkBits(steps, bits)


def test_terminal_y_scaling():
    assert terminal_y(_manual_path(4, [0, 1, 2, 3])) == pytest.approx(3 * 2.0**-2)
    assert terminal_y(_manual_path(4, [0])) == 0.0


@pytest.mark.parametrize("bad", [2.5, -1, -0.5, float("nan"), float("inf")])
def test_step_counts_and_horizons_must_be_nonnegative_integers(bad):
    # numpy would truncate 2.5 steps to 2 in the binomial and in a slice.
    # A horizon is the step count of the walk drawn to it.
    got = f"got {re.escape(repr(bad))}"
    with pytest.raises(ValueError, match=f"steps .*{got}"):
        walk_bits(3, bad)
    with pytest.raises(ValueError, match=f"steps .*{got}"):
        sample_skeleton(4, bad, 3)
    with pytest.raises(ValueError, match=f"steps .*{got}"):
        sample_terminal(bad, 3)


def test_integral_float_step_counts_read_as_ints():
    assert sample_terminal(6.0, 3) == sample_terminal(6, 3)
    assert sample_skeleton(4, 6.0, 3).steps == 6
    packed = walk_bits(3, 6.0)
    assert packed.steps == 6 and type(packed.steps) is int
    assert np.array_equal(packed.bits, walk_bits(3, 6).bits)


def test_terminal_variance_matches_step_count():
    n, steps = 8, 256  # horizon time 1: variance 256 * 2^-8 = 1
    vals = [terminal_y(sample_skeleton(n, steps, s)) for s in range(3000)]
    assert np.var(vals, ddof=1) == pytest.approx(1.0, abs=0.1)


def test_sample_terminal_reproducible():
    assert sample_terminal(500, 7) == sample_terminal(500, 7)
    draws = {sample_terminal(500, seed) for seed in range(20)}
    assert len(draws) > 1


def test_sample_terminal_zero_and_negative_steps():
    assert sample_terminal(0, 3) == 0
    with pytest.raises(ValueError):
        sample_terminal(-1, 3)


@given(
    steps=st.integers(min_value=0, max_value=1 << 24),
    seed=st.integers(min_value=0, max_value=(1 << 64) - 1),
)
def test_sample_terminal_parity_and_range(steps, seed):
    j_star = sample_terminal(steps, seed)
    assert isinstance(j_star, int)
    assert (j_star - steps) % 2 == 0
    assert abs(j_star) <= steps


def test_sample_terminal_law_matches_walk():
    # Two-sample KS at alpha = 1e-6 between the binomial draw and the last
    # position of whole walks, on disjoint seeds so the samples are independent.
    steps, draws = 256, 3000
    binomial = [sample_terminal(steps, seed) for seed in range(draws)]
    walks = [
        int(sample_skeleton(8, steps, seed).positions[-1])
        for seed in range(draws, 2 * draws)
    ]
    ks = ks_two_sample(binomial, walks)
    assert ks.p_value > 1e-6, ks
