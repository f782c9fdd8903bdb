from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmbt.rng import STREAM_WALK, keyed
from fbmbt.skeleton import (
    _BLOCK,
    SkeletonPath,
    crossings_bruteforce,
    sample_skeleton,
    sample_terminal,
    signed_crossings_closed_form,
    terminal_y,
)
from fbmbt.stats import ks_two_sample


def _manual_path(level, positions):
    positions = np.asarray(positions, dtype=np.int64)
    return SkeletonPath(level=level, steps=len(positions) - 1, positions=positions)


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


@given(
    k=st.integers(min_value=0, max_value=3000),
    extra=st.integers(min_value=0, max_value=3000),
    seed=st.integers(min_value=0, max_value=(1 << 64) - 1),
)
def test_sample_skeleton_shorter_walk_is_prefix(k, extra, seed):
    short = sample_skeleton(7, k, seed).positions
    long = sample_skeleton(7, k + extra, seed).positions
    assert np.array_equal(short, long[: k + 1])


def _loop_crossings(positions, horizon):
    """Reference counter: one Python step at a time."""
    up, down = Counter(), Counter()
    for a, b in zip(positions[:horizon].tolist(), positions[1 : horizon + 1].tolist()):
        if b > a:
            up[a] += 1
        else:
            down[b] += 1
    return up, down


def _edge_count(counts, j_lo, j):
    """The count of edge [j, j+1] in a per-edge array starting at edge
    j_lo; 0 for an edge outside it."""
    return int(counts[j - j_lo]) if 0 <= j - j_lo < len(counts) else 0


def _below_zero_walk(seed, steps):
    """0, then -1 - |s_k|: a simple walk that stays below 0."""
    s = sample_skeleton(6, steps - 1, seed).positions
    return _manual_path(6, np.concatenate([[0], -1 - np.abs(s)]))


@settings(deadline=None, max_examples=60)
@given(steps=st.integers(min_value=0, max_value=3000), data=st.data(),
       seed=st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_crossing_counts_match_the_closed_form(steps, data, seed):
    horizon = data.draw(st.integers(min_value=0, max_value=steps))
    walk = sample_skeleton(6, steps, seed)
    table = crossings_bruteforce(walk, horizon)
    assert table.signed() == signed_crossings_closed_form(walk, horizon)
    assert int(table.up.sum() + table.down.sum()) == horizon


def _assert_matches_loop_counter(walk, horizon):
    table = crossings_bruteforce(walk, horizon)
    up, down = _loop_crossings(walk.positions, horizon)
    assert int(table.up.sum()) == sum(up.values())
    assert int(table.down.sum()) == sum(down.values())
    lo = int(walk.positions.min()) - 1
    hi = int(walk.positions.max()) + 1
    for j in range(lo, hi + 1):
        assert _edge_count(table.up, table.j_lo, j) == up[j]
        assert _edge_count(table.down, table.j_lo, j) == down[j]
    net = {j: up[j] - down[j] for j in up.keys() | down.keys()}
    assert table.signed() == {j: d for j, d in net.items() if d != 0}


def test_crossings_bruteforce_matches_loop_counter():
    walks = [sample_skeleton(6, 400, seed) for seed in range(20)]
    walks += [_below_zero_walk(seed, 300) for seed in range(5)]
    for walk in walks:
        for horizon in {0, 1, walk.steps // 3, walk.steps - 1, walk.steps}:
            _assert_matches_loop_counter(walk, horizon)
    assert all(_below_zero_walk(0, 300).positions[1:] < 0)


# Walk lengths on and beside the edges of the blocks that the sampler and
# the crossing count run in, and horizons on and beside those edges.
_EDGE_STEPS = [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 37]


@pytest.mark.parametrize("steps", _EDGE_STEPS)
def test_walks_across_block_edges_are_prefixes(steps):
    long = sample_skeleton(7, 3 * _BLOCK, 11).positions
    walk = sample_skeleton(7, steps, 11)
    assert np.array_equal(walk.positions, long[: steps + 1])
    assert set(np.unique(np.diff(walk.positions)).tolist()) == {-1, 1}


@pytest.mark.parametrize("steps", _EDGE_STEPS)
def test_crossings_across_block_edges_match_loop_counter(steps):
    edges = {0, 1, steps - 1, steps} | {
        k * _BLOCK + d for k in (1, 2) for d in (-1, 0, 1)}
    horizons = sorted(h for h in edges if 0 <= h <= steps)
    for walk in (sample_skeleton(6, steps, 3), _below_zero_walk(4, steps)):
        for horizon in horizons:
            _assert_matches_loop_counter(walk, horizon)


def test_signed_omits_zero_edges():
    # Edge -1 is crossed down and back up; edges 0 and 1 have net +1.
    table = crossings_bruteforce(_manual_path(4, [0, 1, 0, -1, 0, 1, 2]), 6)
    assert table.up[-1 - table.j_lo] == table.down[-1 - table.j_lo] == 1
    signed = table.signed()
    assert signed == {0: 1, 1: 1}
    assert all(type(j) is int and type(d) is int for j, d in signed.items())


def test_crossings_on_known_path():
    # 0 1 2 1 2 1 0 -1 0
    path = _manual_path(4, [0, 1, 2, 1, 2, 1, 0, -1, 0])
    table = crossings_bruteforce(path, 8)
    assert table.up[0 - table.j_lo] == 1
    assert table.down[0 - table.j_lo] == 1
    assert table.up[1 - table.j_lo] == 2
    assert table.down[1 - table.j_lo] == 2
    assert table.up[-1 - table.j_lo] == 1
    assert table.down[-1 - table.j_lo] == 1
    assert table.signed() == {}
    assert signed_crossings_closed_form(path, 8) == {}


def test_signed_closed_form_positive_terminal():
    path = _manual_path(4, [0, 1, 0, 1, 2, 3])
    assert signed_crossings_closed_form(path, 5) == {0: 1, 1: 1, 2: 1}
    assert crossings_bruteforce(path, 5).signed() == {0: 1, 1: 1, 2: 1}


def test_signed_closed_form_negative_terminal():
    path = _manual_path(4, [0, -1, 0, -1, -2])
    assert signed_crossings_closed_form(path, 4) == {-1: -1, -2: -1}
    assert crossings_bruteforce(path, 4).signed() == {-1: -1, -2: -1}


def test_signed_closed_form_random_walks():
    for seed in range(200):
        walk = sample_skeleton(6, 300, seed)
        horizon = (seed * 37) % 301
        assert (
            crossings_bruteforce(walk, horizon).signed()
            == signed_crossings_closed_form(walk, horizon)
        )


def test_terminal_y_scaling():
    path = _manual_path(4, [0, 1, 2, 3])
    assert terminal_y(path, 3) == pytest.approx(3 * 2.0**-2)
    assert terminal_y(path, 0) == 0.0


def test_horizon_validation():
    walk = sample_skeleton(6, 10, 0)
    with pytest.raises(ValueError):
        crossings_bruteforce(walk, 11)
    with pytest.raises(ValueError):
        terminal_y(walk, -1)


def test_terminal_variance_matches_step_count():
    n, steps = 8, 256  # horizon time 1: variance 256 * 2^-8 = 1
    vals = [terminal_y(sample_skeleton(n, steps, s), steps) for s in range(3000)]
    assert np.var(vals, ddof=1) == pytest.approx(1.0, abs=0.1)


def test_sample_terminal_reproducible():
    assert sample_terminal(8, 500, 7) == sample_terminal(8, 500, 7)
    draws = {sample_terminal(8, 500, seed) for seed in range(20)}
    assert len(draws) > 1


def test_sample_terminal_zero_and_negative_steps():
    assert sample_terminal(8, 0, 3) == 0
    with pytest.raises(ValueError):
        sample_terminal(8, -1, 3)
    with pytest.raises(ValueError):
        sample_terminal(-1, 10, 3)


@given(
    steps=st.integers(min_value=0, max_value=1 << 24),
    seed=st.integers(min_value=0, max_value=(1 << 64) - 1),
)
def test_sample_terminal_parity_and_range(steps, seed):
    j_star = sample_terminal(6, steps, seed)
    assert isinstance(j_star, int)
    assert (j_star - steps) % 2 == 0
    assert abs(j_star) <= steps


def test_sample_terminal_law_matches_walk():
    # Two-sample KS at alpha = 1e-6 between the binomial draw and the last
    # position of whole walks, on disjoint seeds so the samples are independent.
    steps, draws = 256, 3000
    binomial = [sample_terminal(8, steps, seed) for seed in range(draws)]
    walks = [
        int(sample_skeleton(8, steps, seed).positions[-1])
        for seed in range(draws, 2 * draws)
    ]
    ks = ks_two_sample(binomial, walks)
    assert ks.p_value > 1e-6, ks
