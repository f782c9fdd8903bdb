import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fbmbt.skeleton import (
    SkeletonPath,
    crossings_bruteforce,
    sample_skeleton,
    sample_terminal,
    signed_crossings_closed_form,
    terminal_y,
)
from fbmbt.stats import ks_two_sample


def _manual_path(level, positions, seed=0):
    positions = np.asarray(positions, dtype=np.int64)
    return SkeletonPath(
        level=level, steps=len(positions) - 1, positions=positions, seed=seed
    )


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


def test_crossings_on_known_path():
    # 0 1 2 1 2 1 0 -1 0
    path = _manual_path(4, [0, 1, 2, 1, 2, 1, 0, -1, 0])
    table = crossings_bruteforce(path, 8)
    assert table.upcrossings(0) == 1
    assert table.downcrossings(0) == 1
    assert table.upcrossings(1) == 2
    assert table.downcrossings(1) == 2
    assert table.upcrossings(-1) == 1
    assert table.downcrossings(-1) == 1
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
