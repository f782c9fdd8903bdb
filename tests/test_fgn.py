import math
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmbt import fgn
from fbmbt.experiments import THRESHOLDS
from fbmbt.fgn import (
    H_SPECIAL,
    CapacityError,
    _embedding_sqrt_eig,
    _padded_size,
    _path_rows,
    check_hurst,
    check_index,
    check_level,
    grid_spacing,
    rho,
    sample_increments,
    sum_rho_cubed,
)
from fbmbt.rng import generator


# ---------------------------------------------------------------------------
# The path of one seed alone: the oracle that the package's blocks of rows
# (``fgn._path_draws``) are checked against, here and in
# ``tests/test_blocks.py``, ``tests/test_experiments.py`` and
# ``tests/test_variations.py``.  It checks its arguments, so that a
# comparison never runs on a truncated index or seed.


@dataclass(frozen=True)
class FbmGridPath2D:
    """Two independent two-sided fBm components on a level-n dyadic grid.

    ``values1[j - j_min]`` holds X^1 at time ``j * 2**(-n/2)``; both
    components vanish at j = 0.
    """

    H: float
    level: int
    j_min: int
    j_max: int
    values1: np.ndarray = field(repr=False)
    values2: np.ndarray = field(repr=False)

    def segment(self, j_lo: int, j_hi: int) -> tuple[np.ndarray, np.ndarray]:
        """X^1 and X^2 at grid indices j_lo..j_hi inclusive."""
        if j_lo < self.j_min or j_hi > self.j_max:
            raise ValueError(
                f"requested segment [{j_lo}, {j_hi}] outside grid "
                f"[{self.j_min}, {self.j_max}]"
            )
        rows = slice(j_lo - self.j_min, j_hi - self.j_min + 1)
        return self.values1[rows], self.values2[rows]


def sample_fbm_2d(H: float, n: int, j_min: int, j_max: int, seed: int) -> FbmGridPath2D:
    """Exact 2-component fBm sample of one seed on grid indices ``j_min..j_max``.

    Each component is drawn from its own RNG stream (so they are independent),
    as the cumulative sum of one stationary increment sequence over the whole
    two-sided range, anchored so that X_0 = 0 (``_path_rows`` of one seed).
    """
    H = check_hurst(H)
    n = check_level(n)
    j_min, j_max = check_index(j_min, "j_min"), check_index(j_max, "j_max")
    if not j_min <= 0 <= j_max:
        raise ValueError(f"grid must contain index 0, got [{j_min}, {j_max}]")
    v1, v2 = _path_rows(H, n, [(j_min, j_max)], [check_index(seed, "seed")])
    return FbmGridPath2D(float(H), n, j_min, j_max, v1[0], v2[0])


def cov_fbm(t, s, H):
    """fBm covariance (|s|^{2H} + |t|^{2H} - |t-s|^{2H}) / 2, any real t, s."""
    h2 = 2.0 * H
    return 0.5 * (abs(s) ** h2 + abs(t) ** h2 - abs(t - s) ** h2)


class _Unit:
    """A stand-in generator whose one draw is the i-th unit vector."""

    def __init__(self, i):
        self.i = i

    def standard_normal(self, out):
        out[...] = 0.0
        out[self.i] = 1.0


LAW_HURSTS = (0.05, 0.1, H_SPECIAL, 0.3, 0.5, 0.75, 0.95)


def test_rho_basic_values():
    for H in (0.1, 1 / 6, 0.3, 0.49):
        assert float(rho(0, H)) == 1.0
        assert float(rho(1, H)) == pytest.approx(2 ** (2 * H - 1) - 1, abs=1e-15)
        assert float(rho(-5, H)) == float(rho(5, H))


def test_rho_brownian_case_is_exact_zero():
    k = np.arange(-10, 11)
    vals = rho(k, 0.5)
    assert vals[10] == 1.0
    assert np.all(vals[k != 0] == 0.0)


@settings(deadline=None, max_examples=60)
@given(H=st.floats(min_value=0.02, max_value=0.5), m=st.integers(min_value=1, max_value=10**5))
def test_rho_telescopes_to_the_stable_increment_form(H, m):
    # sum_{|r|<=m} rho(r) = (m+1)^{2H} - m^{2H}.  The fsum stays within the
    # pinned tolerance for H <= 1/2; above H ~ 0.66 it no longer does.
    total = 1.0 + 2.0 * math.fsum(rho(np.arange(1, m + 1), H))
    target = float(m) ** (2 * H) * math.expm1(2 * H * math.log1p(1.0 / m))
    assert abs(total - target) <= THRESHOLDS["telescoping_abs"]


def test_rho_large_lag_matches_direct_formula():
    # the expm1 branch must agree with the naive second difference where
    # the naive form is still accurate
    for H in (0.1, 0.3, 0.49):
        for k in (9, 20, 1000):
            naive = 0.5 * ((k + 1) ** (2 * H) + (k - 1) ** (2 * H) - 2 * k ** (2 * H))
            assert float(rho(k, H)) == pytest.approx(naive, rel=1e-9)


def test_rho_negative_for_small_hurst():
    assert float(rho(1, 0.1)) < 0
    assert float(rho(1, 1 / 6)) < 0


def test_rho_invalid_hurst():
    with pytest.raises(ValueError):
        rho(1, 0.0)
    with pytest.raises(ValueError):
        rho(1, 1.0)


def test_cov_fbm_values():
    H = 0.3
    assert cov_fbm(1.0, 1.0, H) == pytest.approx(1.0)
    assert cov_fbm(1.0, 0.0, H) == 0.0
    # two-sided covariance between t and -t
    assert cov_fbm(1.0, -1.0, H) == pytest.approx(1.0 - 0.5 * 2 ** (2 * H))
    assert cov_fbm(0.5, 2.0, H) == cov_fbm(2.0, 0.5, H)


def test_increment_cov_matrix_matches_cov_differences():
    H, n, count = 0.3, 4, 6
    spacing = 2.0 ** (-n / 2)
    lags = np.subtract.outer(np.arange(count), np.arange(count))
    mat = spacing ** (2 * H) * rho(lags, H)
    for a in range(count):
        for b in range(count):
            want = (
                cov_fbm((a + 1) * spacing, (b + 1) * spacing, H)
                - cov_fbm((a + 1) * spacing, b * spacing, H)
                - cov_fbm(a * spacing, (b + 1) * spacing, H)
                + cov_fbm(a * spacing, b * spacing, H)
            )
            assert mat[a, b] == pytest.approx(want, abs=1e-14)


def test_sum_rho_cubed_matches_bruteforce():
    for H in (0.1, 1 / 6, 0.3):
        res = sum_rho_cubed(H, 50)
        brute = sum(float(rho(r, H)) ** 3 for r in range(-50, 51))
        assert res.partial_sum == pytest.approx(brute, rel=1e-12)
        assert res.tail_bound > 0


@pytest.mark.parametrize("m", [2, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, 10**6])
def test_sum_rho_cubed_in_chunks_equals_one_array_sum(m):
    for H in (0.1, 1 / 6, 0.3):
        whole = 1.0 + 2.0 * math.fsum(rho(np.arange(1, m + 1), H) ** 3)
        assert sum_rho_cubed(H, m).partial_sum == whole


def test_sum_rho_cubed_tail_decreases():
    t1 = sum_rho_cubed(1 / 6, 100).tail_bound
    t2 = sum_rho_cubed(1 / 6, 10000).tail_bound
    assert t2 < t1


def test_sum_rho_cubed_domain_errors():
    with pytest.raises(ValueError):
        sum_rho_cubed(0.9, 100)
    with pytest.raises(ValueError):
        sum_rho_cubed(0.3, 1)


def test_sum_rho_cubed_truncation_must_be_an_integer():
    assert sum_rho_cubed(1 / 6, 1e4) == sum_rho_cubed(1 / 6, 10000)
    assert type(sum_rho_cubed(1 / 6, 1e4).m) is int
    with pytest.raises(ValueError, match="truncation must be an integer, got 100.5"):
        sum_rho_cubed(1 / 6, 100.5)


@pytest.mark.parametrize("n", [float("inf"), float("-inf"), float("nan"), 2.5, -1])
def test_check_level_names_a_bad_level(n):
    with pytest.raises(ValueError, match=f"dyadic level must be a nonnegative integer, got {n}"):
        check_level(n)


def test_sample_fbm_marginal_variance():
    # X at time 1 (grid index 2^{n/2}) must have unit variance
    H, n = 1 / 6, 6
    m = 8  # 2^{n/2}
    vals = []
    for seed in range(400):
        path = sample_fbm_2d(H, n, 0, m, seed)
        vals.append(path.values1[m - path.j_min])
    var = np.var(vals, ddof=1)
    assert var == pytest.approx(1.0, abs=0.25)


def test_sample_fbm_two_sided_covariance():
    # empirical cov between X(t) and X(-t) matches the two-sided formula
    H, n, m = 0.3, 6, 8
    paths = [sample_fbm_2d(H, n, -m, m, seed) for seed in range(600)]
    pairs = np.array([[p.values1[m - p.j_min], p.values1[-m - p.j_min]] for p in paths])
    emp = np.mean(pairs[:, 0] * pairs[:, 1])
    assert emp == pytest.approx(cov_fbm(1.0, -1.0, H), abs=0.15)


def test_sample_fbm_components_independent():
    H, n, m = 0.3, 6, 8
    prods = [
        sample_fbm_2d(H, n, 0, m, seed).values1[m]
        * sample_fbm_2d(H, n, 0, m, seed).values2[m]
        for seed in range(600)
    ]
    assert abs(np.mean(prods)) < 0.15


def test_sample_fbm_anchored_and_reproducible():
    path = sample_fbm_2d(0.3, 8, -5, 11, 987)
    assert path.values1[0 - path.j_min] == 0.0
    assert path.values2[0 - path.j_min] == 0.0
    again = sample_fbm_2d(0.3, 8, -5, 11, 987)
    assert np.array_equal(path.values1, again.values1)
    assert np.array_equal(path.values2, again.values2)


def test_sample_fbm_nested_ranges_consistent():
    # padding must not change the values on a shared grid
    small = sample_fbm_2d(0.3, 8, 0, 5, 55)
    big = sample_fbm_2d(0.3, 8, 0, 8, 55)
    np.testing.assert_allclose(small.values1, big.values1[:6], rtol=0, atol=1e-12)


def test_sample_increments_empirical_covariance():
    H, spacing, size = 1 / 6, 0.125, 16
    target = spacing ** (2 * H) * np.array([float(rho(k, H)) for k in range(size)])
    draws = sample_increments(H, spacing, size, [generator(s, 1) for s in range(3000)])
    emp = draws.T @ draws / len(draws)
    assert np.max(np.abs(emp[0] - target)) < 0.05


def test_non_psd_embedding_raises(monkeypatch):
    # rho(1) = 2 makes the embedding's eigenvalues 1 + 4 cos(2 pi j / m), some < 0.
    def bad_rho(k, H):
        k = np.abs(np.asarray(k))
        return np.where(k == 0, 1.0, np.where(k == 1, 2.0, 0.0))

    monkeypatch.setattr("fbmbt.fgn.rho", bad_rho)
    _embedding_sqrt_eig.cache_clear()
    with pytest.raises(np.linalg.LinAlgError, match=r"H=0\.3, size=8:") as err:
        sample_increments(0.3, 0.5, 8, [generator(1, 1)])
    assert "spacing" not in str(err.value)  # the eigenvalues are spacing-free
    assert _embedding_sqrt_eig.cache_info().currsize == 0


def test_grid_must_contain_origin():
    with pytest.raises(ValueError):
        sample_fbm_2d(0.3, 8, 1, 5, 1)


@pytest.mark.parametrize("j_min, j_max, bad", [(-2.5, 3.7, "j_min must be an integer, got -2.5"),
                                               (-2, 3.7, "j_max must be an integer, got 3.7"),
                                               (float("nan"), 3, "j_min must be an integer, got nan")])
def test_grid_indices_must_be_integers(j_min, j_max, bad):
    # numpy would truncate [-2.5, 3.7] to [-2, 3] and draw there.
    with pytest.raises(ValueError, match=bad):
        sample_fbm_2d(0.3, 4, j_min, j_max, 1)
    whole = sample_fbm_2d(0.3, 4, -2.0, 3.0, 1)
    assert (whole.j_min, whole.j_max) == (-2, 3) and type(whole.j_min) is int
    assert np.array_equal(whole.values1, sample_fbm_2d(0.3, 4, -2, 3, 1).values1)


def test_seed_must_be_an_integer():
    # int() would truncate 1.5 and draw seed 1's path.
    with pytest.raises(ValueError, match="seed must be an integer, got 1.5"):
        sample_fbm_2d(0.3, 4, -2, 3, 1.5)
    assert np.array_equal(sample_fbm_2d(0.3, 4, -2, 3, 1.0).values1,
                          sample_fbm_2d(0.3, 4, -2, 3, 1).values1)


def test_capacity_limit():
    with pytest.raises(CapacityError):
        sample_fbm_2d(0.3, 60, 0, 1 << 23, 1)


def test_segment_bounds_checked():
    path = sample_fbm_2d(0.3, 8, -2, 4, 3)
    with pytest.raises(ValueError):
        path.segment(-3, 2)


# A draw is linear in its normals: fed the unit vectors e_0 .. e_{2 size - 1}
# as its rows' normals, it gives the rows of A with increments = A^T v, so
# the law of a draw from N(0, I) normals is N(0, A^T A), checked here with
# no Monte Carlo.
@pytest.mark.parametrize("H,size", [(H, size) for H in LAW_HURSTS
                                    for size in (1, 2, 3, 17, 64, 257)]
                         + [(H, 2048) for H in (0.05, H_SPECIAL, 0.95)])
def test_increment_law_is_the_fgn_covariance(H, size):
    spacing = 0.5
    a = sample_increments(H, spacing, size, [_Unit(i) for i in range(2 * size)])
    lags = np.arange(size)
    want = spacing ** (2 * H) * rho(np.abs(lags[:, None] - lags[None, :]), H)
    assert np.max(np.abs(a.T @ a - want)) <= 1e-14 * spacing ** (2 * H)


# Rows on a range with lo < 0 < hi hold the two-sided path, whose negative and
# positive halves are correlated.  A range at level n has spacing 2^(-n/2);
# at level 0 with scale h^H (the Euler grid's) it has spacing h.
@pytest.mark.parametrize("H", LAW_HURSTS)
@pytest.mark.parametrize("n,lo,hi,h", [
    (4, -3, 5, None), (6, -13, 50, None), (3, -300, 211, None),
    (0, -1, 1, 0.3), (0, -100, 27, 0.01),
])
def test_path_rows_law_is_the_two_sided_fbm_covariance(monkeypatch, H, n, lo, hi, h):
    monkeypatch.setattr(fgn, "sample_increments", lambda H, spacing, size, rngs:
                        sample_increments(H, spacing, size, [_Unit(g.seed) for g in rngs]))
    rows = 2 * _padded_size(hi - lo)
    paths = _path_rows(H, n, [(lo, hi)] * rows, list(range(rows)),
                       None if h is None else [h**H] * rows)
    times = np.arange(lo, hi + 1) * (grid_spacing(n) if h is None else h)
    want = cov_fbm(times[:, None], times[None, :], H)
    for x in paths:
        assert np.max(np.abs(x.T @ x - want)) <= 1e-15 * (hi - lo + 1) * np.max(want)
