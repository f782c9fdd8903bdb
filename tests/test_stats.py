import numpy as np
import pytest

from fbmbt.rng import derive_seed, splitmix64
from fbmbt.stats import fit_rate, ks_two_sample, mc_run


def test_ks_identical_samples():
    a = [1.0, 2.0, 3.0]
    assert ks_two_sample(a, a).statistic == 0.0


def test_ks_disjoint_samples():
    r = ks_two_sample([0.0, 0.0], [1.0, 1.0])
    assert r.statistic == 1.0
    assert r.small_sample


def test_ks_hand_computed():
    r = ks_two_sample([1, 2, 3], [1.5, 2.5, 3.5])
    assert r.statistic == pytest.approx(1.0 / 3.0)


def test_ks_symmetry_and_monotone_invariance():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=200), rng.normal(size=300) + 0.3
    r1 = ks_two_sample(a, b)
    r2 = ks_two_sample(b, a)
    assert r1.statistic == r2.statistic
    r3 = ks_two_sample(np.exp(a), np.exp(b))
    assert r3.statistic == pytest.approx(r1.statistic)


def test_ks_same_law_large_p():
    rng = np.random.default_rng(1)
    r = ks_two_sample(rng.normal(size=2000), rng.normal(size=2000))
    assert r.p_value > 0.01
    assert not r.small_sample


def test_ks_empty_rejected():
    with pytest.raises(ValueError):
        ks_two_sample([], [1.0])


def test_fit_rate_exact_log_linear():
    ns = np.arange(4, 12)
    fit = fit_rate(ns, 2.0 ** (-0.4 * ns))
    assert fit.slope == pytest.approx(-0.4, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0)


def test_fit_rate_constant():
    fit = fit_rate([1, 2, 3, 4], [5.0, 5.0, 5.0, 5.0])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_noisy():
    rng = np.random.default_rng(3)
    ns = np.arange(1, 21)
    values = 3.0 * 2.0 ** (0.2 * ns) * (1 + 0.01 * rng.normal(size=20))
    fit = fit_rate(ns, values)
    assert fit.slope == pytest.approx(0.2, abs=0.02)


def test_fit_rate_validation():
    with pytest.raises(ValueError):
        fit_rate([1, 2], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_rate([1, 2, 3], [1.0, -2.0, 3.0])


def _estimator(seed):
    return float(splitmix64(seed) % 1000)


def test_mc_run_deterministic():
    v1, s1 = mc_run(_estimator, 50, 77)
    v2, s2 = mc_run(_estimator, 50, 77)
    assert np.array_equal(v1, v2)
    assert s1 == s2


def test_mc_run_single_matches_direct():
    v, s = mc_run(_estimator, 1, 123)
    assert v[0] == _estimator(derive_seed(123, 0))


def test_mc_run_parallel_matches_serial():
    serial, _ = mc_run(_estimator, 40, 9, workers=1)
    parallel, _ = mc_run(_estimator, 40, 9, workers=2)
    assert np.array_equal(serial, parallel)


def test_mc_run_validation():
    with pytest.raises(ValueError):
        mc_run(_estimator, 0, 1)
