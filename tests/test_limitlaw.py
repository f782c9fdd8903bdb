import math

import numpy as np
import pytest
from scipy import stats as sps

from fbmbt.calculus import get_test_function
from fbmbt.fgn import sum_rho_cubed
from fbmbt.limitlaw import (
    default_kappas,
    kappa_constants,
    sample_change_of_variable_rhs,
    sample_correction_fbm,
    sample_correction_fbmbt,
)
from fbmbt.rng import derive_seed


def test_kappa_values():
    kap = default_kappas()
    s = kap.series.value
    assert kap.kappa1 == pytest.approx(math.sqrt(s / 96.0))
    assert kap.kappa2 == kap.kappa1
    assert kap.kappa3 == pytest.approx(math.sqrt(s / 32.0))
    assert kap.kappa4 == kap.kappa3
    assert kap.kappa3 == pytest.approx(math.sqrt(3.0) * kap.kappa1)


def test_kappa_requires_special_hurst():
    series = sum_rho_cubed(0.3, 100)
    with pytest.raises(ValueError):
        kappa_constants(series)


def test_quadratic_integrand_gives_exact_zero():
    f = get_test_function("x^2")
    for seed in range(5):
        assert sample_correction_fbm(f, 1.0, 2.0**-6, seed).value == 0.0
        assert sample_correction_fbmbt(f, 1.0, 2.0**-6, seed).value == 0.0


def test_argument_validation():
    f = get_test_function("x^3")
    with pytest.raises(ValueError):
        sample_correction_fbm(f, -1.0, 0.01, 0)
    with pytest.raises(ValueError):
        sample_correction_fbm(f, 1.0, 0.0, 0)


def test_determinism():
    f = get_test_function("sin_x_cos_y")
    a = sample_correction_fbmbt(f, 1.0, 2.0**-8, 123)
    b = sample_correction_fbmbt(f, 1.0, 2.0**-8, 123)
    assert a.value == b.value
    assert a.t_effective == b.t_effective


def test_fbm_correction_variance_cubic():
    # f = x^3: value = 6 kappa1 B(t), so Var = 36 kappa1^2 t at any mesh
    f = get_test_function("x^3")
    kap = default_kappas()
    t = 0.7
    vals = [
        sample_correction_fbm(f, t, 2.0**-6, derive_seed(5, i)).value
        for i in range(4000)
    ]
    target = 36.0 * kap.kappa1**2 * t
    assert np.var(vals, ddof=1) == pytest.approx(target, rel=0.12)
    # and the value is exactly Gaussian here: normaltest should not reject
    assert sps.normaltest(vals).pvalue > 1e-3


def test_fbmbt_correction_variance_and_kurtosis():
    # tower property: Var = 36 kappa1^2 E|Y_t| = 36 kappa1^2 sqrt(2t/pi),
    # and mixing over Y_t leaves positive excess kurtosis
    f = get_test_function("x^3")
    kap = default_kappas()
    vals = np.array(
        [
            sample_correction_fbmbt(f, 1.0, 2.0**-6, derive_seed(9, i)).value
            for i in range(6000)
        ]
    )
    target = 36.0 * kap.kappa1**2 * math.sqrt(2.0 / math.pi)
    assert np.var(vals, ddof=1) == pytest.approx(target, rel=0.12)
    assert sps.kurtosis(vals) > 0.3


def test_mesh_robustness():
    # halving the mesh must not move the variance materially
    f = get_test_function("sin_x_cos_y")
    out = []
    for mesh in (2.0**-6, 2.0**-7):
        vals = [
            sample_correction_fbm(f, 1.0, mesh, derive_seed(31, i)).value
            for i in range(3000)
        ]
        out.append(np.var(vals, ddof=1))
    assert abs(out[0] - out[1]) < 0.08 * out[0]


def test_t_effective_is_brownian_time():
    f = get_test_function("x^3")
    ys = [
        sample_correction_fbmbt(f, 2.0, 2.0**-6, derive_seed(3, i)).t_effective
        for i in range(3000)
    ]
    assert np.mean(ys) == pytest.approx(0.0, abs=0.1)
    assert np.var(ys, ddof=1) == pytest.approx(2.0, rel=0.12)


def test_rhs_shares_draws_with_correction():
    f = get_test_function("sin_x_cos_y")
    seed = 4242
    corr = sample_correction_fbmbt(f, 1.0, 2.0**-8, seed)
    rhs = sample_change_of_variable_rhs(f, 1.0, 2.0**-8, seed)
    assert rhs.t_effective == corr.t_effective
    # rhs + correction = f(endpoint) - f(0), which is bounded for this f
    recon = rhs.value + corr.value
    assert abs(recon - (-float(f(0.0, 0.0)))) <= 2.0 + 1e-9


def test_zero_time_horizon():
    f = get_test_function("x^3")
    s = sample_correction_fbm(f, 0.0, 0.01, 1)
    assert s.value == 0.0
    assert s.t_effective == 0.0


def test_euler_sum_draws_only_live_brownian_streams(monkeypatch):
    from fbmbt import limitlaw, rng

    requested = []

    def recording(seed, stream):
        requested.append(stream)
        return rng.generator(seed, stream)

    monkeypatch.setattr(limitlaw, "generator", recording)
    before = sample_correction_fbm(get_test_function("x^3"), 1.0, 2.0**-6, 3).value
    assert requested == [rng.STREAM_X1, rng.STREAM_X2, rng.STREAM_B1]
    requested.clear()
    sample_correction_fbm(get_test_function("x*y^2"), 1.0, 2.0**-6, 3)
    assert requested == [rng.STREAM_X1, rng.STREAM_X2, rng.STREAM_B4]
    # f_xxx = 6 is the only live integrand: kappa1 * sum 6 dB^1 on 64 steps.
    db = rng.generator(3, rng.STREAM_B1).standard_normal(64) * 2.0**-3
    assert before == default_kappas().kappa1 * math.fsum(6.0 * db)
