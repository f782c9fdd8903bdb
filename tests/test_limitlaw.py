import math

import numpy as np
import pytest

from fbmbt import limitlaw, rng
from fbmbt.calculus import function_names, get_test_function
from fbmbt.fgn import H_SPECIAL, rho, sample_increments, sum_rho_cubed
from fbmbt.limitlaw import (
    DEFAULT_SERIES_TRUNCATION,
    default_kappas,
    kappa_constants,
    sample_change_of_variable_rhs,
    sample_correction_fbm,
)
from fbmbt.rng import derive_seed, generator
from fbmbt.stats import ks_two_sample


def _brownian_times(t, seeds):
    """Y_t of each seed, from its own ``STREAM_Y`` normal."""
    return np.array([math.sqrt(t) * float(generator(s, rng.STREAM_Y).standard_normal()) if t
                     else 0.0 for s in seeds])


def sample_correction_fbmbt(f, t, mesh, seeds):
    """The Brownian-time correction alone: the Euler sum out to |Y_t| that
    ``sample_change_of_variable_rhs`` subtracts, one value per seed."""
    return limitlaw._euler_sum(f, np.abs(_brownian_times(t, seeds)).tolist(), mesh, seeds)[0]


# Reference: the four-Brownian-motion Euler sum the samplers drew before
# they drew it as one conditional normal, kept to check that the law is
# unchanged.  B^1..B^4 had streams 0x4..0x7; the Brownian-time correction
# carried the sign of Y_t.
_REFERENCE_B_STREAMS = (0x4, 0x5, 0x6, 0x7)


def _reference_euler_sum(f, length, mesh, seed):
    if length == 0.0:
        return 0.0, 0.0, 0.0
    steps = max(1, round(length / mesh))
    h = length / steps
    x1, x2 = (
        np.concatenate([[0.0], np.cumsum(
            sample_increments(H_SPECIAL, h, steps, [generator(seed, stream)])[0])])
        for stream in (rng.STREAM_X1, rng.STREAM_X2)
    )
    total = 0.0
    for kappa, (a1, a2), stream in zip(
        default_kappas().as_tuple, ((3, 0), (0, 3), (2, 1), (1, 2)), _REFERENCE_B_STREAMS
    ):
        db = generator(seed, stream).standard_normal(steps) * math.sqrt(h)
        weight = np.asarray(f.partials_at([(a1, a2)], x1[:-1], x2[:-1])[0], dtype=np.float64)
        total += kappa * math.fsum(np.broadcast_to(weight * db, db.shape))
    return total, float(x1[-1]), float(x2[-1])


def _reference_rhs_fbmbt(f, t, mesh, seed):
    y = math.sqrt(t) * float(generator(seed, rng.STREAM_Y).standard_normal())
    corr, x1_end, x2_end = _reference_euler_sum(f, abs(y), mesh, seed)
    corr = -corr if y < 0 else corr
    return float(f(x1_end, x2_end)) - float(f(0.0, 0.0)) - corr


def test_kappa_values():
    kap = default_kappas()
    s = kap.series.partial_sum
    assert kap.kappa1 == pytest.approx(math.sqrt(s / 96.0))
    assert kap.kappa2 == kap.kappa1
    assert kap.kappa3 == pytest.approx(math.sqrt(s / 32.0))
    assert kap.kappa4 == kap.kappa3
    assert kap.kappa3 == pytest.approx(math.sqrt(3.0) * kap.kappa1)


def test_default_truncation_certifies_the_bits_of_every_longer_sum():
    # S = 1 + 2 s, s the rounded sum of the m cubes.  Every cube past m is
    # negative and their sum is within the one-sided tail bound, so if s's
    # rounding error plus that bound stays under half an ulp of s, any longer
    # sum rounds to the same s (the 1e-12 covers rho's own rounding).
    m, H = DEFAULT_SERIES_TRUNCATION, H_SPECIAL
    c = rho(np.arange(1, m + 1), H)
    cubes = (c * c * c).tolist()
    s = math.fsum(cubes)
    tail_bound = sum_rho_cubed(H, m).tail_bound
    assert abs(math.fsum(cubes + [-s])) + tail_bound / 2 * (1 + 1e-12) < math.ulp(s) / 2
    assert (default_kappas().series.partial_sum == sum_rho_cubed(H, 10**6).partial_sum
            == float.fromhex("0x1.cc0bc85da1b1ap-1"))


def test_kappa_requires_special_hurst():
    series = sum_rho_cubed(0.3, 100)
    with pytest.raises(ValueError):
        kappa_constants(series)


def test_quadratic_integrand_gives_exact_zero():
    # Every third partial of x^2 vanishes, so the conditional variance is 0
    # and the value is +0.0 even where the normal drawn is negative.
    f = get_test_function("x^2")
    seeds = list(range(5))
    assert any(generator(s, rng.STREAM_B).standard_normal() < 0 for s in seeds)
    for sampler in (sample_correction_fbm, sample_correction_fbmbt):
        for value in sampler(f, 1.0, 2.0**-6, seeds):
            assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_argument_validation():
    f = get_test_function("x^3")
    with pytest.raises(ValueError):
        sample_correction_fbm(f, -1.0, 0.01, [0])
    with pytest.raises(ValueError):
        sample_correction_fbm(f, 1.0, 0.0, [0])


def test_determinism():
    f = get_test_function("sin_x_cos_y")
    a = sample_correction_fbmbt(f, 1.0, 2.0**-8, [123])
    b = sample_correction_fbmbt(f, 1.0, 2.0**-8, [123])
    assert a[0] == b[0]


def test_fbm_correction_variance_cubic():
    # f = x^3: value = 6 kappa1 sqrt(t) N, so Var = 36 kappa1^2 t at any mesh
    f = get_test_function("x^3")
    kap = default_kappas()
    t = 0.7
    vals = sample_correction_fbm(f, t, 2.0**-6, [derive_seed(5, i) for i in range(4000)])
    target = 36.0 * kap.kappa1**2 * t
    assert np.var(vals, ddof=1) == pytest.approx(target, rel=0.12)
    # and the value is exactly Gaussian here: normaltest should not reject
    sps = pytest.importorskip("scipy.stats")
    assert sps.normaltest(vals).pvalue > 1e-3


def test_fbmbt_correction_variance_and_kurtosis():
    # tower property: Var = 36 kappa1^2 E|Y_t| = 36 kappa1^2 sqrt(2t/pi),
    # and mixing over Y_t leaves positive excess kurtosis
    f = get_test_function("x^3")
    kap = default_kappas()
    vals = sample_correction_fbmbt(f, 1.0, 2.0**-6, [derive_seed(9, i) for i in range(6000)])
    target = 36.0 * kap.kappa1**2 * math.sqrt(2.0 / math.pi)
    assert np.var(vals, ddof=1) == pytest.approx(target, rel=0.12)
    centred = vals - vals.mean()
    excess_kurtosis = np.mean(centred**4) / np.mean(centred**2) ** 2 - 3.0
    assert excess_kurtosis > 0.3


def test_mesh_robustness():
    # halving the mesh must not move the variance materially
    f = get_test_function("sin_x_cos_y")
    out = []
    for mesh in (2.0**-6, 2.0**-7):
        vals = sample_correction_fbm(f, 1.0, mesh, [derive_seed(31, i) for i in range(3000)])
        out.append(np.var(vals, ddof=1))
    assert abs(out[0] - out[1]) < 0.08 * out[0]


def test_t_effective_is_brownian_time():
    f = get_test_function("x^3")
    ys = _brownian_times(2.0, [derive_seed(3, i) for i in range(3000)])
    assert np.mean(ys) == pytest.approx(0.0, abs=0.1)
    assert np.var(ys, ddof=1) == pytest.approx(2.0, rel=0.12)


def test_rhs_shares_draws_with_correction():
    f = get_test_function("sin_x_cos_y")
    seed = 4242
    corr = sample_correction_fbmbt(f, 1.0, 2.0**-8, [seed])[0]
    rhs = sample_change_of_variable_rhs(f, 1.0, 2.0**-8, [seed])[0]
    # rhs + correction = f(endpoint) - f(0), which is bounded for this f
    recon = rhs + corr
    assert abs(recon - (-float(f(0.0, 0.0)))) <= 2.0 + 1e-9


def _rhs_one_seed_at_a_time(f, t, mesh, seeds):
    """The right-hand side read one seed at a time, one scalar f per seed on
    ``_euler_sum``'s outputs: the oracle for reading f at the ends of all
    seeds in one array call."""
    corr, x1_end, x2_end = limitlaw._euler_sum(
        f, np.abs(_brownian_times(t, seeds)).tolist(), mesh, seeds, limitlaw._RHS_READS)
    f0 = float(f(0.0, 0.0))
    return [float(f(a, b)) - f0 - c
            for a, b, c in zip(x1_end.tolist(), x2_end.tolist(), corr.tolist())]


@pytest.mark.parametrize("name", function_names())
def test_rhs_equals_its_one_seed_at_a_time_form(name):
    f = get_test_function(name)
    seeds = [derive_seed(17, i) for i in range(6)]
    for t in (0.0, 1.0, 3.0):
        for mesh in (2.0**-4, 2.0**-7):
            got = sample_change_of_variable_rhs(f, t, mesh, seeds)
            want = np.array(_rhs_one_seed_at_a_time(f, t, mesh, seeds))
            assert got.tobytes() == want.tobytes(), (t, mesh)
            if t == 0.0:  # +0.0, not -0.0
                assert not np.signbit(got).any() and not got.any()


def test_zero_time_horizon():
    f = get_test_function("x^3")
    s = sample_correction_fbm(f, 0.0, 0.01, [1])
    assert s[0] == 0.0


@pytest.mark.parametrize("t,mesh,message", [
    (math.nan, 0.01, "time horizon must be finite and nonnegative, got nan"),
    (math.inf, 0.01, "time horizon must be finite and nonnegative, got inf"),
    (-1.0, 0.01, "time horizon must be finite and nonnegative, got -1.0"),
    (1.0, math.nan, "mesh must be finite and positive, got nan"),
    (1.0, math.inf, "mesh must be finite and positive, got inf"),
    (1.0, 0.0, "mesh must be finite and positive, got 0.0"),
])
def test_bad_horizon_or_mesh_is_named(t, mesh, message):
    f = get_test_function("sin_x_cos_y")
    for sampler in (sample_correction_fbm, sample_change_of_variable_rhs):
        with pytest.raises(ValueError) as err:
            sampler(f, t, mesh, [1])
        assert str(err.value) == message


@pytest.mark.parametrize("fname", ["x^3", "x*y^2", "sin_x_cos_y"])
def test_euler_sum_is_one_conditional_normal(monkeypatch, fname):
    requested = []

    def recording(seed, stream, keyed=rng.keyed):
        requested.append(stream)
        return keyed(seed, stream)

    # X's rows re-key through rng's handles, the normal in limitlaw.
    monkeypatch.setattr(rng, "keyed", recording)
    monkeypatch.setattr(limitlaw, "keyed", recording)
    f = get_test_function(fname)
    value = sample_correction_fbm(f, 1.0, 2.0**-6, [3])[0]
    # X cannot reach the value when every third partial is constant, and it
    # is not drawn; the value is still the one drawn along X.
    if fname == "sin_x_cos_y":
        assert requested == [rng.STREAM_X1, rng.STREAM_X2, rng.STREAM_B]
    else:
        assert requested == [rng.STREAM_B]
    # sqrt(h sum_k sum_i kappa_i^2 g_i(X_k)^2) N on 64 steps of h = 2^-6.
    h = 2.0**-6
    x1, x2 = (
        np.concatenate([[0.0], np.cumsum(
            sample_increments(H_SPECIAL, h, 64, [generator(3, stream)])[0])])[:-1]
        for stream in (rng.STREAM_X1, rng.STREAM_X2)
    )
    weight = sum(
        kappa**2 * np.broadcast_to(f.partials_at([(a1, a2)], x1, x2)[0], (64,)) ** 2
        for kappa, (a1, a2) in zip(default_kappas().as_tuple,
                                   ((3, 0), (0, 3), (2, 1), (1, 2)))
    )
    normal = float(generator(3, rng.STREAM_B).standard_normal())
    assert value == math.sqrt(h * math.fsum(weight)) * normal


def test_conditional_normal_matches_four_brownian_reference():
    # Same law as the four-stream sum, on 3000 independent draws each.
    f = get_test_function("sin_x_cos_y")
    draws = 3000
    pairs = [
        (sample_correction_fbm(f, 1.0, 2.0**-6, [derive_seed(41, i) for i in range(draws)]),
         [_reference_euler_sum(f, 1.0, 2.0**-6, derive_seed(42, i))[0]
          for i in range(draws)]),
        (sample_change_of_variable_rhs(f, 1.0, 2.0**-6,
                                       [derive_seed(43, i) for i in range(draws)]),
         [_reference_rhs_fbmbt(f, 1.0, 2.0**-6, derive_seed(44, i))
          for i in range(draws)]),
    ]
    for new, reference in pairs:
        assert ks_two_sample(new, reference).p_value > 1e-6
