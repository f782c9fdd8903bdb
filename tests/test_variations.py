import itertools
import math

import numpy as np
import pytest

from fbmbt.calculus import get_test_function
from fbmbt.fgn import grid_spacing, sample_fbm_2d
from fbmbt.skeleton import sample_skeleton, terminal_y
from fbmbt.variations import (
    k_components,
    kl_reduce,
    o_n,
    o_tilde_n,
    o_tilde_reduced,
    p_n,
    v3,
    v_pq,
    v_pq_hermite,
    v_tilde_3,
    v_tilde_3_reduced,
    v_tilde_pq,
    w3,
    w_grad,
    w_pq,
)

H6 = 1.0 / 6.0


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _path(H=0.3, n=8, seed=1, lo=0, hi=16):
    return sample_fbm_2d(H, n, lo, hi, seed)


def test_o_n_linear_function_telescopes():
    # f(x, y) = x: gradient sum collapses to the endpoint value
    path = _path()
    f = get_test_function("x")
    m = int(math.floor(2.0**4 * 1.0))
    stat = o_n(f, path, 1.0)
    assert stat.value == pytest.approx(path.value(1, m), rel=1e-12)


def test_o_n_sum_of_coordinates():
    path = _path()
    f = get_test_function("y")
    m = 16
    assert o_n(f, path, 1.0).value == pytest.approx(path.value(2, m), rel=1e-12)


def test_v_pq_constant_weight_is_power_sum():
    path = _path()
    f = get_test_function("1")
    d = np.diff(path.segment(1, 0, 16))
    assert v_pq(f, path, 1.0, 3, 0).value == pytest.approx(
        math.fsum(d**3), rel=1e-12
    )


def test_v_pq_rejects_even_total():
    path = _path()
    f = get_test_function("1")
    with pytest.raises(ValueError):
        v_pq(f, path, 1.0, 1, 1)
    with pytest.raises(ValueError):
        v_pq(f, path, 1.0, 0, 2)


def test_v3_vanishes_for_quadratics():
    path = _path()
    for name in ("1", "x", "y", "x^2", "x*y", "y^2"):
        f = get_test_function(name)
        assert v3(f, path, 1.0).value == 0.0


def test_v3_cubic_closed_form():
    # f = x^3: only the pure-x third derivative (= 6) survives
    path = _path()
    f = get_test_function("x^3")
    d = np.diff(path.segment(1, 0, 16))
    assert v3(f, path, 1.0).value == pytest.approx(0.25 * math.fsum(d**3), rel=1e-12)


def test_chaos_split_identity():
    path = sample_fbm_2d(H6, 8, 0, 16, 77)
    for name in ("x^3", "x*y^2", "sin_x_cos_y", "bump"):
        f = get_test_function(name)
        lhs = v3(f, path, 1.0).value
        ks = k_components(f, path, 1.0)
        rhs = math.fsum(k.value for k in ks) + p_n(f, path, 1.0).value
        assert _rel(lhs, rhs) < 1e-12


def test_k_components_require_special_hurst():
    path = _path(H=0.3)
    f = get_test_function("x^3")
    with pytest.raises(ValueError):
        k_components(f, path, 1.0)
    with pytest.raises(ValueError):
        p_n(f, path, 1.0)


def test_hermite_route_matches_direct():
    path = _path(H=0.22, n=10, hi=32)
    for name in ("x^3", "sin_x_cos_y"):
        f = get_test_function(name)
        for p, q in ((1, 0), (3, 0), (1, 2), (2, 3)):
            a = v_pq(f, path, 1.0, p, q).value
            b = v_pq_hermite(f, path, 1.0, p, q).value
            assert _rel(a, b) < 1e-12


def test_skeleton_statistics_and_reductions():
    t = 1.0
    signs = set()
    for n, seed in itertools.product((7, 8), range(60)):
        m = int(math.floor(2.0**n * t))
        walk = sample_skeleton(n, m, seed)
        visited = walk.positions[: m + 1]
        fbm = sample_fbm_2d(0.3, n, int(visited.min()), int(visited.max()), seed)
        f = get_test_function("sin_x_cos_y")
        for p, q in ((1, 0), (3, 0), (1, 2)):
            vt = v_tilde_pq(f, fbm, walk, t, p, q).value
            red = kl_reduce(f, fbm, walk, t, p, q).value
            assert _rel(vt, red) < 1e-12
            wv = w_pq(f, fbm, terminal_y(walk, m), p, q).value
            assert _rel(vt, wv) < 1e-12
        o_red = o_tilde_reduced(f, fbm, walk, t).value
        v3_red = v_tilde_3_reduced(f, fbm, walk, t).value
        assert _rel(o_tilde_n(f, fbm, walk, t).value, o_red) < 1e-12
        assert _rel(v_tilde_3(f, fbm, walk, t).value, v3_red) < 1e-12
        # The one-sided forms the Brownian-clock draws use, at y = j* 2^{-n/2}
        # (equal up to the last bit: the j* < 0 side sums the mirrored path).
        j_star = int(walk.positions[m])
        y = j_star * grid_spacing(n)
        assert w_grad(f, fbm, y).value == pytest.approx(o_red, rel=1e-12, abs=0.0)
        assert w3(f, fbm, y).value == pytest.approx(v3_red, rel=1e-12, abs=0.0)
        signs.add((n, int(np.sign(j_star))))
    assert signs == {(n, sign) for n in (7, 8) for sign in (-1, 0, 1)}


def test_w3_at_zero_horizon():
    fbm = _path(lo=-8, hi=8)
    f = get_test_function("sin_x_cos_y")
    assert w3(f, fbm, 0.0).value == 0.0


def test_w_pq_negative_horizon_uses_mirrored_path():
    fbm = _path(lo=-16, hi=0)
    f = get_test_function("1")
    v = fbm.segment(1, -16, 0)[::-1]
    want = math.fsum(np.diff(v) ** 3)
    assert w_pq(f, fbm, -1.0, 3, 0).value == pytest.approx(want, rel=1e-12)


def test_level_mismatch_rejected():
    walk = sample_skeleton(8, 10, 0)
    fbm = sample_fbm_2d(0.3, 6, -8, 8, 0)
    f = get_test_function("1")
    with pytest.raises(ValueError):
        v_tilde_pq(f, fbm, walk, 0.01, 1, 0)


def test_insufficient_walk_steps_rejected():
    walk = sample_skeleton(8, 10, 0)
    fbm = sample_fbm_2d(0.3, 8, -16, 16, 0)
    f = get_test_function("1")
    with pytest.raises(ValueError):
        v_tilde_pq(f, fbm, walk, 1.0, 1, 0)  # needs 256 steps


def test_uncovered_grid_rejected():
    # walk wanders beyond a deliberately tiny grid
    walk = sample_skeleton(8, 256, 1)
    fbm = sample_fbm_2d(0.3, 8, -1, 1, 1)
    f = get_test_function("1")
    spread = int(max(walk.positions.max(), -walk.positions.min()))
    assert spread > 1
    with pytest.raises(ValueError):
        v_tilde_pq(f, fbm, walk, 1.0, 1, 0)


def test_statistic_metadata():
    path = _path()
    f = get_test_function("x^3")
    stat = v_pq(f, path, 0.5, 3, 0)
    assert stat.kind == "V"
    assert stat.function == "x^3"
    assert stat.level == 8
    assert stat.exponents == (3, 0)
