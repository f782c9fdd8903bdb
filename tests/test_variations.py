import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fbmbt.calculus import (
    Function2D,
    function_names,
    get_test_function,
    hermite_eval,
    hermite_expand,
)
from fbmbt.experiments import THRESHOLDS
from fbmbt.fgn import FbmGridPath2D, check_special_hurst, grid_spacing, sample_fbm_2d
from fbmbt.skeleton import SkeletonPath, sample_skeleton, terminal_y
from fbmbt.variations import (
    _TAYLOR,
    _VALUE,
    _check_exponents,
    _fsum_rows,
    _grid_count,
    _midpoint_sums,
    _power_sum,
    _step_count,
    _taylor_sum,
)

H6 = 1.0 / 6.0


# ---------------------------------------------------------------------------
# Per-path forms: each statistic on one ``FbmGridPath2D`` (and one walk),
# a float summed by ``math.fsum``.  The package evaluates them a block of
# rows at a time (``experiments._identity_instances``); these are the
# oracles its rows must equal bit for bit (``tests/test_experiments.py``),
# and the fixed-clock estimators' (``tests/test_blocks.py``).


def _grid_values(path: FbmGridPath2D, t: float) -> tuple[np.ndarray, np.ndarray]:
    return path.segment(0, _grid_count(path.level, t))


def v_pq(f: Function2D, path: FbmGridPath2D, t: float, p: int, q: int) -> float:
    """Weighted (p,q)-power variation, p + q odd."""
    p, q = _check_exponents(p, q)
    return _power_sum(f, *_grid_values(path, t), p, q)


def v_pq_hermite(f: Function2D, path: FbmGridPath2D, t: float, p: int, q: int) -> float:
    """Same statistic as ``v_pq`` with each increment power rebuilt from its
    exact Hermite-basis expansion; equal up to roundoff by construction."""
    p, q = _check_exponents(p, q)
    scale = 2.0 ** (path.level * path.H / 2.0)

    def rebuilt(w, d1, d2, p, q):
        for d, power in ((d1, p), (d2, q)):
            if power:
                w = w * hermite_expand(power).evaluate(d * scale) * scale**-power
        return w

    return _midpoint_sums(f, *_grid_values(path, t), [(_VALUE, (p, q))], rebuilt)[0]


def v3(f: Function2D, path: FbmGridPath2D, t: float) -> float:
    """Third-order midpoint correction sum: the order-3 part of the midpoint
    expansion of f(path end) - f(path start) along the grid."""
    return _taylor_sum(f, *_grid_values(path, t), 3)


def k_components(f: Function2D, path: FbmGridPath2D, t: float) -> tuple[float, ...]:
    """Chaos-projected pieces K1..K4 of the third-order sum at H = 1/6.

    Each increment power is replaced by its top Wiener-chaos part,
    ``I_q(delta^{tensor q}) = sd^q * H_q(increment / sd)`` with
    ``sd = 2**(-n H / 2)`` the increment standard deviation.
    """
    check_special_hurst(path.H, "k_components")
    inv_sd = 2.0 ** (path.level * path.H / 2.0)

    def top_chaos(d: np.ndarray, order: int):
        if order < 2:
            return d if order else 1.0
        return hermite_eval(order, d * inv_sd) * inv_sd**-order

    index = ((3, 0), (0, 3), (1, 2), (2, 1))
    sums = _midpoint_sums(
        f, *_grid_values(path, t), [((a,), a) for a in index],
        lambda w, d1, d2, p, q: w * (top_chaos(d1, p) * top_chaos(d2, q)),
    )
    return tuple(s / float(1 / _TAYLOR[a]) for a, s in zip(index, sums))


def p_n(f: Function2D, path: FbmGridPath2D, t: float) -> float:
    """Trace remainder of the chaos projection at H = 1/6: the lower-chaos
    part left over when the increment cubes and squares in the third-order
    sum are projected onto their top chaos."""
    check_special_hurst(path.H, "p_n")
    s1, s2 = _midpoint_sums(
        f, *_grid_values(path, t), ((((3, 0), (1, 2)), (1, 0)), (((0, 3), (2, 1)), (0, 1)))
    )
    return 0.125 * 2.0 ** (-path.level * path.H) * (s1 + s2)


# ---------------------------------------------------------------------------
# Skeleton statistics


def _walk_horizon(fbm: FbmGridPath2D, walk: SkeletonPath, t: float) -> int:
    """Walk steps up to time t, checked against the walk and the grid level."""
    if fbm.level != walk.level:
        raise ValueError(f"fBm grid level {fbm.level} != walk level {walk.level}")
    m = _step_count(walk.level, t)
    if m > walk.steps:
        raise ValueError(f"horizon needs {m} walk steps, walk has {walk.steps}")
    return m


def _skeleton_values(
    fbm: FbmGridPath2D, walk: SkeletonPath, t: float
) -> tuple[np.ndarray, np.ndarray]:
    idx = walk.positions[: _walk_horizon(fbm, walk, t) + 1]
    lo, hi = int(idx.min()), int(idx.max())
    if lo < fbm.j_min or hi > fbm.j_max:
        raise ValueError(
            f"walk visits grid range [{lo}, {hi}] but the fBm grid covers "
            f"[{fbm.j_min}, {fbm.j_max}]"
        )
    pos = idx - fbm.j_min
    return fbm.values1[pos], fbm.values2[pos]


def v_tilde_pq(
    f: Function2D, fbm: FbmGridPath2D, walk: SkeletonPath, t: float, p: int, q: int
) -> float:
    """Weighted (p,q)-variation along the time-changed path, p + q odd: one
    term per walk step, weighted at the midpoint of the fBm increment it
    traverses."""
    p, q = _check_exponents(p, q)
    return _power_sum(f, *_skeleton_values(fbm, walk, t), p, q)


# ---------------------------------------------------------------------------
# One-sided edge statistics and the crossing reduction


def _one_sided_values(fbm: FbmGridPath2D, y: float) -> tuple[np.ndarray, np.ndarray]:
    """Path values from index 0 outward toward ``y`` (mirrored when y < 0)."""
    m = _grid_count(fbm.level, abs(y))
    if y >= 0:
        return fbm.segment(0, m)
    v1, v2 = fbm.segment(-m, 0)
    return v1[::-1], v2[::-1]


def w_pq(f: Function2D, fbm: FbmGridPath2D, y: float, p: int, q: int) -> float:
    """One-sided weighted (p,q)-variation out to signed spatial horizon y."""
    p, q = _check_exponents(p, q)
    return _power_sum(f, *_one_sided_values(fbm, y), p, q)


def _reduced_segment(
    fbm: FbmGridPath2D, walk: SkeletonPath, t: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """Grid values spanning [min(0, j*), max(0, j*)] and the sign of j*,
    where j* is the walk position at the horizon."""
    j_star = int(walk.positions[_walk_horizon(fbm, walk, t)])
    lo, hi = min(0, j_star), max(0, j_star)
    return *fbm.segment(lo, hi), (j_star > 0) - (j_star < 0)


def kl_reduce(
    f: Function2D, fbm: FbmGridPath2D, walk: SkeletonPath, t: float, p: int, q: int
) -> float:
    """Skeleton (p,q)-variation via the net-crossing closed form.

    For odd p + q the up and down traversals of an edge contribute with
    opposite signs, so the skeleton sum collapses to the edges between 0 and
    the terminal walk position, counted once with the sign of the terminal
    side.  Equals ``v_tilde_pq`` exactly.
    """
    p, q = _check_exponents(p, q)
    v1, v2, sign = _reduced_segment(fbm, walk, t)
    return sign * _power_sum(f, v1, v2, p, q) if sign else 0.0


# Reference-only forms: the gradient and third-order sums on the grid, one
# sided, along the walk and through the net-crossing collapse.  No estimator
# reads them; they check the forms the estimators use (``tests/test_blocks.py``
# imports ``w_grad`` and ``w3``).


def o_n(f, path, t):
    """Midpoint gradient Riemann sum of f along the grid path up to time t."""
    return _taylor_sum(f, *_grid_values(path, t), 1)


def w_grad(f, fbm, y):
    """One-sided midpoint gradient sum out to horizon y."""
    return _taylor_sum(f, *_one_sided_values(fbm, y), 1)


def w3(f, fbm, y):
    """One-sided third-order midpoint correction sum out to horizon y."""
    return _taylor_sum(f, *_one_sided_values(fbm, y), 3)


def o_tilde_n(f, fbm, walk, t):
    """Midpoint gradient sum of f along the time-changed path."""
    return _taylor_sum(f, *_skeleton_values(fbm, walk, t), 1)


def v_tilde_3(f, fbm, walk, t):
    """Third-order midpoint correction sum along the time-changed path."""
    return _taylor_sum(f, *_skeleton_values(fbm, walk, t), 3)


def o_tilde_reduced(f, fbm, walk, t):
    """``o_tilde_n`` via the net-crossing collapse (gradient weights)."""
    v1, v2, sign = _reduced_segment(fbm, walk, t)
    return sign * _taylor_sum(f, v1, v2, 1) if sign else 0.0


def v_tilde_3_reduced(f, fbm, walk, t):
    """``v_tilde_3`` via the net-crossing collapse (third-order weights)."""
    v1, v2, sign = _reduced_segment(fbm, walk, t)
    return sign * _taylor_sum(f, v1, v2, 3) if sign else 0.0


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _path(H=0.3, n=8, seed=1, lo=0, hi=16):
    return sample_fbm_2d(H, n, lo, hi, seed)


def test_o_n_linear_function_telescopes():
    # f(x, y) = x: gradient sum collapses to the endpoint value
    path = _path()
    f = get_test_function("x")
    m = int(math.floor(2.0**4 * 1.0))
    assert o_n(f, path, 1.0) == pytest.approx(path.values1[m - path.j_min], rel=1e-12)


def test_o_n_sum_of_coordinates():
    path = _path()
    f = get_test_function("y")
    m = 16
    assert o_n(f, path, 1.0) == pytest.approx(path.values2[m - path.j_min], rel=1e-12)


def test_v_pq_constant_weight_is_power_sum():
    path = _path()
    f = get_test_function("1")
    d = np.diff(path.segment(0, 16)[0])
    assert v_pq(f, path, 1.0, 3, 0) == pytest.approx(
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
        assert v3(f, path, 1.0) == 0.0


def test_v3_cubic_closed_form():
    # f = x^3: only the pure-x third derivative (= 6) survives
    path = _path()
    f = get_test_function("x^3")
    d = np.diff(path.segment(0, 16)[0])
    assert v3(f, path, 1.0) == pytest.approx(0.25 * math.fsum(d**3), rel=1e-12)


def test_chaos_split_identity():
    path = sample_fbm_2d(H6, 8, 0, 16, 77)
    for name in ("x^3", "x*y^2", "sin_x_cos_y", "bump"):
        f = get_test_function(name)
        lhs = v3(f, path, 1.0)
        ks = k_components(f, path, 1.0)
        rhs = math.fsum(ks) + p_n(f, path, 1.0)
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
            a = v_pq(f, path, 1.0, p, q)
            b = v_pq_hermite(f, path, 1.0, p, q)
            assert _rel(a, b) < 1e-12


ODD_EXPONENTS = [(p, q) for p in range(6) for q in range(6 - p) if (p + q) % 2]


@settings(deadline=None, max_examples=60)
@given(
    H=st.floats(min_value=0.05, max_value=0.95),
    n=st.integers(min_value=2, max_value=12),
    t=st.floats(min_value=0.05, max_value=1.5),
    seed=st.integers(min_value=0, max_value=(1 << 64) - 1),
    name=st.sampled_from(function_names()),
    pq=st.sampled_from(ODD_EXPONENTS),
)
def test_hermite_route_equals_direct_sum(H, n, t, seed, name, pq):
    f = get_test_function(name)
    path = sample_fbm_2d(H, n, 0, _grid_count(n, t), seed)
    a, b = v_pq(f, path, t, *pq), v_pq_hermite(f, path, t, *pq)
    assert _rel(a, b) <= THRESHOLDS["identity_rel"]


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(min_value=2, max_value=12),
    t=st.floats(min_value=0.05, max_value=1.5),
    seed=st.integers(min_value=0, max_value=(1 << 64) - 1),
    name=st.sampled_from(function_names()),
)
def test_chaos_split_is_exact(n, t, seed, name):
    f = get_test_function(name)
    path = sample_fbm_2d(H6, n, 0, _grid_count(n, t), seed)
    rhs = math.fsum(k_components(f, path, t)) + p_n(f, path, t)
    assert _rel(v3(f, path, t), rhs) <= THRESHOLDS["identity_rel"]


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
            vt = v_tilde_pq(f, fbm, walk, t, p, q)
            red = kl_reduce(f, fbm, walk, t, p, q)
            assert _rel(vt, red) < 1e-12
            wv = w_pq(f, fbm, terminal_y(walk), p, q)
            assert _rel(vt, wv) < 1e-12
        o_red = o_tilde_reduced(f, fbm, walk, t)
        v3_red = v_tilde_3_reduced(f, fbm, walk, t)
        assert _rel(o_tilde_n(f, fbm, walk, t), o_red) < 1e-12
        assert _rel(v_tilde_3(f, fbm, walk, t), v3_red) < 1e-12
        # The one-sided forms at y = j* 2^{-n/2} sum the mirrored path when
        # j* < 0, and the reductions sign(j*) times the forward sum: equal to
        # the last bit, as the Brownian-clock draws need.
        j_star = int(walk.positions[m])
        y = j_star * grid_spacing(n)
        assert w_grad(f, fbm, y) == o_red
        assert w3(f, fbm, y) == v3_red
        signs.add((n, int(np.sign(j_star))))
    assert signs == {(n, sign) for n in (7, 8) for sign in (-1, 0, 1)}


@settings(deadline=None)
@given(
    H=st.floats(min_value=0.05, max_value=0.48),
    n=st.integers(min_value=2, max_value=10),
    t=st.floats(min_value=0.05, max_value=1.5),
    seed=st.integers(min_value=0, max_value=(1 << 64) - 1),
    name=st.sampled_from(function_names()),
    pq=st.sampled_from([(1, 0), (0, 1), (3, 0), (0, 3), (1, 2), (2, 1), (5, 0), (2, 3)]),
)
def test_reductions_equal_skeleton_sum(H, n, t, seed, name, pq):
    f = get_test_function(name)
    m = int(math.floor(2.0**n * t))
    walk = sample_skeleton(n, m, seed)
    visited = walk.positions[: m + 1]
    fbm = sample_fbm_2d(H, n, int(visited.min()), int(visited.max()), seed)
    vt = v_tilde_pq(f, fbm, walk, t, *pq)
    tol = THRESHOLDS["identity_rel"]
    assert _rel(vt, kl_reduce(f, fbm, walk, t, *pq)) <= tol
    assert _rel(vt, w_pq(f, fbm, terminal_y(walk), *pq)) <= tol


def test_w3_at_zero_horizon():
    fbm = _path(lo=-8, hi=8)
    f = get_test_function("sin_x_cos_y")
    assert w3(f, fbm, 0.0) == 0.0


def test_w_pq_negative_horizon_uses_mirrored_path():
    fbm = _path(lo=-16, hi=0)
    f = get_test_function("1")
    v = fbm.segment(-16, 0)[0][::-1]
    want = math.fsum(np.diff(v) ** 3)
    assert w_pq(f, fbm, -1.0, 3, 0) == pytest.approx(want, rel=1e-12)


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


def test_statistics_return_plain_values():
    f = get_test_function("x^3")
    assert type(v_pq(f, _path(), 0.5, 3, 0)) is float
    assert all(type(k) is float for k in k_components(f, _path(H=H6), 0.5))


# ---------------------------------------------------------------------------
# Bitwise oracle: the midpoint kernel against the formulas it replaced, each
# of which recomputed midpoints and increments for itself.  Powers are the
# left-to-right products x * x * ... * x the package multiplies.


def _product(x, k):
    out = x
    for _ in range(k - 1):
        out = out * x
    return out


def _ref_series(weight, v1, v2, p, q):
    if len(v1) < 2:
        return 0.0
    mid1 = 0.5 * (v1[:-1] + v1[1:])
    mid2 = 0.5 * (v2[:-1] + v2[1:])
    terms = np.asarray(weight(mid1, mid2), dtype=np.float64)
    if p:
        terms = terms * _product(np.diff(v1), p)
    if q:
        terms = terms * _product(np.diff(v2), q)
    return math.fsum(np.broadcast_to(terms, mid1.shape))


def _partial(f, key):
    """The ``key`` partial of f alone, as a function of (x, y)."""
    return lambda x, y: f.partials_at([key], x, y)[0]


def _ref_gradient(f, v1, v2):
    return (_ref_series(_partial(f, (1, 0)), v1, v2, 1, 0)
            + _ref_series(_partial(f, (0, 1)), v1, v2, 0, 1))


def _ref_third_order(f, v1, v2):
    coefs = {(3, 0): 1.0 / 24.0, (0, 3): 1.0 / 24.0, (1, 2): 1.0 / 8.0, (2, 1): 1.0 / 8.0}
    return math.fsum(c * _ref_series(_partial(f, a), v1, v2, *a) for a, c in coefs.items())


def _ref_hermite(f, path, v1, v2, p, q):
    if len(v1) < 2:
        return 0.0
    scale = 2.0 ** (path.level * path.H / 2.0)
    mid1, mid2 = 0.5 * (v1[:-1] + v1[1:]), 0.5 * (v2[:-1] + v2[1:])
    terms = np.broadcast_to(np.asarray(f(mid1, mid2), dtype=np.float64), mid1.shape).copy()
    for power, v in ((p, v1), (q, v2)):
        if power:
            terms = terms * hermite_expand(power).evaluate(np.diff(v) * scale) * scale**-power
    return math.fsum(terms)


def _ref_k_components(f, path, v1, v2):
    if len(v1) < 2:
        return [0.0] * 4
    inv_sd = 2.0 ** (path.level * path.H / 2.0)
    mid1, mid2 = 0.5 * (v1[:-1] + v1[1:]), 0.5 * (v2[:-1] + v2[1:])

    def chaos(v, order):
        return hermite_eval(order, np.diff(v) * inv_sd) * inv_sd**-order

    def weighted(a1, a2, factor):
        w = np.asarray(_partial(f, (a1, a2))(mid1, mid2), dtype=np.float64)
        return math.fsum(np.broadcast_to(w * factor, mid1.shape))

    return [
        weighted(3, 0, chaos(v1, 3)) / 24.0,
        weighted(0, 3, chaos(v2, 3)) / 24.0,
        weighted(1, 2, np.diff(v1) * chaos(v2, 2)) / 8.0,
        weighted(2, 1, chaos(v1, 2) * np.diff(v2)) / 8.0,
    ]


def _ref_p_n(f, path, v1, v2):
    def combined(a, b):
        return lambda x, y: np.asarray(_partial(f, a)(x, y), dtype=np.float64) + np.asarray(
            _partial(f, b)(x, y), dtype=np.float64
        )

    return 0.125 * 2.0 ** (-path.level * path.H) * (
        _ref_series(combined((3, 0), (1, 2)), v1, v2, 1, 0)
        + _ref_series(combined((0, 3), (2, 1)), v1, v2, 0, 1)
    )


ORACLE_FUNCTIONS = ("x^3", "x*y^2", "1", "sin_x_cos_y", "bump")
ORACLE_EXPONENTS = ((1, 0), (0, 1), (3, 0), (1, 2), (2, 1), (2, 3))


@pytest.mark.parametrize("name", ORACLE_FUNCTIONS)
def test_grid_statistics_bitwise_equal_reference(name):
    f = get_test_function(name)
    path = sample_fbm_2d(H6, 8, 0, 16, 5)
    for t in (1.0, 0.4, 0.01):  # 16, 6 and 0 increments
        v1, v2 = path.segment(0, int(16 * t))
        assert o_n(f, path, t) == _ref_gradient(f, v1, v2)
        assert v3(f, path, t) == _ref_third_order(f, v1, v2)
        for p, q in ORACLE_EXPONENTS:
            assert v_pq(f, path, t, p, q) == _ref_series(f, v1, v2, p, q)
            assert v_pq_hermite(f, path, t, p, q) == _ref_hermite(f, path, v1, v2, p, q)
        ks = list(k_components(f, path, t))
        assert ks == _ref_k_components(f, path, v1, v2)
        assert p_n(f, path, t) == _ref_p_n(f, path, v1, v2)


@pytest.mark.parametrize("name", ORACLE_FUNCTIONS)
def test_one_sided_statistics_bitwise_equal_reference(name):
    f = get_test_function(name)
    fbm = sample_fbm_2d(0.3, 8, -16, 16, 6)
    for y in (1.0, -0.7, 0.0):
        m = int(16 * abs(y))
        if y >= 0:
            v1, v2 = fbm.segment(0, m)
        else:
            v1, v2 = (v[::-1] for v in fbm.segment(-m, 0))
        assert w_grad(f, fbm, y) == _ref_gradient(f, v1, v2)
        assert w3(f, fbm, y) == _ref_third_order(f, v1, v2)
        for p, q in ORACLE_EXPONENTS:
            assert w_pq(f, fbm, y, p, q) == _ref_series(f, v1, v2, p, q)


@pytest.mark.parametrize("name", ORACLE_FUNCTIONS)
def test_skeleton_statistics_bitwise_equal_reference(name):
    f = get_test_function(name)
    n, t, m = 6, 1.0, 64
    signs = set()
    for seed in range(40):
        walk = sample_skeleton(n, m, seed)
        idx = walk.positions
        fbm = sample_fbm_2d(0.3, n, int(idx.min()), int(idx.max()), seed)
        v1, v2 = fbm.values1[idx - fbm.j_min], fbm.values2[idx - fbm.j_min]
        assert o_tilde_n(f, fbm, walk, t) == _ref_gradient(f, v1, v2)
        assert v_tilde_3(f, fbm, walk, t) == _ref_third_order(f, v1, v2)
        j_star = int(idx[m])
        sign = int(np.sign(j_star))
        signs.add(sign)
        lo, hi = min(0, j_star), max(0, j_star)
        r1, r2 = fbm.segment(lo, hi)
        assert o_tilde_reduced(f, fbm, walk, t) == (
            sign * _ref_gradient(f, r1, r2) if sign else 0.0
        )
        assert v_tilde_3_reduced(f, fbm, walk, t) == (
            sign * _ref_third_order(f, r1, r2) if sign else 0.0
        )
        for p, q in ORACLE_EXPONENTS:
            assert v_tilde_pq(f, fbm, walk, t, p, q) == _ref_series(f, v1, v2, p, q)
            assert kl_reduce(f, fbm, walk, t, p, q) == (
                sign * _ref_series(f, r1, r2, p, q) if sign else 0.0
            )
    assert signs == {-1, 0, 1}


def test_v3_of_cube_evaluates_only_its_live_partial():
    # The kernels ask x^3's evaluator for its one live third partial; the
    # vanishing ones are known from the record and never evaluated.
    cube = get_test_function("x^3")
    asked = []

    def recorded(keys, x, y):
        asked.extend(keys)
        return cube._evaluate(keys, x, y)

    f = dataclasses.replace(cube, _evaluate=recorded)
    path = sample_fbm_2d(H6, 8, 0, 16, 1)
    assert v3(f, path, 1.0) == v3(cube, path, 1.0)
    assert asked == [(3, 0)]
    asked.clear()
    k_components(f, path, 1.0)
    p_n(f, path, 1.0)
    assert asked == [(3, 0), (3, 0)]


# ---------------------------------------------------------------------------
# Correctly rounded row sums: ``_fsum_rows`` on a block of rows, cut at one or
# several counts per row, against ``math.fsum`` on each row's prefix, bit
# for bit.

# Any finite float up to 2^1000 in magnitude, subnormals included; exact
# mantissas times powers of two spread exponents over the whole range.
_ENTRY = st.one_of(
    st.floats(min_value=-(2.0**1000), max_value=2.0**1000),
    st.builds(math.ldexp, st.integers(-(2**53), 2**53), st.integers(-1074, 1000 - 53)),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0**53, 2.0**-1074, -(2.0**-1022)]),
)
# Values on and beyond the ends of [2^-900, 2^900]: a row whose largest
# magnitude lies outside that range, or is not finite, takes math.fsum
# itself, and one on its ends is still extracted.
_SPECIAL = (math.inf, -math.inf, math.nan, 1.5 * 2.0**900, 2.0**900, 2.0**-900, 2.0**-901)


@st.composite
def _blocks(draw):
    """A block of rows, each plain, exactly cancelling or holding a special
    value, and one to three columns of counts, one count per row in each."""
    rows, width = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    a = np.array([[draw(_ENTRY) for _ in range(width)] for _ in range(rows)])
    for r in range(rows):
        kind = draw(st.sampled_from(("plain", "cancel", "special")))
        if kind == "cancel":
            half = width // 2
            a[r, half : 2 * half] = -a[r, :half]
        elif kind == "special":
            a[r, draw(st.integers(0, width - 1))] = draw(st.sampled_from(_SPECIAL))
    cuts = draw(st.integers(1, 3))
    return a, np.array([[draw(st.integers(0, width)) for _ in range(cuts)] for _ in range(rows)])


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


@settings(deadline=None, max_examples=200)
@given(block=_blocks())
# Round half to even: 2^53 + 1 is a tie, broken by a later 2^-100.
@example(block=(np.array([[2.0**53, 1.0, 2.0**-100], [2.0**53 + 2.0, 1.0, 0.0]]),
                np.array([[2, 3], [2, 3]])))
# Exact cancellation across the exponent range gives +0.0.
@example(block=(np.array([[1e300, -1.0, 2.0**-1074, -1e300, 1.0, -(2.0**-1074)]]),
                np.array([[6, 0, 5]])))
# The sum of the q's needs the headroom: 1 - 1e-5 rounds on a grid of
# 2^-53 below sigma = 1, and 1 + 1e-5 on one of 2^-52 above it.
@example(block=(np.array([[1e-5, -1e-5, 1.0]]), np.array([[3]])))
# Subnormals only, and one-column rows.
@example(block=(np.array([[2.0**-1074], [-(2.0**-1073)], [-0.0]]), np.array([[1], [1], [0]])))
def test_fsum_rows_equals_math_fsum_on_each_row(block):
    a, cuts = block
    for ks in cuts.T.tolist():  # one count per row in each call
        want = [math.fsum(row[:k]) for row, k in zip(a.tolist(), ks)]
        assert _bits(_fsum_rows(a, ks)) == _bits(want)
    assert _bits(_fsum_rows(a)) == _bits([math.fsum(row) for row in a.tolist()])
