"""Discrete variation functionals along the fBm grid and the walk skeleton.

All sums follow one convention: a term per increment, the smooth weight
evaluated at the coordinate-wise midpoint of the increment, accumulation with
``math.fsum``.  Three families live here:

* grid statistics over consecutive dyadic indices ``j = 0 .. m-1`` with
  ``m = floor(2**(n/2) * t)``;
* skeleton statistics over the first ``floor(2**n * t)`` walk steps, each
  step contributing the fBm increment over the spatial edge it traverses;
* one-sided edge statistics ``w_pq`` / ``w3`` / ``w_grad`` indexed by a
  signed spatial horizon ``y``, the negative side read through the mirrored
  path ``t -> X_{-t}``.

``kl_reduce`` rewrites a skeleton sum as a signed one-sided sum using the
closed form for the net number of traversals of each edge, which only
depends on the walk through its terminal position j*.  The one-sided forms
at ``y = j* 2**(-n/2)`` are therefore the skeleton sums themselves, and need
no walk: the Brownian-clock estimators evaluate them on a drawn j*, while
the walk-based forms remain as oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import TestFunction2D, hermite_eval, hermite_expand
from .fgn import FbmGridPath2D, check_special_hurst
from .skeleton import SkeletonPath

# Midpoint Taylor coefficients attached to each third-order term: exponent
# pair -> (coefficient, derivative multi-index).
_THIRD_ORDER_TERMS = (
    ((3, 0), 1.0 / 24.0),
    ((0, 3), 1.0 / 24.0),
    ((1, 2), 1.0 / 8.0),
    ((2, 1), 1.0 / 8.0),
)


@dataclass(frozen=True)
class VariationStatistic:
    """One evaluated functional: what it is, on what data, and its value."""

    kind: str
    value: float
    function: str
    level: int
    horizon: float
    exponents: tuple[int, int] | None = None


def _check_exponents(p: int, q: int) -> tuple[int, int]:
    if p < 0 or q < 0:
        raise ValueError(f"exponents must be nonnegative, got ({p}, {q})")
    if (p + q) % 2 == 0:
        raise ValueError(f"exponent total p + q must be odd, got ({p}, {q})")
    return int(p), int(q)


def _grid_count(level: int, t: float) -> int:
    if t < 0:
        raise ValueError(f"horizon must be nonnegative, got {t}")
    return int(math.floor(2.0 ** (level / 2.0) * t))


def _step_count(level: int, t: float) -> int:
    if t < 0:
        raise ValueError(f"horizon must be nonnegative, got {t}")
    return int(math.floor(2.0**level * t))


def _series(weight, v1: np.ndarray, v2: np.ndarray, p: int, q: int) -> float:
    """fsum of weight(midpoints) * d1^p * d2^q along paired value arrays."""
    if len(v1) < 2:
        return 0.0
    mid1 = 0.5 * (v1[:-1] + v1[1:])
    mid2 = 0.5 * (v2[:-1] + v2[1:])
    terms = np.asarray(weight(mid1, mid2), dtype=np.float64)
    if p:
        terms = terms * np.diff(v1) ** p
    if q:
        terms = terms * np.diff(v2) ** q
    return math.fsum(np.broadcast_to(terms, mid1.shape))


def _gradient_series(f: TestFunction2D, v1: np.ndarray, v2: np.ndarray) -> float:
    """fsum of grad f(midpoint) . (d1, d2) along paired value arrays."""
    return _series(f.partial(1, 0), v1, v2, 1, 0) + _series(f.partial(0, 1), v1, v2, 0, 1)


def _third_order_series(f: TestFunction2D, v1: np.ndarray, v2: np.ndarray) -> float:
    """Midpoint-weighted third-order sum: sum of C(p,q) terms with the
    matching third partial as weight."""
    return math.fsum(
        coef * _series(f.partial(p, q), v1, v2, p, q)
        for (p, q), coef in _THIRD_ORDER_TERMS
    )


def _grid_values(path: FbmGridPath2D, m: int) -> tuple[np.ndarray, np.ndarray]:
    return path.segment(1, 0, m), path.segment(2, 0, m)


def o_n(f: TestFunction2D, path: FbmGridPath2D, t: float) -> VariationStatistic:
    """Midpoint gradient Riemann sum of f along the grid path up to time t."""
    m = _grid_count(path.level, t)
    v1, v2 = _grid_values(path, m)
    return VariationStatistic(
        kind="O", value=_gradient_series(f, v1, v2), function=f.name,
        level=path.level, horizon=float(t),
    )


def v_pq(
    f: TestFunction2D, path: FbmGridPath2D, t: float, p: int, q: int
) -> VariationStatistic:
    """Weighted (p,q)-power variation, p + q odd."""
    p, q = _check_exponents(p, q)
    m = _grid_count(path.level, t)
    v1, v2 = _grid_values(path, m)
    return VariationStatistic(
        kind="V", value=_series(f, v1, v2, p, q), function=f.name,
        level=path.level, horizon=float(t), exponents=(p, q),
    )


def v_pq_hermite(
    f: TestFunction2D, path: FbmGridPath2D, t: float, p: int, q: int
) -> VariationStatistic:
    """Same statistic as ``v_pq`` with each increment power rebuilt from its
    exact Hermite-basis expansion; equal up to roundoff by construction."""
    p, q = _check_exponents(p, q)
    m = _grid_count(path.level, t)
    v1, v2 = _grid_values(path, m)
    if m == 0:
        value = 0.0
    else:
        scale = 2.0 ** (path.level * path.H / 2.0)
        mid1 = 0.5 * (v1[:-1] + v1[1:])
        mid2 = 0.5 * (v2[:-1] + v2[1:])
        terms = np.broadcast_to(
            np.asarray(f(mid1, mid2), dtype=np.float64), mid1.shape
        ).copy()
        for power, v in ((p, v1), (q, v2)):
            if power:
                terms = terms * hermite_expand(power).evaluate(
                    np.diff(v) * scale
                ) * scale**-power
        value = math.fsum(terms)
    return VariationStatistic(
        kind="V_hermite", value=value, function=f.name,
        level=path.level, horizon=float(t), exponents=(p, q),
    )


def v3(f: TestFunction2D, path: FbmGridPath2D, t: float) -> VariationStatistic:
    """Third-order midpoint correction sum: the order-3 part of the midpoint
    expansion of f(path end) - f(path start) along the grid."""
    m = _grid_count(path.level, t)
    v1, v2 = _grid_values(path, m)
    return VariationStatistic(
        kind="V3", value=_third_order_series(f, v1, v2), function=f.name,
        level=path.level, horizon=float(t),
    )


def k_components(
    f: TestFunction2D, path: FbmGridPath2D, t: float
) -> tuple[VariationStatistic, ...]:
    """Chaos-projected pieces K1..K4 of the third-order sum at H = 1/6.

    Each increment power is replaced by its top Wiener-chaos part,
    ``I_q(delta^{tensor q}) = sd^q * H_q(increment / sd)`` with
    ``sd = 2**(-n H / 2)`` the increment standard deviation.
    """
    check_special_hurst(path.H, "k_components")
    m = _grid_count(path.level, t)
    v1, v2 = _grid_values(path, m)
    n, H = path.level, path.H
    inv_sd = 2.0 ** (n * H / 2.0)

    def chaos(v: np.ndarray, order: int) -> np.ndarray:
        return hermite_eval(order, np.diff(v) * inv_sd) * inv_sd**-order

    if m == 0:
        k_vals = (0.0, 0.0, 0.0, 0.0)
    else:
        mid1 = 0.5 * (v1[:-1] + v1[1:])
        mid2 = 0.5 * (v2[:-1] + v2[1:])

        def weighted(a1: int, a2: int, factor: np.ndarray) -> float:
            w = np.asarray(f.partial(a1, a2)(mid1, mid2), dtype=np.float64)
            return math.fsum(np.broadcast_to(w * factor, mid1.shape))

        k_vals = (
            weighted(3, 0, chaos(v1, 3)) / 24.0,
            weighted(0, 3, chaos(v2, 3)) / 24.0,
            weighted(1, 2, np.diff(v1) * chaos(v2, 2)) / 8.0,
            weighted(2, 1, chaos(v1, 2) * np.diff(v2)) / 8.0,
        )
    return tuple(
        VariationStatistic(
            kind=f"K{i + 1}", value=val, function=f.name,
            level=n, horizon=float(t),
        )
        for i, val in enumerate(k_vals)
    )


def p_n(f: TestFunction2D, path: FbmGridPath2D, t: float) -> VariationStatistic:
    """Trace remainder of the chaos projection at H = 1/6: the lower-chaos
    part left over when the increment cubes and squares in the third-order
    sum are projected onto their top chaos."""
    check_special_hurst(path.H, "p_n")
    m = _grid_count(path.level, t)
    v1, v2 = _grid_values(path, m)
    n, H = path.level, path.H
    var = 2.0 ** (-n * H)

    def combined(a_pair, b_pair):
        fa, fb = f.partial(*a_pair), f.partial(*b_pair)
        return lambda x, y: np.asarray(fa(x, y), dtype=np.float64) + np.asarray(
            fb(x, y), dtype=np.float64
        )

    value = 0.125 * var * (
        _series(combined((3, 0), (1, 2)), v1, v2, 1, 0)
        + _series(combined((0, 3), (2, 1)), v1, v2, 0, 1)
    )
    return VariationStatistic(
        kind="P", value=value, function=f.name, level=n, horizon=float(t)
    )


# ---------------------------------------------------------------------------
# Skeleton statistics


def _skeleton_values(
    fbm: FbmGridPath2D, walk: SkeletonPath, m: int
) -> tuple[np.ndarray, np.ndarray]:
    if fbm.level != walk.level:
        raise ValueError(
            f"fBm grid level {fbm.level} != walk level {walk.level}"
        )
    if m > walk.steps:
        raise ValueError(f"horizon needs {m} walk steps, walk has {walk.steps}")
    idx = walk.positions[: m + 1]
    lo, hi = int(idx.min()), int(idx.max())
    if lo < fbm.j_min or hi > fbm.j_max:
        raise ValueError(
            f"walk visits grid range [{lo}, {hi}] but the fBm grid covers "
            f"[{fbm.j_min}, {fbm.j_max}]"
        )
    pos = idx - fbm.j_min
    return fbm.values1[pos], fbm.values2[pos]


def o_tilde_n(
    f: TestFunction2D, fbm: FbmGridPath2D, walk: SkeletonPath, t: float
) -> VariationStatistic:
    """Midpoint gradient sum of f along the time-changed path: one term per
    walk step, weighted at the midpoint of the fBm increment it traverses."""
    m = _step_count(walk.level, t)
    v1, v2 = _skeleton_values(fbm, walk, m)
    return VariationStatistic(
        kind="O_tilde", value=_gradient_series(f, v1, v2), function=f.name,
        level=walk.level, horizon=float(t),
    )


def v_tilde_pq(
    f: TestFunction2D,
    fbm: FbmGridPath2D,
    walk: SkeletonPath,
    t: float,
    p: int,
    q: int,
) -> VariationStatistic:
    """Weighted (p,q)-variation along the time-changed path, p + q odd."""
    p, q = _check_exponents(p, q)
    m = _step_count(walk.level, t)
    v1, v2 = _skeleton_values(fbm, walk, m)
    return VariationStatistic(
        kind="V_tilde", value=_series(f, v1, v2, p, q), function=f.name,
        level=walk.level, horizon=float(t), exponents=(p, q),
    )


def v_tilde_3(
    f: TestFunction2D, fbm: FbmGridPath2D, walk: SkeletonPath, t: float
) -> VariationStatistic:
    """Third-order midpoint correction sum along the time-changed path."""
    m = _step_count(walk.level, t)
    v1, v2 = _skeleton_values(fbm, walk, m)
    return VariationStatistic(
        kind="V_tilde3", value=_third_order_series(f, v1, v2), function=f.name,
        level=walk.level, horizon=float(t),
    )


# ---------------------------------------------------------------------------
# One-sided edge statistics and the crossing reduction


def _one_sided_values(
    fbm: FbmGridPath2D, y: float
) -> tuple[np.ndarray, np.ndarray]:
    """Path values from index 0 outward toward ``y`` (mirrored when y < 0)."""
    m = _grid_count(fbm.level, abs(y))
    if y >= 0:
        return fbm.segment(1, 0, m), fbm.segment(2, 0, m)
    return fbm.segment(1, -m, 0)[::-1], fbm.segment(2, -m, 0)[::-1]


def w_pq(
    f: TestFunction2D, fbm: FbmGridPath2D, y: float, p: int, q: int
) -> VariationStatistic:
    """One-sided weighted (p,q)-variation out to signed spatial horizon y."""
    p, q = _check_exponents(p, q)
    v1, v2 = _one_sided_values(fbm, y)
    return VariationStatistic(
        kind="W", value=_series(f, v1, v2, p, q), function=f.name,
        level=fbm.level, horizon=float(y), exponents=(p, q),
    )


def w3(f: TestFunction2D, fbm: FbmGridPath2D, y: float) -> VariationStatistic:
    """One-sided third-order midpoint correction sum out to horizon y."""
    v1, v2 = _one_sided_values(fbm, y)
    return VariationStatistic(
        kind="W3", value=_third_order_series(f, v1, v2), function=f.name,
        level=fbm.level, horizon=float(y),
    )


def w_grad(f: TestFunction2D, fbm: FbmGridPath2D, y: float) -> VariationStatistic:
    """One-sided midpoint gradient sum out to horizon y."""
    v1, v2 = _one_sided_values(fbm, y)
    return VariationStatistic(
        kind="W_grad", value=_gradient_series(f, v1, v2), function=f.name,
        level=fbm.level, horizon=float(y),
    )


def _reduced_segment(
    fbm: FbmGridPath2D, walk: SkeletonPath, t: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """Grid values spanning [min(0, j*), max(0, j*)] and the sign of j*,
    where j* is the walk position at the horizon."""
    if fbm.level != walk.level:
        raise ValueError(
            f"fBm grid level {fbm.level} != walk level {walk.level}"
        )
    m = _step_count(walk.level, t)
    if m > walk.steps:
        raise ValueError(f"horizon needs {m} walk steps, walk has {walk.steps}")
    j_star = int(walk.positions[m])
    lo, hi = min(0, j_star), max(0, j_star)
    return fbm.segment(1, lo, hi), fbm.segment(2, lo, hi), (
        1 if j_star > 0 else -1 if j_star < 0 else 0
    )


def kl_reduce(
    f: TestFunction2D,
    fbm: FbmGridPath2D,
    walk: SkeletonPath,
    t: float,
    p: int,
    q: int,
) -> VariationStatistic:
    """Skeleton (p,q)-variation via the net-crossing closed form.

    For odd p + q the up and down traversals of an edge contribute with
    opposite signs, so the skeleton sum collapses to the edges between 0 and
    the terminal walk position, counted once with the sign of the terminal
    side.  Equals ``v_tilde_pq`` exactly (up to summation order).
    """
    p, q = _check_exponents(p, q)
    v1, v2, sign = _reduced_segment(fbm, walk, t)
    value = sign * _series(f, v1, v2, p, q) if sign else 0.0
    return VariationStatistic(
        kind="V_tilde_reduced", value=value, function=f.name,
        level=walk.level, horizon=float(t), exponents=(p, q),
    )


def o_tilde_reduced(
    f: TestFunction2D, fbm: FbmGridPath2D, walk: SkeletonPath, t: float
) -> VariationStatistic:
    """``o_tilde_n`` via the same net-crossing collapse (gradient weights)."""
    v1, v2, sign = _reduced_segment(fbm, walk, t)
    value = sign * _gradient_series(f, v1, v2) if sign else 0.0
    return VariationStatistic(
        kind="O_tilde_reduced", value=value, function=f.name,
        level=walk.level, horizon=float(t),
    )


def v_tilde_3_reduced(
    f: TestFunction2D, fbm: FbmGridPath2D, walk: SkeletonPath, t: float
) -> VariationStatistic:
    """``v_tilde_3`` via the net-crossing collapse (third-order weights)."""
    v1, v2, sign = _reduced_segment(fbm, walk, t)
    value = sign * _third_order_series(f, v1, v2) if sign else 0.0
    return VariationStatistic(
        kind="V_tilde3_reduced", value=value, function=f.name,
        level=walk.level, horizon=float(t),
    )
