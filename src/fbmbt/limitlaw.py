"""Limiting-law constants and samplers for the correction term at H = 1/6.

The constants are built from S = sum over integer lags of rho(k)^3:

    kappa1 = kappa2 = sqrt(S / 96),   kappa3 = kappa4 = sqrt(S / 32).

The limiting correction for a path run to time t is the Ito integral

    sum_i kappa_i * int_0^t g_i(X_s) dB^i_s,

with (g_1, ..., g_4) = (f_xxx, f_yyy, f_xxy, f_xyy) evaluated along the
2-component fBm X and four independent standard Brownian motions B^i,
independent of X.  Both samplers take a list of seeds and return one value
per seed.  ``sample_correction_fbm`` draws a left-point Euler realization
of that integral.  ``sample_change_of_variable_rhs`` first draws the
Brownian time Y_t ~ N(0, t), integrates out to |Y_t|, and returns
f(X_{Y_t}) - f(X_0) minus that correction, f read at the ends of all seeds
in one array call.

Given X, the Euler sum sum_i kappa_i sum_k g_i(X_k) (B^i_{k+1} - B^i_k) is a
sum of independent centred normals, so it is exactly

    sqrt(h sum_k sum_i kappa_i^2 g_i(X_k)^2) * N,   N ~ N(0, 1) independent
    of X,

and it is drawn that way.  Being a centred normal given X and Y, the
correction has the same joint law with either orientation, so the side of 0
that Y_t falls on does not change its sign.  A sampler draws only the
components of X that it reads (``variations._components_read``): the
correction reads the integrands, the right-hand side f at the end as well.
When it reads none, every g_i is constant (f = x^3, say), the weight is one
number c, and the fsum of K copies of it is K * c, rounded once: no fGn is
drawn.

Euler grids use K = ``_euler_steps(|horizon|, mesh)`` uniform steps of exact
size h = |horizon| / K, so the grid always lands exactly on the endpoint; the
fBm marginals on the grid are exact (stationary-increment sampling), only the
integrand's intra-step variation is approximated.  X on the grid is the first
K increments of a unit-spacing fGn draw padded to the next power of two,
scaled by h^H (self-similarity), on the range [0, K].  It is drawn by
``fgn._path_draws``, the draw loop of every Monte Carlo estimator, so seeds
whose grids pad to the same size (every seed of the fixed clock, and
Brownian times of one power-of-two range of K) are rows of one fGn draw,
with one weight pass per chunk of rows whatever their K.  A zero horizon has K = 0 and h = 0, and
takes the same path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .calculus import Function2D
from .fgn import (
    H_SPECIAL,
    RhoSeriesResult,
    _path_draws,
    check_special_hurst,
    sum_rho_cubed,
)
from .rng import STREAM_B, STREAM_Y, keyed
from .variations import _VALUE, _components_read, _fsum_rows

# S = 1 + 2 s, with s the exactly rounded sum of rho(r)^3 over 1 <= r <= m.
# At m = 2^14, H = 1/6, s lies 3.1e-18 from the exact sum of its terms and the
# one-sided tail is below 4.8e-21, so together they stay under half an ulp of s
# (3.5e-18): every m >= 2^14 rounds to the same s, hence the same S and kappas
# as m = 10^6.  tests/test_limitlaw.py checks this certificate.
DEFAULT_SERIES_TRUNCATION = 1 << 14


@dataclass(frozen=True)
class KappaConstants:
    """The four weights of the limiting correction integral."""

    kappa1: float
    kappa2: float
    kappa3: float
    kappa4: float
    series: RhoSeriesResult

    @property
    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.kappa1, self.kappa2, self.kappa3, self.kappa4)


def kappa_constants(series: RhoSeriesResult) -> KappaConstants:
    check_special_hurst(series.H, "kappa constants")
    s = series.partial_sum
    k12 = math.sqrt(s / 96.0)
    k34 = math.sqrt(s / 32.0)
    return KappaConstants(kappa1=k12, kappa2=k12, kappa3=k34, kappa4=k34, series=series)


@functools.lru_cache(maxsize=1)
def default_kappas() -> KappaConstants:
    return kappa_constants(sum_rho_cubed(H_SPECIAL, DEFAULT_SERIES_TRUNCATION))


# Derivative multi-indices of the integrands g_i, in kappa order.
_INTEGRAND_TERMS = ((3, 0), (0, 3), (2, 1), (1, 2))
# What the Euler samplers read of X, as midpoint-sum terms for the read rule:
# the integrands along X, with no increment factor, and for the right-hand
# side f at the end as well.
_INTEGRAND_READS = tuple(((a,), (0, 0)) for a in _INTEGRAND_TERMS)
_RHS_READS = _INTEGRAND_READS + ((_VALUE, (0, 0)),)


def _euler_steps(length: float, mesh: float) -> int:
    """K = max(1, round(L / mesh)) Euler steps for a length L > 0; 0 for L = 0."""
    return max(1, round(length / mesh)) if length else 0


def _conditional_normal(h: float, total: float, seed: int) -> float:
    """sqrt(h * total) * N, N the seed's ``STREAM_B`` normal: the Euler value
    of the correction given the fsum ``total`` of the squared weights along
    X."""
    z = float(keyed(seed, STREAM_B).standard_normal())
    # sqrt(0) * z is -0.0 for z < 0; adding 0.0 makes it +0.0.
    return math.sqrt(h * total) * z + 0.0


def _euler_sum(
    f: Function2D,
    lengths: list[float],
    mesh: float,
    seeds: list[int],
    reads=_INTEGRAND_READS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Left-point Euler value of the correction integral over [0, length]
    for each seed and its length, drawn as one normal given X, along with
    the exact endpoint values of the two fBm components.

    A length L has K = ``_euler_steps(L, mesh)`` steps of size h = L / K,
    and h = 0 when L = 0.  X is the first K increments of a unit-spacing
    draw of K padded to a power of two, each row scaled by h^H, on the
    range [0, K]; ``fgn._path_draws`` draws the seeds whose K pad alike as
    rows of one fGn draw, and its kernel gives, per seed, the fsum of its
    own first K weights and X at step K.  Each seed's normal scales its own
    sum, so it is the one its seed gives alone.  Only the components that
    the midpoint-sum terms ``reads`` name are drawn; an unread one's end is
    0.0.  When none is read the weight is the constant c it takes at the
    origin, and a seed's sum is K * c, which is fsum([c] * K): the exact
    product, rounded once.  Returns (integral, x1_end, x2_end), one entry
    per seed; a zero length gives +0.0 for all three."""
    steps = [_euler_steps(length, mesh) for length in lengths]
    h = [length / k if k else 0.0 for length, k in zip(lengths, steps)]

    def weight(x1, x2):
        return sum(
            kappa**2 * np.asarray(g, dtype=np.float64) ** 2
            for kappa, g in zip(default_kappas().as_tuple,
                                f.partials_at(_INTEGRAND_TERMS, x1, x2))
        )

    def kernel(x1, x2, ranges):
        ks = ranges[:, 1]
        end = np.arange(len(ks)), ks
        total = _fsum_rows(weight(x1[:, :-1], x2[:, :-1]), ks)
        return np.stack([total, x1[end], x2[end]], axis=-1)

    components = _components_read(f, reads)
    if any(components):
        total, x1_end, x2_end = _path_draws(H_SPECIAL, 0, [(0, k) for k in steps], seeds,
                                            kernel, 3, [hr**H_SPECIAL for hr in h],
                                            components).T
    else:
        c = float(weight(0.0, 0.0))
        total, x1_end, x2_end = np.array([k * c for k in steps]), *np.zeros((2, len(seeds)))
    corr = [_conditional_normal(hr, s, seed) for hr, s, seed in zip(h, total.tolist(), seeds)]
    return np.array(corr), x1_end, x2_end


def _check_args(t: float, mesh: float) -> None:
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"time horizon must be finite and nonnegative, got {t}")
    if not (math.isfinite(mesh) and mesh > 0):
        raise ValueError(f"mesh must be finite and positive, got {mesh}")


def sample_correction_fbm(
    f: Function2D,
    t: float,
    mesh: float,
    seeds: list[int],
) -> np.ndarray:
    """Draws of the limiting correction for the fBm clock run to time t, one
    per seed."""
    _check_args(t, mesh)
    return _euler_sum(f, [t] * len(seeds), mesh, seeds)[0]


def sample_change_of_variable_rhs(
    f: Function2D,
    t: float,
    mesh: float,
    seeds: list[int],
) -> np.ndarray:
    """Draws of f(X_{Y_t}) - f(X_0) - correction for the Brownian-time
    clock, one per seed.  X is sampled on [0, |Y_t|], so by the reflection
    symmetry of fBm the draw has the law of the two-sided path restricted
    to the traversed side."""
    _check_args(t, mesh)
    y = [math.sqrt(t) * float(keyed(s, STREAM_Y).standard_normal()) if t else 0.0
         for s in seeds]
    corr, x1_end, x2_end = _euler_sum(f, [abs(v) for v in y], mesh, seeds, _RHS_READS)
    return f(x1_end, x2_end) - float(f(0.0, 0.0)) - corr
