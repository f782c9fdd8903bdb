"""Discrete variation functionals along the fBm grid and the walk skeleton,
evaluated on blocks of rows.

Every functional here is one midpoint sum: a term per increment, partials of
the smooth weight evaluated at the coordinate-wise midpoint of the
increment, times factors of the increment, accumulated with one correctly
rounded sum (``_fsum_rows``).  One kernel, ``_midpoint_sums``, computes the
midpoints and increments of a block of paths once and evaluates a table of
(partials, increment exponents) terms on them, the live partials from one
evaluator call; a term whose partials vanish identically (recorded as data
with each catalog function) is 0.0 without being evaluated.  That record,
with which variables each partial depends on, decides which of X^1 and X^2
a table of terms reads (``_components_read``), and an estimator draws only
those.  A block holds one path per row, along the last axis; a ragged
block, whose rows hold paths of different lengths, passes the kernel one
term count per row.  Each row's sum is its own correctly rounded sum, bit
for bit its ``math.fsum``, computed for the whole block at once by
error-free extraction (Rump, Ogita and Oishi 2008; see ``_fsum_rows``), so
a row's value does not depend on the rows it shares a block with.
Increment powers d^p are products d * d * ... * d, multiplied left to
right (``calculus._powers``), as are the monomials' own powers.  The
gradient and third-order sums take their terms and coefficients from
``midpoint_taylor_table``.  What a row holds decides the statistic:

* the fixed clock: the grid values at ``j = 0 .. m`` with
  ``m = floor(2**(n/2) * t)``;
* the skeleton: the values at the first ``floor(2**n * t)`` walk
  positions, each step contributing the fBm increment over the spatial
  edge it traverses;
* one-sided: the values from index 0 out to a signed spatial horizon
  ``y``, the negative side read through the mirrored path ``t -> X_{-t}``.

For odd p + q the up and down traversals of an edge cancel, so a skeleton
sum equals, by the closed form for the net number of traversals of each
edge, sign(j*) times the sum read forward along the fBm on
[min(0, j*), max(0, j*)], j* the walk's terminal position.  That is bit for
bit the one-sided sum at ``y = j* 2**(-n/2)`` read along the mirrored path:
reversing a path negates every increment and keeps every midpoint, so each
term of an odd-order sum, and its correctly rounded sum, flips sign
exactly.  The Brownian-clock estimators therefore take sign(j*) times
``_taylor_sum`` on a drawn j*, and need no walk.  At H = 1/6 the
third-order sum splits exactly into its Wiener-chaos components K1..K4
(``_chaos_components``) and a trace remainder (``_trace_remainder``), and
a power sum rebuilt from Hermite expansions (``_hermite_sum``) equals the
direct one up to roundoff; the identity suite (``experiments``) checks
these, one pass per block.  The per-path forms, on one path and one walk,
are kept as test oracles (``tests/test_variations.py``).
"""
from __future__ import annotations

import math

import numpy as np

from .calculus import (
    Function2D,
    _powers,
    hermite_eval,
    hermite_expand,
    midpoint_taylor_table,
)
from .fgn import H_SPECIAL

# Midpoint Taylor coefficients C(a1, a2) up to order three.
_TAYLOR = midpoint_taylor_table(3)
# The partials of a power sum's weight: f itself.
_VALUE = ((0, 0),)


def _taylor_terms(order: int) -> list:
    """The (partials, exponents) terms of the order-``order`` Taylor sum: the
    a-th partial times d1^a1 d2^a2 for each |a| = order."""
    return [((a,), a) for a in _TAYLOR if sum(a) == order]


def _components_read(f: Function2D, terms) -> tuple[bool, bool]:
    """Whether a midpoint sum of ``terms`` reads X^1 and whether it reads
    X^2.  A term is live when its partials do not all vanish identically;
    a component is read when some live term has a nonzero increment
    exponent on it, or when some live partial depends on its variable
    (``Function2D.depends``).  An unread component may be any path,
    zeros say, without moving a bit of the sum: its increments enter only
    as skipped factors d^0, its midpoints only through partials that do not
    read them."""
    live = [(partials, pq) for partials, pq in terms
            if not all(f.vanishes(*a) for a in partials)]
    return tuple(any(pq[i] or any(f.depends(*a)[i] for a in partials) for partials, pq in live)
                 for i in (0, 1))


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
    return _grid_count(2 * level, t)


def _fsum_rows(a: np.ndarray, counts=None):
    """The correctly rounded sum along the last axis, ``math.fsum``'s bits:
    a float for one row, an array of one sum per row for a 2-D block of
    rows.  ``counts``, one per row, sums only the first counts[r] entries of
    row r.

    One row is ``math.fsum`` itself.  A block is summed by error-free
    extraction (Rump, Ogita and Oishi, "Accurate floating-point summation,
    Part I", SIAM J. Sci. Comput. 31(1), 2008, ``ExtractVector``), with no
    Python loop over its rows.  The entries past a row's count are set to
    0.0, which moves no exact sum.  With max|x| <= 2^e and L the number of
    columns summed, sigma = 2^(e + bit_length(L + 1)) splits each x into
    q = (sigma + x) - sigma and r = x - q, both exact; the q are multiples of
    sigma 2^-53 whose sum stays below sigma, so any order of summing them,
    numpy's pairwise sum included, is exact.  A second round splits r with
    sigma * 2^(bit_length(L + 1) - 53).  A row's sum is then exactly
    tau1 + tau2 + the remainders, and a correctly rounded sum is unique: a
    row with no nonzero remainder is the one rounded addition tau1 + tau2,
    any other the ``math.fsum`` of its two taus and its few remainders.  A
    row whose max|x| is not finite or lies outside [2^-900, 2^900], an
    all-zero row included, is summed by ``math.fsum`` itself."""
    if a.ndim == 1:
        return math.fsum(a.tolist())
    counts = np.full(len(a), a.shape[1]) if counts is None else np.asarray(counts, dtype=np.intp)
    width = int(counts.max(initial=0))
    if not width:
        return np.zeros(len(a))
    x = a[:, :width]
    if counts.min() < width:
        x = np.where(np.arange(width) < counts[:, None], x, 0.0)
    top = np.abs(x).max(axis=1)
    fallback = ~((top >= 2.0**-900) & (top <= 2.0**900))
    if fallback.any():
        x = np.where(fallback[:, None], 0.0, x)
    mantissa, exponent = np.frexp(top)
    headroom = (width + 1).bit_length()
    sigma = np.ldexp(1.0, exponent - (mantissa == 0.5) + headroom)[:, None]
    q = x + sigma
    q -= sigma
    x = x - q
    tau1 = q.sum(axis=1)
    sigma *= 2.0 ** (headroom - 53)
    np.add(x, sigma, out=q)
    q -= sigma
    x -= q
    tau2 = q.sum(axis=1)
    out = tau1 + tau2
    flat = np.flatnonzero(x != 0.0)
    if flat.size:
        where = flat // width
        starts = np.flatnonzero(np.diff(where, prepend=-1))
        left, tau1, tau2 = x.ravel()[flat].tolist(), tau1.tolist(), tau2.tolist()
        for r, lo, hi in zip(where[starts].tolist(), starts.tolist(),
                             starts[1:].tolist() + [flat.size]):
            out[r] = math.fsum([tau1[r], tau2[r], *left[lo:hi]])
    for r in np.flatnonzero(fallback).tolist():
        out[r] = math.fsum(a[r, : counts[r]].tolist())
    return out


def _midpoint_sums(
    f: Function2D, v1: np.ndarray, v2: np.ndarray, terms, factor=_powers, counts=None
) -> list:
    """One fsum per (partials, (p, q)) term along paired value arrays: the
    term's partials of f summed at the increment midpoints, times
    ``factor(weight, d1, d2, p, q)``.

    Paths run along the last axis; a 2-D block of paths gives each term an
    array of one sum per row.  A ragged block gives ``counts``, one term
    count per row: row r is a path of counts[r] + 1 values and sums only its
    first counts[r] terms, whatever its tail holds.  Midpoints, increments
    and each live partial (one ``partials_at`` call) are computed once for
    all terms.  A term whose partials all vanish identically is left at
    0.0, the exact value of its sum, without being evaluated.
    """
    sums = [np.zeros(v1.shape[:-1]) if v1.ndim > 1 else 0.0] * len(terms)
    if v1.shape[-1] < 2:
        return sums
    mid1 = 0.5 * (v1[..., :-1] + v1[..., 1:])
    mid2 = 0.5 * (v2[..., :-1] + v2[..., 1:])
    d1, d2 = v1[..., 1:] - v1[..., :-1], v2[..., 1:] - v2[..., :-1]
    live = list(dict.fromkeys(a for partials, _ in terms for a in partials if not f.vanishes(*a)))
    values = dict(zip(live, f.partials_at(live, mid1, mid2)))
    for i, (partials, (p, q)) in enumerate(terms):
        weights = [values[a] for a in partials if a in values]
        if weights:
            sums[i] = _fsum_rows(factor(sum(weights[1:], weights[0]), d1, d2, p, q), counts)
    return sums


def _taylor_sum(f: Function2D, v1: np.ndarray, v2: np.ndarray, order: int,
                counts=None) -> float:
    """Order-``order`` part of the midpoint expansion of f along the path:
    fsum of C(a) * d^a f(midpoint) * d1^a1 * d2^a2 over |a| = order.
    ``counts`` is ``_midpoint_sums``' per-row term count."""
    terms = _taylor_terms(order)
    sums = _midpoint_sums(f, v1, v2, terms, counts=counts)
    return _fsum_rows(np.stack([float(_TAYLOR[a]) * s for (_, a), s in zip(terms, sums)], axis=-1))


def _power_sum(f: Function2D, v1: np.ndarray, v2: np.ndarray, p: int, q: int,
               counts=None) -> float:
    """fsum of f(midpoint) * d1^p * d2^q along the path.  ``counts`` is
    ``_midpoint_sums``' per-row term count."""
    return _midpoint_sums(f, v1, v2, [(_VALUE, (p, q))], counts=counts)[0]


# ---------------------------------------------------------------------------
# Hermite and Wiener-chaos forms, on blocks of rows whose increments have
# their own standard deviation per row.  A per-row power s**-k is a Python
# float power, computed before it is stacked into a column, so each row has
# the bits its path gives alone.


def _row_scales(scales, orders) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """``scales`` as a column, one row each, and for each k in ``orders``
    the column of their Python-float powers s**-k."""
    def column(values):
        return np.array(values, dtype=np.float64)[:, None]

    return column(scales), {k: column([s**-k for s in scales]) for k in orders}


def _hermite_sum(f: Function2D, v1: np.ndarray, v2: np.ndarray, p: int, q: int,
                 scales, counts=None) -> np.ndarray:
    """``_power_sum`` with each increment power d^k rebuilt from its exact
    Hermite-basis expansion as s^-k sum_j c_j H_j(d s), row r at
    s = ``scales[r]``, the inverse standard deviation 2^(nH/2) of its
    increments: equal to the direct sum up to roundoff by construction."""
    scale, inverse = _row_scales(scales, (p, q))

    def rebuilt(w, d1, d2, p, q):
        for d, power in ((d1, p), (d2, q)):
            if power:
                w = w * hermite_expand(power).evaluate(d * scale) * inverse[power]
        return w

    return _midpoint_sums(f, v1, v2, [(_VALUE, (p, q))], rebuilt, counts)[0]


# The third-order terms, in the order of the chaos components K1..K4.
_CHAOS = ((3, 0), (0, 3), (1, 2), (2, 1))


def _chaos_components(f: Function2D, v1: np.ndarray, v2: np.ndarray, levels,
                      counts=None) -> list[np.ndarray]:
    """Chaos-projected pieces K1..K4 of the third-order sum at H = 1/6, row
    r on a level-``levels[r]`` path.

    Each increment power is replaced by its top Wiener-chaos part,
    ``I_q(delta^{tensor q}) = sd^q * H_q(increment / sd)`` with
    ``sd = 2**(-n H / 2)`` the increment standard deviation.
    """
    inv_sd, sd_powers = _row_scales([2.0 ** (n * H_SPECIAL / 2.0) for n in levels], (2, 3))

    def top_chaos(d: np.ndarray, order: int):
        if order < 2:
            return d if order else 1.0
        return hermite_eval(order, d * inv_sd) * sd_powers[order]

    sums = _midpoint_sums(
        f, v1, v2, [((a,), a) for a in _CHAOS],
        lambda w, d1, d2, p, q: w * (top_chaos(d1, p) * top_chaos(d2, q)), counts,
    )
    return [s / float(1 / _TAYLOR[a]) for a, s in zip(_CHAOS, sums)]


def _trace_remainder(f: Function2D, v1: np.ndarray, v2: np.ndarray, levels,
                     counts=None) -> np.ndarray:
    """Trace remainder of the chaos projection at H = 1/6, row r on a
    level-``levels[r]`` path: the lower-chaos part left over when the
    increment cubes and squares in the third-order sum are projected onto
    their top chaos."""
    s1, s2 = _midpoint_sums(
        f, v1, v2, ((((3, 0), (1, 2)), (1, 0)), (((0, 3), (2, 1)), (0, 1))), counts=counts
    )
    return np.array([0.125 * 2.0 ** (-n * H_SPECIAL) for n in levels]) * (s1 + s2)
