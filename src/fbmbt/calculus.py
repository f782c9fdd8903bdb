"""Deterministic combinatorial kernels.

Probabilists' Hermite polynomials, the exact Hermite-basis expansion of
monomials, the midpoint (second-order-centered) odd-order Taylor coefficient
table, and a small catalog of smooth two-variable test functions, each one
evaluator of its partials up to total order three, which computes once what
the partials a caller asks for share, and two records of plain data: the
partials that vanish identically and the variables each partial depends on.

Integer powers of arrays are products: x^k is x * x * ... * x, multiplied
left to right (``_power``), whose bits IEEE multiplication defines, where
numpy's general ``pow`` is up to the C library and many times slower.
x^2 is the same product either way.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

MAX_TABLE_ORDER = 13


def _power(x, k: int):
    """x^k for k >= 1 as the left-to-right product x * x * ... * x; x
    itself for k = 1."""
    if k == 1:
        return x
    out = x * x
    for _ in range(k - 2):
        out *= x
    return out


def _powers(w, x, y, p: int, q: int):
    """w * x^p * y^q, multiplied in that order, each power a ``_power``
    product; a zero exponent skips its factor."""
    if p:
        w = w * _power(x, p)
    if q:
        w = w * _power(y, q)
    return w


def hermite_eval(q: int, x):
    """H_q(x), probabilists' convention: H_{q+1} = x H_q - q H_{q-1}."""
    if q < 0:
        raise ValueError(f"Hermite index must be >= 0, got {q}")
    x = np.asarray(x, dtype=np.float64)
    prev = np.ones_like(x)
    if q == 0:
        return prev if x.ndim else float(prev)
    cur = x.copy()
    for k in range(1, q):
        prev, cur = cur, x * cur - k * prev
    return cur if x.ndim else float(cur)


@dataclass(frozen=True)
class HermiteExpansion:
    """Exact coefficients of x^p in the Hermite basis."""

    coefficients: dict[int, Fraction]

    def evaluate(self, x) -> np.ndarray:
        """Reconstruct x^p through the expansion (floating point)."""
        x = np.asarray(x, dtype=np.float64)
        total = np.zeros_like(x)
        for q, c in self.coefficients.items():
            total += float(c) * hermite_eval(q, x)
        return total


@functools.lru_cache(maxsize=64)
def hermite_expand(p: int) -> HermiteExpansion:
    """x^p = sum_j p! / (j! (p-2j)! 2^j) H_{p-2j}(x), exact rationals, highest
    order first: the j-th coefficient counts the ways to pair 2j of p
    factors."""
    if p < 1:
        raise ValueError(f"power must be >= 1, got {p}")
    return HermiteExpansion({
        p - 2 * j: Fraction(math.factorial(p),
                            math.factorial(j) * math.factorial(p - 2 * j) * 2**j)
        for j in range(p // 2 + 1)
    })


@functools.lru_cache(maxsize=4)
def midpoint_taylor_table(max_order: int) -> dict[tuple[int, int], Fraction]:
    """The coefficients C(a1, a2) of the midpoint difference expansion,
    keyed by (a1, a2), for every total order up to ``max_order``, order by
    order and a1 ascending within an order:

    f(b,d) - f(a,c) = sum C(a1,a2) d^{a1,a2}f(midpoint) (b-a)^{a1} (d-c)^{a2},

    exact for polynomials up to ``max_order``.  About the midpoint m with
    D = (b-a, d-c), f(m + D/2) - f(m - D/2) = sum_k (1 - (-1)^k)/k!
    (D/2 . grad)^k f(m), so C(a1, a2) = 2^{1-(a1+a2)} / (a1! a2!) for an odd
    total and 0 for an even one.
    """
    if not 1 <= max_order <= MAX_TABLE_ORDER:
        raise ValueError(f"max_order must be in [1, {MAX_TABLE_ORDER}], got {max_order}")
    return {
        (a1, k - a1): Fraction(2 * (k % 2), 2**k * math.factorial(a1) * math.factorial(k - a1))
        for k in range(1, max_order + 1)
        for a1 in range(k + 1)
    }


# The partials a test function carries: every (a1, a2) of total order <= 3.
_KEYS = frozenset((a1, a2) for a1 in range(4) for a2 in range(4 - a1))


@dataclass(frozen=True)
class Function2D:
    """Smooth f(x, y) with all partials up to total order 3, evaluated by
    one call: ``_evaluate(keys, x, y)`` returns the (a1, a2) partials in
    ``keys`` at (x, y), in that order, computing the factors they share
    once.  The rest is data: ``_vanishing`` holds the partials that are
    identically zero, and ``_depends`` maps a partial to whether it depends
    on x and on y; a partial it leaves out depends on both."""

    name: str
    _evaluate: Callable
    _vanishing: frozenset = frozenset()
    _depends: dict[tuple[int, int], tuple[bool, bool]] = field(default_factory=dict)

    def __call__(self, x, y):
        return self._evaluate(((0, 0),), x, y)[0]

    def _check(self, keys) -> None:
        for a1, a2 in keys:
            if (a1, a2) not in _KEYS:
                raise ValueError(
                    f"test function {self.name!r} carries partials up to total order 3, "
                    f"requested ({a1},{a2})"
                )

    def partials_at(self, keys, x, y) -> list:
        """The (a1, a2) partials in ``keys`` evaluated at (x, y), in that
        order, each bit for bit what it is when evaluated alone."""
        self._check(keys)
        return self._evaluate(keys, x, y)

    def vanishes(self, a1: int, a2: int) -> bool:
        """True when the (a1, a2) partial is identically zero."""
        self._check([(a1, a2)])
        return (a1, a2) in self._vanishing

    def depends(self, a1: int, a2: int) -> tuple[bool, bool]:
        """Whether the (a1, a2) partial depends on x and whether it depends
        on y: neither when it vanishes."""
        if self.vanishes(a1, a2):
            return False, False
        return self._depends.get((a1, a2), (True, True))


def _sin_x_cos_y_function() -> Function2D:
    """sin(x) cos(y): each partial is +-(sin or cos of x) * (sin or cos of y).

    d/dx cycles sin -> cos -> -sin -> -cos and d/dy cycles cos -> -sin ->
    -cos -> sin.  Products commute and negation is exact, so the order of
    the factors and the sign changes no bit.  Several partials at the same
    points share sin x, cos x, sin y and cos y, each evaluated once.
    """

    def rule(a1: int, a2: int) -> tuple[Callable, Callable, float]:
        fx = np.sin if a1 % 2 == 0 else np.cos
        fy = np.cos if a2 % 2 == 0 else np.sin
        return fx, fy, -1.0 if (a1 >= 2) != (a2 in (1, 2)) else 1.0

    rules = {key: rule(*key) for key in _KEYS}

    def evaluate(keys, x, y) -> list:
        xs, ys, out = {}, {}, []
        for key in keys:
            fx, fy, sign = rules[key]
            if fx not in xs:
                xs[fx] = fx(x)
            if fy not in ys:
                ys[fy] = fy(y)
            out.append(sign * (xs[fx] * ys[fy]))
        return out

    return Function2D("sin_x_cos_y", evaluate)


def _bump_function() -> Function2D:
    """Compactly supported bump h(s) = exp(-1/(1 - s)), s = (x^2 + y^2)/4, on
    r < 2, zero outside.

    With w = 1/(1 - s): h' = -w^2 h, h'' = (w^4 - 2w^3) h and
    h^(3) = (-w^6 + 6w^5 - 6w^4) h.  Since s is quadratic,
    d^a/dx^a h(s) = sum_i c(a, i) x^(a-2i) h^(a-i)(s) with
    c(a, i) = a! / (i! (a-2i)!) 2^-a, and likewise in y; the factors
    x^(a-2i) y^(b-2j) are ``_powers`` products.
    """
    chain = (lambda w: 1.0, lambda w: -(w**2), lambda w: w**4 - 2.0 * w**3,
             lambda w: -(w**6) + 6.0 * w**5 - 6.0 * w**4)
    c = {(a, i): math.factorial(a) / (math.factorial(i) * math.factorial(a - 2 * i) * 2**a)
         for a in range(4) for i in range(a // 2 + 1)}
    terms = {(a1, a2): [(c[a1, i] * c[a2, j], a1 - 2 * i, a2 - 2 * j, a1 + a2 - i - j)
                        for i in range(a1 // 2 + 1) for j in range(a2 // 2 + 1)]
             for a1, a2 in _KEYS}

    def evaluate(keys, xv, yv) -> list:
        xb, yb = np.broadcast_arrays(
            np.asarray(xv, dtype=np.float64), np.asarray(yv, dtype=np.float64)
        )
        out = [np.zeros(xb.shape) for _ in keys]
        mask = xb**2 + yb**2 < 4.0 - 1e-12
        if mask.any():
            x, y = xb[mask], yb[mask]
            w = 4.0 / (4.0 - (x**2 + y**2))
            e = np.exp(-w)
            h = functools.cache(lambda k: chain[k](w))
            for key, deriv in zip(keys, out):
                deriv[mask] = e * sum(
                    _powers(coef, x, y, px, py) * h(k) for coef, px, py, k in terms[key]
                )
        return [deriv if deriv.ndim else float(deriv) for deriv in out]

    return Function2D("bump", evaluate)


def _monomial_function(a: int, b: int) -> Function2D:
    """x^a y^b: the (a1, a2) partial is a!/(a-a1)! b!/(b-a2)! times the
    ``_powers`` product x^(a-a1) y^(b-a2), zero when a1 > a or a2 > b."""
    live = {(a1, a2): (np.float64(math.perm(a, a1) * math.perm(b, a2)), a - a1, b - a2)
            for a1, a2 in _KEYS if a1 <= a and a2 <= b}

    def evaluate(keys, x, y) -> list:
        x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
        shape = np.broadcast_shapes(x.shape, y.shape)
        out = []
        for key in keys:
            if key not in live:
                out.append(np.zeros(shape))
                continue
            coef, p, q = live[key]
            w = _powers(coef, x, y, p, q)
            # A skipped factor x^0 or y^0 would have broadcast w: a constant
            # partial is its one value, broadcast without a copy.
            out.append(w if np.shape(w) == shape else np.broadcast_to(w, shape))
        return out

    depends = {key: (a > key[0], b > key[1]) for key in _KEYS}
    return Function2D(_monomial_name(a, b), evaluate, _KEYS - live.keys(), depends)


def _monomial_name(a: int, b: int) -> str:
    if a == 0 and b == 0:
        return "1"
    parts = []
    if a:
        parts.append("x" if a == 1 else f"x^{a}")
    if b:
        parts.append("y" if b == 1 else f"y^{b}")
    return "*".join(parts)


@functools.lru_cache(maxsize=1)
def _catalog() -> dict[str, Function2D]:
    cat: dict[str, Function2D] = {}
    for a in range(6):
        for b in range(6 - a):
            fn = _monomial_function(a, b)
            cat[fn.name] = fn
    cat["sin_x_cos_y"] = _sin_x_cos_y_function()
    cat["bump"] = _bump_function()
    return cat


def function_names() -> list[str]:
    return sorted(_catalog())


def get_test_function(name: str) -> Function2D:
    try:
        return _catalog()[name]
    except KeyError:
        raise ValueError(
            f"unknown test function {name!r}; available: {', '.join(function_names())}"
        ) from None
