import math
from fractions import Fraction

import numpy as np
import pytest

from fbmbt import calculus
from fbmbt.calculus import (
    _power,
    _powers,
    function_names,
    get_test_function,
    hermite_eval,
    hermite_expand,
    midpoint_taylor_table,
)
from fbmbt.experiments import _monomial_partial


def test_hermite_low_orders():
    x = np.linspace(-3, 3, 13)
    np.testing.assert_allclose(hermite_eval(0, x), np.ones_like(x))
    np.testing.assert_allclose(hermite_eval(1, x), x)
    np.testing.assert_allclose(hermite_eval(2, x), x**2 - 1)
    np.testing.assert_allclose(hermite_eval(3, x), x**3 - 3 * x)
    np.testing.assert_allclose(hermite_eval(4, x), x**4 - 6 * x**2 + 3)


def test_hermite_scalar_and_errors():
    assert hermite_eval(3, 2.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        hermite_eval(-1, 0.0)


def test_hermite_expand_cube():
    exp = hermite_expand(3)
    assert exp.coefficients == {3: Fraction(1), 1: Fraction(3)}


def test_hermite_expand_fifth_power():
    exp = hermite_expand(5)
    assert exp.coefficients == {5: Fraction(1), 3: Fraction(10), 1: Fraction(15)}


def _hermite_by_recurrence(p):
    """The coefficients of x^p in the Hermite basis, built up one factor x
    at a time by x H_q = H_{q+1} + q H_{q-1}, zeros dropped."""
    coeffs = {0: Fraction(1)}
    for _ in range(p):
        nxt = {}
        for q, c in coeffs.items():
            nxt[q + 1] = nxt.get(q + 1, Fraction(0)) + c
            if q >= 1:
                nxt[q - 1] = nxt.get(q - 1, Fraction(0)) + q * c
        coeffs = nxt
    return {q: c for q, c in coeffs.items() if c}


@pytest.mark.parametrize("p", range(1, 13))
def test_hermite_expand_matches_the_recurrence(p):
    # Same coefficients in the same order, highest first.
    want = _hermite_by_recurrence(p)
    assert list(hermite_expand(p).coefficients.items()) == list(want.items())
    assert list(want) == list(range(p, -1, -2))


def test_hermite_expand_reconstructs_powers():
    x = np.linspace(-2, 2, 9)
    for p in range(1, 8):
        np.testing.assert_allclose(
            hermite_expand(p).evaluate(x), x**p, rtol=1e-12, atol=1e-12
        )


def test_taylor_table_documented_entries():
    table = midpoint_taylor_table(5)
    assert table[1, 0] == 1
    assert table[0, 1] == 1
    assert table[3, 0] == Fraction(1, 24)
    assert table[0, 3] == Fraction(1, 24)
    assert table[1, 2] == Fraction(1, 8)
    assert table[2, 1] == Fraction(1, 8)
    assert table[5, 0] == Fraction(1, 1920)


def test_taylor_table_even_orders_vanish():
    table = midpoint_taylor_table(12)
    for (a1, a2), coeff in table.items():
        if (a1 + a2) % 2 == 0:
            assert coeff == 0, (a1, a2)


def _taylor_by_solving(max_order):
    """The midpoint coefficients solved order by order in exact arithmetic
    between the points (0, 0) and (1, 3): plugging f = x^a1 y^a2 of total
    order k into the expansion leaves one unknown, C(a1, a2), once every
    lower order is known, since the only order-k partial that survives on a
    monomial is its own."""
    a, b, c, d = Fraction(0), Fraction(1), Fraction(0), Fraction(3)
    mx, my = (a + b) / 2, (c + d) / 2
    entries = {}
    for k in range(1, max_order + 1):
        for a1 in range(k + 1):
            a2 = k - a1
            lhs = b**a1 * d**a2 - a**a1 * c**a2
            for (b1, b2), coeff in entries.items():
                lhs -= (coeff * _monomial_partial(a1, a2, b1, b2, mx, my)
                        * (b - a) ** b1 * (d - c) ** b2)
            entries[a1, a2] = lhs / (math.factorial(a1) * math.factorial(a2)
                                     * (b - a) ** a1 * (d - c) ** a2)
    return entries


def test_taylor_table_closed_form():
    # The closed form 2^{1-(a1+a2)} / (a1! a2!), 0 on even totals, gives
    # what solving order by order gives, key for key and in the same order.
    for k in range(1, 14):
        got, want = midpoint_taylor_table(k), _taylor_by_solving(k)
        assert list(got.items()) == list(want.items()), k
        assert all(type(v) is Fraction for v in got.values())


def test_taylor_table_reproduces_polynomial_difference():
    # the expansion must be exact on any polynomial within the table order
    table = midpoint_taylor_table(7)
    rng = np.random.default_rng(5)
    coeffs = {(i, j): rng.normal() for i in range(4) for j in range(4)}

    def poly(x, y):
        return sum(c * x**i * y**j for (i, j), c in coeffs.items())

    def partial(b1, b2, x, y):
        total = 0.0
        for (i, j), c in coeffs.items():
            if b1 <= i and b2 <= j:
                fac = (
                    math.factorial(i) / math.factorial(i - b1)
                    * math.factorial(j) / math.factorial(j - b2)
                )
                total += c * fac * x ** (i - b1) * y ** (j - b2)
        return total

    a, b, c, d = 0.3, 1.1, -0.4, 0.9
    mx, my = (a + b) / 2, (c + d) / 2
    approx = sum(
        float(coeff) * partial(b1, b2, mx, my) * (b - a) ** b1 * (d - c) ** b2
        for (b1, b2), coeff in table.items()
    )
    assert approx == pytest.approx(poly(b, d) - poly(a, c), rel=1e-12)


def test_taylor_table_order_limits():
    with pytest.raises(ValueError):
        midpoint_taylor_table(0)
    with pytest.raises(ValueError):
        midpoint_taylor_table(14)


def test_catalog_contains_documented_functions():
    names = function_names()
    for expected in ("1", "x", "x^3", "x*y^2", "sin_x_cos_y", "bump"):
        assert expected in names


def test_unknown_function_rejected():
    with pytest.raises(ValueError):
        get_test_function("nope")


@pytest.mark.parametrize("name", ["x^3", "x*y^2", "sin_x_cos_y", "bump", "x^2*y"])
def test_partials_match_finite_differences(name):
    f = get_test_function(name)
    pts = [(0.3, -0.7), (1.2, 0.4), (-0.9, 1.1)]
    h = 1e-5
    for x, y in pts:
        fd_x = (f(x + h, y) - f(x - h, y)) / (2 * h)
        fd_y = (f(x, y + h) - f(x, y - h)) / (2 * h)
        assert float(f.partials_at([(1, 0)], x, y)[0]) == pytest.approx(fd_x, abs=1e-7)
        assert float(f.partials_at([(0, 1)], x, y)[0]) == pytest.approx(fd_y, abs=1e-7)
        h3 = 1e-3  # larger step: third differences amplify roundoff as h^-3
        fd_xxx = (
            f(x + 2 * h3, y) - 2 * f(x + h3, y) + 2 * f(x - h3, y) - f(x - 2 * h3, y)
        ) / (2 * h3**3)
        assert float(f.partials_at([(3, 0)], x, y)[0]) == pytest.approx(fd_xxx, abs=1e-4)


def test_bump_vanishes_outside_support():
    f = get_test_function("bump")
    for a1 in range(4):
        for a2 in range(4 - a1):
            assert float(f.partials_at([(a1, a2)], 3.0, 0.0)[0]) == 0.0
            assert float(f.partials_at([(a1, a2)], 1.5, 1.5)[0]) == 0.0


def test_bump_positive_inside():
    f = get_test_function("bump")
    assert float(f(0.0, 0.0)) == pytest.approx(math.exp(-1.0))
    assert float(f(1.0, 1.0)) > 0


def test_partials_beyond_order_three_rejected():
    f = get_test_function("sin_x_cos_y")
    for keys in ([(4, 0)], [(0, -1)], [(1, 0), (2, 2)]):
        with pytest.raises(ValueError):
            f.partials_at(keys, 0.3, -1.2)


def test_monomial_partials_exact():
    f = get_test_function("x^3")
    x = np.array([0.5, -1.5, 2.0])
    np.testing.assert_allclose(f.partials_at([(3, 0)], x, x)[0], 6.0 * np.ones_like(x))
    np.testing.assert_allclose(f.partials_at([(2, 0)], x, x)[0], 6.0 * x)
    np.testing.assert_allclose(f.partials_at([(0, 1)], x, x)[0], np.zeros_like(x))


def test_vanishes_exactly_when_partial_is_identically_zero():
    rng = np.random.default_rng(0)
    # Inside the bump's support, off the axes where monomials have zeros.
    x, y = rng.uniform(-1.0, 1.0, (2, 50))
    for name in function_names():
        f = get_test_function(name)
        for a1 in range(4):
            for a2 in range(4 - a1):
                zero = not np.any(np.asarray(f.partials_at([(a1, a2)], x, y)[0]))
                assert f.vanishes(a1, a2) == zero, (name, a1, a2)
                if name in ("sin_x_cos_y", "bump"):
                    assert not f.vanishes(a1, a2)
    with pytest.raises(ValueError):
        get_test_function("x^3").vanishes(4, 0)


@pytest.mark.parametrize("name", function_names())
def test_depends_matches_a_perturbation_of_each_variable(name):
    # A partial recorded as not depending on a variable keeps its bits when
    # that variable moves; one recorded as depending on it changes somewhere.
    rng = np.random.default_rng(1)
    x, y = rng.uniform(-0.9, 0.9, (2, 50))  # moved by 0.37, still inside the bump
    f = get_test_function(name)
    for a1 in range(4):
        for a2 in range(4 - a1):
            def g(x, y, key=(a1, a2)):
                return f.partials_at([key], x, y)[0]

            base = np.asarray(g(x, y))
            moved = (np.asarray(g(x + 0.37, y)), np.asarray(g(x, y + 0.37)))
            for depends, value in zip(f.depends(a1, a2), moved):
                if depends:
                    assert np.any(value != base), (name, a1, a2)
                else:
                    assert value.tobytes() == base.tobytes(), (name, a1, a2)
    if name in ("sin_x_cos_y", "bump"):
        assert f.depends(0, 0) == (True, True)


def _sympy_partials(expr_of):
    """(a1, a2) -> numpy function of the sympy partial of ``expr_of(x, y)``."""
    sp = pytest.importorskip("sympy")
    x, y = sp.symbols("x y")
    expr = expr_of(sp, x, y)
    return {
        (a1, a2): sp.lambdify((x, y), sp.diff(expr, x, a1, y, a2), modules="numpy")
        for a1 in range(4)
        for a2 in range(4 - a1)
    }


def test_sin_x_cos_y_partials_equal_sympy_bitwise():
    oracle = _sympy_partials(lambda sp, x, y: sp.sin(x) * sp.cos(y))
    f = get_test_function("sin_x_cos_y")
    x, y = np.random.default_rng(1).uniform(-7.0, 7.0, (2, 10**4))
    for (a1, a2), ref in oracle.items():
        assert np.array_equal(f.partials_at([(a1, a2)], x, y)[0], ref(x, y)), (a1, a2)
        assert f.partials_at([(a1, a2)], 0.3, -1.2)[0] == ref(0.3, -1.2), (a1, a2)


def test_bump_partials_match_sympy():
    oracle = _sympy_partials(lambda sp, x, y: sp.exp(-1 / (1 - (x**2 + y**2) / 4)))
    f = get_test_function("bump")
    rng = np.random.default_rng(2)
    # Uniform on the disc of radius 2, the bump's support.
    r = 2.0 * np.sqrt(rng.uniform(0.0, 1.0, 2 * 10**4))
    theta = rng.uniform(0.0, 2.0 * np.pi, r.size)
    x, y = r * np.cos(theta), r * np.sin(theta)
    inside = x**2 + y**2 < 4.0 - 1e-12
    assert inside.sum() >= 10**4
    for (a1, a2), ref in oracle.items():
        want = ref(x[inside], y[inside])
        got = f.partials_at([(a1, a2)], x[inside], y[inside])[0]
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), (a1, a2)
        assert isinstance(f.partials_at([(a1, a2)], 0.3, 0.2)[0], float)


# ---------------------------------------------------------------------------
# Integer powers are the left-to-right products x * x * ... * x, bit for bit.


def _product(x, k):
    out = x
    for _ in range(k - 1):
        out = out * x
    return out


def _product_term(w, x, y, p, q):
    """w * x^p * y^q in that order, a zero exponent skipping its factor."""
    if p:
        w = w * _product(x, p)
    if q:
        w = w * _product(y, q)
    return w


def _signed_points(radius):
    """Points of both signs in each coordinate, and the origin."""
    x, y = np.random.default_rng(3).uniform(-radius, radius, (2, 4000))
    return np.append(x, [0.0, -0.7, 0.7]), np.append(y, [0.0, 0.9, -0.9])


def test_powers_are_left_to_right_products():
    x, y = _signed_points(3.0)
    assert (x < 0).any() and (x > 0).any() and (y < 0).any() and (y > 0).any()
    for k in range(1, 6):
        assert _power(x, k).tobytes() == _product(x, k).tobytes(), k
        assert _power(-1.3, k) == _product(-1.3, k), k
    w = np.random.default_rng(4).normal(size=x.shape)
    for p in range(6):
        for q in range(6):
            assert _powers(w, x, y, p, q).tobytes() == _product_term(w, x, y, p, q).tobytes()


def test_monomial_partials_are_products():
    x, y = _signed_points(3.0)
    for a in range(6):
        for b in range(6 - a):
            f = get_test_function(calculus._monomial_name(a, b))
            for a1 in range(min(a, 3) + 1):
                for a2 in range(min(b, 3 - a1) + 1):
                    coef = float(math.factorial(a) // math.factorial(a - a1)
                                 * (math.factorial(b) // math.factorial(b - a2)))
                    want = np.broadcast_to(_product_term(coef, x, y, a - a1, b - a2), x.shape)
                    got = f.partials_at([(a1, a2)], x, y)[0]
                    assert got.tobytes() == want.tobytes(), (f.name, a1, a2)
                    assert f.partials_at([(a1, a2)], -0.7, 0.9)[0] == want[-2], (f.name, a1, a2)


def test_bump_partials_are_products():
    # h^(k)(s) as polynomials in w = 1/(1 - s) times h, as in the catalog,
    # and d^a/dx^a of h(s) as sum_i c(a, i) x^(a-2i) h^(a-i)(s).
    chain = (lambda w: 1.0, lambda w: -(w**2), lambda w: w**4 - 2.0 * w**3,
             lambda w: -(w**6) + 6.0 * w**5 - 6.0 * w**4)

    def c(a, i):
        return math.factorial(a) / (math.factorial(i) * math.factorial(a - 2 * i) * 2**a)

    x, y = _signed_points(1.4)  # inside the support r < 2
    f = get_test_function("bump")
    w = 4.0 / (4.0 - (x**2 + y**2))
    for a1 in range(4):
        for a2 in range(4 - a1):
            want = np.exp(-w) * sum(
                _product_term(c(a1, i) * c(a2, j), x, y, a1 - 2 * i, a2 - 2 * j)
                * chain[a1 + a2 - i - j](w)
                for i in range(a1 // 2 + 1) for j in range(a2 // 2 + 1))
            assert f.partials_at([(a1, a2)], x, y)[0].tobytes() == want.tobytes(), (a1, a2)


def test_partials_at_equal_each_partial_alone():
    # Several partials from one call, in any order and with repeats, are
    # bit for bit the partials each asked for alone: the factors one call
    # shares (sin x and cos y, the bump's support, w and exp(-w)) move no
    # bit.  Each has the shape of its inputs, a (rows, width) block
    # included: the midpoint kernels sum them as they come, without
    # broadcasting.
    keys = [(a1, a2) for a1 in range(4) for a2 in range(4 - a1)]
    keys = keys[::-1] + keys[:3]
    for shape in ((4003,), (2, 4003), (4003, 1)):
        x, y = (np.resize(v, shape) for v in _signed_points(1.9))
        for name in function_names():
            f = get_test_function(name)
            got = f.partials_at(keys, x, y)
            assert len(got) == len(keys)
            for key, value in zip(keys, got):
                want = f.partials_at([key], x, y)[0]
                assert np.shape(value) == shape, (name, key, shape)
                assert np.asarray(value).tobytes() == np.asarray(want).tobytes(), (name, key)


def test_constant_partials_allocate_no_block():
    # x^3's third partial is the constant 6: on a block it is that one
    # value broadcast, with no memory of its own; on scalars a float64.
    f = get_test_function("x^3")
    x, y = np.random.default_rng(5).uniform(-1.0, 1.0, (2, 400, 1024))
    six = f.partials_at([(3, 0)], x, y)[0]
    assert six.shape == (400, 1024) and six.strides == (0, 0)
    assert np.all(six == 6.0)
    assert type(f.partials_at([(3, 0)], 0.3, -1.2)[0]) is np.float64
