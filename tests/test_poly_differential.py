"""Differential tests of the polynomial kernel against sympy.

Every verdict of the library is an exact zero test in `Polynomial`, so the
kernel's arithmetic is compared term by term with an independent
implementation on Hypothesis-drawn polynomials: charts of 1-4 coordinates,
integral and non-integral rational coefficients, sums that cancel to zero,
sums of products mixed with int-weighted terms, rational sums whose
denominators cancel to 1, exponents near the per-coordinate limit of the
packed monomial keys, and evaluation at zero, negative and
large-denominator points.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from imcalc.poly import (
    EXPONENT_LIMIT, ChartError, Polynomial, base_chart, format_polynomial, parse,
)

sympy = pytest.importorskip("sympy")

SETTINGS = settings(max_examples=50, deadline=None)

CHARTS = {n: base_chart("M", [f"x{i}" for i in range(1, n + 1)]) for n in range(1, 5)}
SYMBOLS = {n: sympy.symbols(" ".join(CHARTS[n].names), seq=True) for n in CHARTS}
TARGET = base_chart("N", ["y1", "y2"])
TARGET_SYMBOLS = sympy.symbols("y1 y2", seq=True)

integral = st.integers(min_value=-20, max_value=20)
non_integral = st.fractions(min_value=-7, max_value=7, max_denominator=12).filter(
    lambda f: f.denominator != 1)
coefficients = st.one_of(integral, non_integral)


def _terms(dim: int, max_size: int = 5):
    exps = st.tuples(*[st.integers(min_value=0, max_value=3)] * dim)
    return st.dictionaries(exps, coefficients, max_size=max_size)


@st.composite
def polys(draw, count: int):
    """`count` polynomials on one chart of 1-4 coordinates."""
    dim = draw(st.integers(min_value=1, max_value=4))
    chart = CHARTS[dim]
    return tuple(Polynomial(chart, draw(_terms(dim))) for _ in range(count))


def poly():
    return polys(1).map(lambda ps: ps[0])


def rat(x):
    x = Fraction(x)
    return sympy.Rational(x.numerator, x.denominator)


def to_sympy(p: Polynomial, symbols=None):
    if symbols is None:
        symbols = SYMBOLS[p.chart.dim]
    total = sympy.Integer(0)
    for exps, c in p.terms.items():
        term = rat(c)
        for s, k in zip(symbols, exps):
            term *= s ** k
        total += term
    return total


def sympy_terms(expr, symbols) -> dict:
    """The term map of a sympy expression, with Fraction coefficients."""
    expr = sympy.expand(expr)
    if symbols:
        pairs = sympy.Poly(expr, *symbols, domain="QQ").terms()
    else:
        pairs = [((), expr)]
    out = {}
    for exps, c in pairs:
        c = sympy.Rational(c)
        if c != 0:
            out[tuple(exps)] = Fraction(int(c.p), int(c.q))
    return out


def assert_matches(p: Polynomial, expr, symbols=None) -> None:
    """`p` has exactly the terms of the sympy expression `expr`, and every
    stored coefficient is an int exactly when it is integral."""
    if symbols is None:
        symbols = SYMBOLS[p.chart.dim]
    assert p.terms == sympy_terms(expr, symbols)
    for c in p.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


@SETTINGS
@given(polys(2), st.one_of(integral, non_integral))
def test_ring_operations(pq, scalar):
    p, q = pq
    sp, sq = to_sympy(p), to_sympy(q)
    c = rat(scalar)
    assert_matches(p + q, sp + sq)
    assert_matches(p - q, sp - sq)
    assert_matches(p * q, sp * sq)
    assert_matches(-p, -sp)
    assert_matches(p + scalar, sp + c)
    assert_matches(scalar - p, c - sp)
    assert_matches(p * scalar, sp * c)
    assert_matches(scalar * q, c * sq)


@SETTINGS
@given(poly(), st.integers(min_value=0, max_value=4))
def test_power(p, n):
    assert_matches(p ** n, to_sympy(p) ** n)


@SETTINGS
@given(poly(), st.data())
def test_sums_that_cancel(p, data):
    """A sum cancelling on some terms, and rational sums landing on integers."""
    cancel = {e: -c for e, c in p.terms.items() if data.draw(st.booleans())}
    shift = {e: data.draw(integral) - c for e, c in p.terms.items()
             if Fraction(c).denominator != 1}
    q = Polynomial(p.chart, cancel)
    r = Polynomial(p.chart, shift)
    sp = to_sympy(p)
    assert_matches(p + q, sp + to_sympy(q))
    assert_matches(p + r, sp + to_sympy(r))
    assert_matches(p - p, sympy.Integer(0))
    assert (p - p).is_zero()
    assert (p + p * -1).is_zero()


@SETTINGS
@given(poly(), st.data())
def test_diff(p, data):
    symbols = SYMBOLS[p.chart.dim]
    i = data.draw(st.integers(min_value=0, max_value=p.chart.dim - 1))
    assert_matches(p.diff(p.chart.names[i]), sympy.diff(to_sympy(p), symbols[i]))


# evaluation points: zero, negative, and numerators and denominators far
# beyond one machine word, besides the small rationals of `coefficients`
large_denominator = st.builds(Fraction, st.integers(min_value=-10**40, max_value=10**40),
                              st.integers(min_value=10**20, max_value=10**40))
point_values = st.one_of(coefficients, st.just(0), st.integers(max_value=-1), large_denominator)


@st.composite
def eval_polys(draw):
    """A polynomial of `poly`, or a constant or zero polynomial."""
    p = draw(poly())
    kind = draw(st.sampled_from(["poly", "constant", "zero"]))
    if kind == "constant":
        return Polynomial.const(p.chart, draw(coefficients))
    return Polynomial.zero(p.chart) if kind == "zero" else p


@SETTINGS
@given(eval_polys(), st.data())
def test_eval(p, data):
    point = {n: data.draw(point_values) for n in p.chart.names}
    value = p.eval(point)
    assert isinstance(value, Fraction)
    subs = {s: rat(point[n]) for s, n in zip(SYMBOLS[p.chart.dim], p.chart.names)}
    expected = sympy.Rational(to_sympy(p).subs(subs))
    assert value == Fraction(int(expected.p), int(expected.q))


@SETTINGS
@given(poly(), st.data())
def test_partial_eval(p, data):
    names = p.chart.names
    fixed = data.draw(st.lists(st.sampled_from(names), unique=True))
    assign = {n: data.draw(coefficients) for n in fixed}
    kept = [n for n in names if n not in assign]
    new_chart = base_chart("K", kept)
    subs = {s: rat(assign[n]) for s, n in zip(SYMBOLS[p.chart.dim], names) if n in assign}
    kept_symbols = [s for s, n in zip(SYMBOLS[p.chart.dim], names) if n not in assign]
    out = p.partial_eval(assign, new_chart)
    assert out.chart == new_chart
    assert_matches(out, to_sympy(p).subs(subs), kept_symbols)


@SETTINGS
@given(poly(), st.data())
def test_substitute(p, data):
    names = p.chart.names
    images = {n: Polynomial(TARGET, data.draw(_terms(2, max_size=3))) for n in names}
    out = p.substitute(images, TARGET)
    subs = {s: to_sympy(images[n], TARGET_SYMBOLS)
            for s, n in zip(SYMBOLS[p.chart.dim], names)}
    assert_matches(out, to_sympy(p).subs(subs, simultaneous=True), TARGET_SYMBOLS)


@SETTINGS
@given(poly())
def test_format_parse_roundtrip(p):
    text = format_polynomial(p)
    assert parse(text, p.chart) == p
    assert_matches(parse(text, p.chart), sympy.sympify(text.replace("^", "**")))


@SETTINGS
@given(polys(4))
def test_sum_of_products(ps):
    a, b, c, d = ps
    out = Polynomial.sum_of_products(a.chart, [(a, b), (c, d)])
    assert_matches(out, to_sympy(a) * to_sympy(b) + to_sympy(c) * to_sympy(d))
    assert Polynomial.sum_of_products(a.chart, [(a, b), (-a, b)]).is_zero()
    assert Polynomial.sum_of_products(a.chart, []).is_zero()
    # each running sum passes through zero and comes back
    assert_matches(Polynomial.sum_of_products(a.chart, [(a, b), (-a, b), (a, b)]),
                   to_sympy(a) * to_sympy(b))
    # Fraction products of different pairs that sum to the terms of a * b
    thirds = Polynomial.sum_of_products(
        a.chart, [(a * Fraction(1, 3), b), (a * Fraction(2, 3), b)])
    assert_matches(thirds, to_sympy(a) * to_sympy(b))
    assert thirds == a * b


weights = st.one_of(st.just(0), st.integers(min_value=-3, max_value=3),
                    st.integers(min_value=-10**20, max_value=10**20))


@SETTINGS
@given(polys(3), st.lists(st.tuples(st.integers(0, 2), st.one_of(st.none(), weights)),
                          max_size=6))
def test_sum_of_products_with_int_weights(ps, picks):
    """Pairs (p, w) with an int weight w add w * p; they mix freely with
    polynomial pairs, and a zero weight adds nothing."""
    chart = ps[0].chart
    pairs = []
    expected = sympy.Integer(0)
    for i, w in picks:
        p, q = ps[i], ps[(i + 1) % 3]
        if w is None:
            pairs.append((p, q))
            expected += to_sympy(p) * to_sympy(q)
        else:
            pairs.append((p, w))
            expected += to_sympy(p) * w
    assert_matches(Polynomial.sum_of_products(chart, pairs), expected)
    a = ps[0]
    assert Polynomial.sum_of_products(chart, [(a, 0)]).is_zero()
    assert Polynomial.sum_of_products(chart, [(a, 1), (a, -1)]).is_zero()
    assert Polynomial.sum_of_products(chart, [(a, -1)]) == -a
    # an int weight and the constant polynomial of the same value agree
    assert_matches(Polynomial.sum_of_products(chart, [(a, 3), (ps[1], ps[2])]),
                   3 * to_sympy(a) + to_sympy(ps[1]) * to_sympy(ps[2]))
    assert (Polynomial.sum_of_products(chart, [(a, -2)])
            == Polynomial.sum_of_products(chart, [(a, Polynomial.const(chart, -2))]))


def test_sum_of_products_int_weight_checks_the_chart():
    p = Polynomial.variable(CHARTS[2], "x1")
    with pytest.raises(ChartError):
        Polynomial.sum_of_products(CHARTS[3], [(p, 1)])
    with pytest.raises(ChartError):
        Polynomial.sum_of_products(CHARTS[3], [(Polynomial.variable(CHARTS[3], "x1"), 2), (p, -1)])
    # a zero weight does not excuse a polynomial on another chart
    with pytest.raises(ChartError):
        Polynomial.sum_of_products(CHARTS[3], [(p, 0)])


NEAR_LIMIT = st.one_of(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=EXPONENT_LIMIT // 2 - 2, max_value=EXPONENT_LIMIT // 2 + 2),
    st.integers(min_value=EXPONENT_LIMIT - 2, max_value=EXPONENT_LIMIT),
)


@st.composite
def near_limit_polys(draw, count: int):
    """`count` polynomials on one chart whose exponents lie near 0, near half
    the limit and near the limit, so that some products pass the limit."""
    dim = draw(st.integers(min_value=1, max_value=4))
    exps = st.tuples(*[NEAR_LIMIT] * dim)
    return tuple(Polynomial(CHARTS[dim], draw(st.dictionaries(exps, coefficients, max_size=4)))
                 for _ in range(count))


def ring_terms(expr, symbols) -> dict:
    """The term map of a sympy expression, computed in sympy's sparse
    polynomial ring (`sympy.Poly` is dense, and slow at these degrees)."""
    ring = sympy.ring(symbols, sympy.QQ)[0]
    return {e: Fraction(int(c.numerator), int(c.denominator)) for e, c in ring(expr).items()}


@SETTINGS
@given(near_limit_polys(2), st.data())
def test_product_and_diff_near_the_exponent_limit(pq, data):
    p, q = pq
    symbols = SYMBOLS[p.chart.dim]
    product = ring_terms(to_sympy(p) * to_sympy(q), symbols)
    if any(k > EXPONENT_LIMIT for e in product for k in e):
        with pytest.raises(ChartError):
            p * q
    else:
        assert (p * q).terms == product
    i = data.draw(st.integers(min_value=0, max_value=p.chart.dim - 1))
    partial = p.diff(p.chart.names[i])
    assert partial.terms == ring_terms(sympy.diff(to_sympy(p), symbols[i]), symbols)
    assert all(type(c) is int or c.denominator != 1 for c in partial.terms.values())
