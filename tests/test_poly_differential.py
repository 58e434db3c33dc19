"""Differential tests of the polynomial kernel against sympy.

Every verdict of the library is an exact zero test in `Polynomial`, so the
kernel's arithmetic is compared term by term with an independent
implementation on Hypothesis-drawn polynomials: charts of 1-4 coordinates,
integral and non-integral rational coefficients, sums that cancel to zero,
sums of products mixed with int-weighted terms, rational sums whose
denominators cancel to 1, exponents near the per-coordinate limit of the
packed monomial keys, and evaluation at zero, negative and
large-denominator points.

The big-int route of `Polynomial.sum_of_products` (`poly._kronecker`) is
compared with the flat product loop it replaces (`reference_sum_of_products`)
on pairs of factors at and above `KRONECKER_TERMS` terms: on base-only
charts and on prolongation-like charts whose copy coordinates split each
factor into groups, with mixed signs, Fraction coefficients of different
denominators, sums that cancel in some or all keys, exponents that pass the
limit, and coefficients too wide for it.  `packing_cases` draws calls that
the route multiplies, each with one- and many-group factors, a factor
shared by several pairs, totals that cancel in some groups only, rows whose
last cell is occupied, and int-only or mixed int and Fraction factors.

The printer (`format_polynomial`) is compared with `reference_format`, built
from the exponent tuples of `p.terms` and the order its docstring states, on
lists of polynomials drawn on a chart of 17 coordinates and on two charts
whose coordinate names differ while their packed keys coincide: printing the
list with one shared monomial table, as a report does, gives the same text as
printing each polynomial alone, and the text parses back to the polynomial.

`Polynomial.split` is compared with `reference_split`, built from the
exponent tuples of `p.terms`, at every split position of charts of 1-4
coordinates, with exponents near 0 and near the limit.
"""

from __future__ import annotations

import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings, strategies as st

from conftest import reference_sum_of_products
from imcalc import poly as kernel
from imcalc.poly import (
    EXPONENT_LIMIT, KRONECKER_SLOT_BYTES, KRONECKER_TERMS, LITERAL_DIGIT_LIMIT,
    Chart, ChartError, Coord, Polynomial, base_chart, format_polynomial, parse,
)
from support import substitute

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
    out = substitute(p, images, TARGET)
    subs = {s: to_sympy(images[n], TARGET_SYMBOLS)
            for s, n in zip(SYMBOLS[p.chart.dim], names)}
    assert_matches(out, to_sympy(p).subs(subs, simultaneous=True), TARGET_SYMBOLS)


@SETTINGS
@given(poly())
def test_format_parse_roundtrip(p):
    text = format_polynomial(p)
    assert parse(text, p.chart) == p
    assert_matches(parse(text, p.chart), sympy.sympify(text.replace("^", "**")))


#: a chart wider than 16 coordinates, and two charts of three coordinates
#: each whose names differ, so that equal exponent tuples pack to equal keys
PRINT_CHARTS = (
    base_chart("W", [f"w{i}" for i in range(1, 18)]),
    base_chart("M", ["x1", "x2", "x3"]),
    Chart("E", (Coord("y"), Coord("u1", base=False), Coord("u2", base=False))),
)


def _magnitude(value) -> str:
    """The decimal text of a non-negative rational, by `Decimal`, which
    converts an int of any size exactly."""
    value = Fraction(value)
    text = str(Decimal(value.numerator))
    return text if value.denominator == 1 else f"{text}/{Decimal(value.denominator)}"


def reference_format(p: Polynomial) -> str:
    """The printed form of `p` by the rule of `format_polynomial`'s
    docstring, read off `p.terms`: descending total degree, then descending
    exponent tuple; a unit coefficient is left out before a monomial, and a
    leading negative term is written -c*monomial."""
    order = sorted(p.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
    pieces = []
    for exps, c in order:
        mono = "*".join(name if k == 1 else f"{name}^{k}"
                        for name, k in zip(p.chart.names, exps) if k)
        mag = _magnitude(abs(c))
        product = "*".join(filter(None, [mag, mono]))
        if not pieces and c < 0:
            pieces.append(f"-{product}")  # -1*x1, never -x1
            continue
        body = mono if mono and mag == "1" else product
        pieces.append(f"{'-' if c < 0 else '+'} {body}" if pieces else body)
    return " ".join(pieces) or "0"


#: ints of more than `LITERAL_DIGIT_LIMIT` digits, drawn as a few small
#: parts so that they cost little entropy
huge = st.tuples(st.integers(1, 99), st.integers(0, 10 ** 6)).map(
    lambda t: t[0] * 10 ** LITERAL_DIGIT_LIMIT + t[1])
print_coefficients = st.one_of(integral, non_integral, st.sampled_from([1, -1]),
                               huge, huge.map(lambda n: -n))


@st.composite
def print_terms(draw, dim: int) -> dict:
    """A term map on `dim` coordinates whose monomials each involve at most
    three of them, so that wide charts get sparse monomials."""
    monomial = st.dictionaries(st.integers(0, dim - 1), st.integers(0, 3), max_size=3).map(
        lambda sparse: tuple(sparse.get(i, 0) for i in range(dim)))
    return draw(st.dictionaries(monomial, print_coefficients, max_size=6))


@st.composite
def print_lists(draw) -> list:
    """Polynomials on all three `PRINT_CHARTS`, in a drawn order; each term
    map drawn for one three-coordinate chart is also used on the other."""
    wide, left, right = PRINT_CHARTS
    out = [Polynomial(wide, draw(print_terms(wide.dim))) for _ in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(1, 3))):
        terms = draw(print_terms(left.dim))
        out += [Polynomial(left, terms), Polynomial(right, terms)]
    return draw(st.permutations(out))


def _fits_parser(p: Polynomial) -> bool:
    return all(len(str(Decimal(part))) <= LITERAL_DIGIT_LIMIT
               for c in p.terms.values()
               for part in (Fraction(c).numerator, Fraction(c).denominator))


def _check_printing(ps: list) -> None:
    table: dict = {}
    shared = [format_polynomial(p, table) for p in ps]
    assert shared == [format_polynomial(p) for p in ps] == [reference_format(p) for p in ps]
    # one entry per chart printed and per distinct monomial on it
    charts = {p.chart for p in ps if p.terms}
    assert {c: len(monomials) for c, monomials in table.items()} == {
        c: len({e for p in ps if p.chart == c for e in p.terms}) for c in charts}
    for p, text in zip(ps, shared):
        if _fits_parser(p):
            assert parse(text, p.chart) == p


@SETTINGS
@given(print_lists())
def test_printing_with_a_shared_table_matches_the_reference(ps):
    _check_printing(ps)


def test_printing_covers_signs_fractions_constants_and_long_coefficients():
    wide, left, right = PRINT_CHARTS
    long = 10 ** LITERAL_DIGIT_LIMIT + 7
    e = (2, 0, 1)
    cases = [
        Polynomial(left, {e: -3, (0, 0, 0): 5}),                      # leading negative
        Polynomial(right, {e: -1, (0, 1, 0): 1}),                     # leading -1
        Polynomial(left, {e: Fraction(-2, 7), (1, 0, 0): Fraction(5, 3)}),
        Polynomial(right, {(0, 0, 0): Fraction(-9, 4)}),              # a constant
        Polynomial(left, {(0, 0, 0): 0}),                             # zero
        Polynomial(wide, {tuple(range(17)): long, (0,) * 17: -long}),  # printed only
        Polynomial(right, {e: -long}),                                # printed only
    ]
    _check_printing(cases + cases[::-1])
    assert format_polynomial(cases[0]) == "-3*x1^2*x3 + 5"
    assert format_polynomial(cases[1]) == "-1*y^2*u2 + u1"
    assert format_polynomial(cases[3]) == "-9/4"
    assert len(format_polynomial(cases[5])) > 2 * LITERAL_DIGIT_LIMIT


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


# -- grouping by the monomial in the trailing coordinates ----------------------

def reference_split(p: Polynomial, start: int) -> dict:
    """{exponents from `start` on: {exponents below `start`: coefficient}}
    over the terms of p."""
    out: dict = {}
    for exps, c in p.terms.items():
        out.setdefault(exps[start:], {})[exps[:start]] = c
    return out


@st.composite
def split_cases(draw):
    """A polynomial of up to 12 terms on a chart of 1-4 coordinates, with
    small exponents or exponents near the limit, and a split position."""
    dim = draw(st.integers(min_value=1, max_value=4))
    exponent = draw(st.sampled_from([st.integers(min_value=0, max_value=2), NEAR_LIMIT]))
    terms = draw(st.dictionaries(st.tuples(*[exponent] * dim), coefficients, max_size=12))
    return Polynomial(CHARTS[dim], terms), draw(st.integers(min_value=0, max_value=dim))


@SETTINGS
@given(split_cases())
def test_split_matches_the_reference(case):
    """Each group keeps its terms' coefficients, every term lands in exactly
    one group, and the groups times their keys sum back to the polynomial."""
    p, start = case
    chart = p.chart
    groups = p.split(start)
    found = {}
    for key, group in groups.items():
        exps = chart.unpack(key)
        assert exps[:start] == (0,) * start
        assert group.chart == chart and not group.is_zero()
        assert all(e[start:] == (0,) * (chart.dim - start) for e in group.terms)
        found[exps[start:]] = {e[:start]: c for e, c in group.terms.items()}
    assert found == reference_split(p, start)
    assert sum(len(group.terms) for group in groups.values()) == len(p.terms)
    whole = Polynomial.sum_of_products(
        chart, [(Polynomial(chart, {chart.unpack(key): 1}), group) for key, group in groups.items()])
    assert whole == p


# -- the big-int route against the flat loop ------------------------------------

def _copy_chart(nbase: int, copies: int) -> Chart:
    """nbase base coordinates, then `copies` tangent copies of two
    coordinates each, as on a prolongation chart."""
    coords = [Coord(f"x{i}") for i in range(1, nbase + 1)]
    coords += [Coord(f"y{m}_{l}", base=False) for m in range(1, copies + 1) for l in (1, 2)]
    return Chart(f"B{nbase}C{copies}", tuple(coords))


COPY_CHARTS = {(b, c): _copy_chart(b, c) for b in (1, 2, 3) for c in (0, 1, 2)}
# the largest base exponent per base dimension, so that one group has room
# for KRONECKER_TERMS terms and more
BASE_TOP = {1: 24, 2: 5, 3: 3}

large_coefficients = st.one_of(
    st.integers(min_value=-10 ** 6, max_value=10 ** 6),
    st.builds(Fraction, st.integers(min_value=-50, max_value=50),
              st.integers(min_value=1, max_value=12)),
    st.integers(min_value=-10 ** 12, max_value=10 ** 12),
).filter(bool)


@st.composite
def _large_factor(draw, nbase: int, groups: list, chart: Chart, top: int | None = None):
    """A polynomial of `KRONECKER_TERMS` to 32 terms whose higher exponents
    are one of `groups`."""
    side = (BASE_TOP[nbase] if top is None else top) + 1
    cells = draw(st.sets(st.integers(min_value=0, max_value=side ** nbase * len(groups) - 1),
                         min_size=KRONECKER_TERMS, max_size=32))
    coeffs = draw(st.lists(large_coefficients, min_size=len(cells), max_size=len(cells)))
    terms = {}
    for cell, c in zip(sorted(cells), coeffs):
        cell, g = divmod(cell, len(groups))
        terms[tuple(cell // side ** b % side for b in range(nbase)) + groups[g]] = c
    return Polynomial(chart, terms)


@st.composite
def large_pairs(draw):
    """(chart, pairs): one to three pairs of large factors, and at times
    pairs that cancel all of them or some of their terms, a pair with a
    small factor, or an int weight."""
    nbase = draw(st.integers(min_value=1, max_value=3))
    copies = draw(st.integers(min_value=0, max_value=2))
    chart = COPY_CHARTS[nbase, copies]
    group = st.tuples(*[st.integers(min_value=0, max_value=2)] * (2 * copies))
    groups = draw(st.lists(group, min_size=1, max_size=3, unique=True))
    factor = _large_factor(nbase, groups, chart)
    pairs = [(draw(factor), draw(factor)) for _ in range(draw(st.integers(1, 3)))]
    p, q = pairs[0]
    extra = draw(st.sampled_from(["none", "cancel all", "cancel some", "small", "weight"]))
    if extra == "cancel all":
        pairs += [(-a, b) for a, b in pairs]
    elif extra == "cancel some":
        kept = draw(st.lists(st.sampled_from(sorted(p._terms)), unique=True, min_size=1))
        pairs.append((Polynomial(chart, {chart.unpack(e): -p._terms[e] for e in kept}), q))
    elif extra == "small":
        pairs.append((draw(factor), Polynomial(chart, draw(st.dictionaries(
            st.sampled_from([chart.unpack(e) for e in q._terms]), large_coefficients,
            max_size=3)))))
    elif extra == "weight":
        pairs.append((q, draw(st.integers(min_value=-5, max_value=5))))
    return chart, draw(st.permutations(pairs))


def _route_outcome(route, chart: Chart, pairs) -> tuple:
    """("ok", typed term map) or ("error", message)."""
    try:
        p = route(chart, pairs)
    except ChartError as exc:
        return ("error", str(exc))
    return ("ok", {e: (type(c), c) for e, c in p._terms.items()})


@settings(max_examples=50, deadline=None)
@given(large_pairs())
def test_big_int_products_match_the_flat_loop(case):
    chart, pairs = case
    assert (_route_outcome(Polynomial.sum_of_products, chart, pairs)
            == _route_outcome(reference_sum_of_products, chart, pairs))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_big_int_products_pass_the_exponent_limit_like_the_loop(data):
    """A factor with one exponent near the limit, in a base coordinate
    (the route declines) or a copy coordinate (its group key carries the
    guard bit): the same ChartError, or the same zero when the products
    cancel."""
    chart = COPY_CHARTS[2, 1]
    near = st.integers(min_value=EXPONENT_LIMIT - 3, max_value=EXPONENT_LIMIT)
    where = data.draw(st.integers(min_value=0, max_value=chart.dim - 1))
    pairs = []
    for _ in range(2):
        factor = data.draw(_large_factor(2, [(0, 0)], chart, top=3))
        terms = {chart.unpack(e): c for e, c in factor._terms.items()}
        exps = [0] * chart.dim
        exps[where] = data.draw(near)
        terms[tuple(exps)] = data.draw(large_coefficients)
        pairs.append(Polynomial(chart, terms))
    pairs = [tuple(pairs)]
    if data.draw(st.booleans()):
        pairs.append((-pairs[0][0], pairs[0][1]))
    assert (_route_outcome(Polynomial.sum_of_products, chart, pairs)
            == _route_outcome(reference_sum_of_products, chart, pairs))


# the copy exponents of the groups of `packing_cases`: three groups in the
# first copy, and in the second copy three for the factor `d` and one for `e`,
# whose sums with d's never meet a sum of first-copy groups
FIRST_COPY = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0)]
SECOND_COPY = [(0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 1, 1)]
E_GROUP = (0, 0, 2, 2)


@st.composite
def packing_cases(draw):
    """(chart, pairs, cancelled, kept): one call that the big-int route
    multiplies, with every case its packing must get right at once.

    - `a` has one group, `b` and `c` several, and `b` is shared by three
      pairs, once on both sides.
    - (d, e) and (-d restricted to some groups, e) cancel to 0 in the
      totals of those groups (`cancelled`, higher keys of the sum) and in
      no other (`kept`).
    - Every group holds a box of base cells with a few holes; the last
      group of each factor holds the box's far corner, so the last cell of
      its joined row, and the last slot of the product, are occupied.
    - The coefficients are all ints (no lcm, no rescale), or b and e hold
      non-integral Fractions while the others hold ints, which are then
      scaled.
    """
    nbase = draw(st.integers(min_value=1, max_value=2))
    chart = COPY_CHARTS[nbase, 2]
    side = {1: 20, 2: 5}[nbase]
    cells = [tuple(n // side ** i % side for i in range(nbase)) for n in range(side ** nbase)]
    corner = cells[-1]
    mixed = draw(st.booleans())
    # an odd numerator over an even denominator: never integral
    odd = st.integers(min_value=-50, max_value=49).map(lambda n: 2 * n + 1)
    fractions = st.builds(Fraction, odd, st.sampled_from([2, 4, 6, 8, 10, 12]))
    integers = st.integers(min_value=-10 ** 6, max_value=10 ** 6).filter(bool)

    def factor(groups, fractional=False):
        terms = {}
        for n, g in enumerate(groups):
            # every group keeps `KRONECKER_TERMS` terms, so each pair takes the route
            holes = draw(st.sets(st.sampled_from(cells), max_size=len(cells) - KRONECKER_TERMS))
            if n == len(groups) - 1:
                holes.discard(corner)
            terms.update({cell + g: draw(fractions if fractional else integers)
                          for cell in cells if cell not in holes})
        return Polynomial(chart, terms)

    a = factor(FIRST_COPY[:1])
    b = factor(FIRST_COPY, mixed)
    c = factor(FIRST_COPY[1:])
    d = factor(SECOND_COPY)
    e = factor([E_GROUP], mixed)
    gone = draw(st.sets(st.sampled_from(SECOND_COPY), min_size=1, max_size=2))
    part = Polynomial(chart, {exps: -coeff for exps, coeff in d.terms.items()
                              if exps[nbase:] in gone})
    pairs = draw(st.permutations([(a, b), (b, c), (b, b), (d, e), (part, e)]))
    total = {g: tuple(x + y for x, y in zip(g, E_GROUP)) for g in SECOND_COPY}
    return (chart, pairs, {total[g] for g in gone},
            {total[g] for g in SECOND_COPY if g not in gone})


# no shrink phase: a drawn case holds several hundred draws, and shrinking
# one that fails took minutes before the failure was reported
@settings(max_examples=40, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(packing_cases())
def test_big_int_packing_matches_the_flat_loop(case):
    chart, pairs, cancelled, kept = case
    assert kernel._kronecker(chart, pairs, {})
    out = _route_outcome(Polynomial.sum_of_products, chart, pairs)
    assert out == _route_outcome(reference_sum_of_products, chart, pairs)
    highs = {chart.unpack(e)[chart._base:] for e in out[1]}
    assert not highs & cancelled and kept <= highs


def _counted_route(monkeypatch) -> list:
    """Record what each `_kronecker` call returned: True when it multiplied."""
    runs = []
    inner = kernel._kronecker

    def counted(chart, pairs, terms):
        runs.append(inner(chart, pairs, terms))
        return runs[-1]

    monkeypatch.setattr(kernel, "_kronecker", counted)
    return runs


def _dense(chart: Chart, degree: int, coefficient) -> Polynomial:
    """Every monomial of total degree <= `degree` in the first two
    coordinates, the one of exponents (i, j) with coefficient(i, j)."""
    return Polynomial(chart, {(i, j) + (0,) * (chart.dim - 2): coefficient(i, j)
                              for i in range(degree + 1) for j in range(degree + 1 - i)})


def test_big_int_route_declines_where_documented(monkeypatch):
    """The route multiplies a dense pair, and leaves to the loop a chart
    with no base coordinate, a degree sum above the limit, more slots times
    group pairs than term pairs, and slots wider than
    `KRONECKER_SLOT_BYTES`; every answer is the loop's."""
    runs = _counted_route(monkeypatch)
    plane = base_chart("M", ["x1", "x2"])
    fibers = Chart("F", (Coord("u1", base=False), Coord("u2", base=False)))
    wide = 1 << (8 * KRONECKER_SLOT_BYTES)
    corner = Polynomial(plane, {(EXPONENT_LIMIT - 10, 0): 1})
    cases = [
        (True, plane, _dense(plane, 7, lambda i, j: (-1) ** i * (i + 2 * j + 1)),
         _dense(plane, 11, lambda i, j: Fraction(j - 3, i + 1) or 1)),
        (False, fibers, _dense(fibers, 7, lambda i, j: i - j or 5),
         _dense(fibers, 7, lambda i, j: 1)),
        # degree sums up to the limit + 4: the loop raises
        (False, plane, _dense(plane, 7, lambda i, j: 1) * corner, _dense(plane, 7, lambda i, j: 2)),
        # 16 terms on a 4 x 4 grid of spacing 4 and 5: 28 * 28 slots for 256 term pairs
        (False, plane, Polynomial(plane, {(4 * i, 4 * j): 1 for i in range(4) for j in range(4)}),
         Polynomial(plane, {(5 * i, 5 * j): 1 for i in range(4) for j in range(4)})),
        (False, plane, _dense(plane, 7, lambda i, j: wide + i),
         _dense(plane, 7, lambda i, j: wide - j)),
    ]
    for took, chart, p, q in cases:
        runs.clear()
        assert (_route_outcome(Polynomial.sum_of_products, chart, [(p, q)])
                == _route_outcome(reference_sum_of_products, chart, [(p, q)]))
        assert runs == [took]


def test_big_int_route_leaves_huge_coefficients_to_the_loop():
    """A dense pair of 4,300-digit coefficients, each too wide for the
    route's slots, still answers fast and exactly."""
    plane = base_chart("M", ["x1", "x2"])
    big = 10 ** (LITERAL_DIGIT_LIMIT - 1)
    p = _dense(plane, 5, lambda i, j: big + i - j)
    q = _dense(plane, 5, lambda i, j: -big * (j + 1) + i)
    start = time.perf_counter()
    out = Polynomial.sum_of_products(plane, [(p, q), (q, 3)])
    assert time.perf_counter() - start < 1
    assert out == reference_sum_of_products(plane, [(p, q), (q, 3)])
