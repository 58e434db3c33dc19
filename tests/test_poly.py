"""Polynomial kernel: parsing, calculus, ring axioms, exactness."""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import conftest
from conftest import reference_parse, reference_sum_of_products, reference_unit_restrictions
from imcalc import poly
from imcalc.poly import (
    EXPONENT_LIMIT,
    KRONECKER_TERMS,
    LITERAL_DIGIT_LIMIT,
    Chart,
    ChartError,
    Coord,
    ParseError,
    Polynomial,
    base_chart,
    format_polynomial,
    parse,
)
from support import substitute

CH2 = base_chart("M", ["x1", "x2"])
CH3 = base_chart("M", ["x1", "x2", "x3"])


def test_parse_expansion():
    p = parse("x1^2*x2 - 1/2", CH2)
    assert p.terms == {(2, 1): Fraction(1), (0, 0): Fraction(-1, 2)}


def test_parse_zero():
    assert parse("0", CH2).terms == {}
    assert parse("x1 - x1", CH2).is_zero()


def test_parse_unknown_coordinate():
    with pytest.raises(ParseError) as err:
        parse("x3", CH2)
    assert err.value.offset == 0


def test_parse_syntax_error_offset():
    with pytest.raises(ParseError) as err:
        parse("x1^^2", CH2)
    assert err.value.offset == 3


def test_parse_parenthesized_and_whitespace():
    assert parse(" ( x1 + 1 ) ^ 2 ", CH2) == parse("x1^2 + 2*x1 + 1", CH2)
    assert parse("3/4*x1*x2", CH2) == parse("x1", CH2) * parse("x2", CH2) * Fraction(3, 4)


def test_diff_power_rule():
    p = parse("x1^2*x2", CH2)
    assert p.diff("x1") == parse("2*x1*x2", CH2)
    assert parse("x1", CH2).diff("x2").is_zero()
    q = parse("x1*x2*x3 + x3^2", CH3)
    assert q.diff("x3") == parse("x1*x2 + 2*x3", CH3)


def test_diff_unknown_coordinate():
    with pytest.raises(ChartError):
        parse("x1", CH2).diff("zz")


def test_integral_coefficients_are_ints():
    p = parse("1/3*x1 + 2/3*x1 + 1/2*x2", CH2)
    assert p.terms == {(1, 0): 1, (0, 1): Fraction(1, 2)}
    assert type(p.terms[(1, 0)]) is int
    assert type((p * 2).terms[(0, 1)]) is int
    assert type(Polynomial(CH2, {(0, 0): Fraction(4, 2)}).terms[(0, 0)]) is int
    assert type(p.eval({"x1": 1, "x2": 2})) is Fraction


def test_sum_of_products_checks_charts():
    p = parse("x1 + x2", CH2)
    q = parse("x3", CH3)
    with pytest.raises(ChartError):
        Polynomial.sum_of_products(CH2, [(p, p), (q, q)])
    with pytest.raises(ChartError):
        Polynomial.sum_of_products(CH3, [(p, p)])


def test_empty_factor_on_a_foreign_chart_still_raises():
    x1 = parse("x1", CH2)
    for pair in [(Polynomial.zero(CH3), x1), (x1, Polynomial.zero(CH3)),
                 (Polynomial.zero(CH3), Polynomial.zero(CH3)), (Polynomial.zero(CH3), 2)]:
        with pytest.raises(ChartError, match="chart mismatch"):
            Polynomial.sum_of_products(CH2, [(x1, x1), pair])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_empty_factor_pairs_add_nothing(data):
    poly_ = _strat_poly(CH2)
    pairs = data.draw(st.lists(st.tuples(poly_, st.one_of(poly_, st.integers(-3, 3))),
                               max_size=4))
    zero = Polynomial.zero(CH2)
    empties = data.draw(st.lists(st.sampled_from([(zero, zero), (zero, 2)]), max_size=3))
    empties += [(zero, q) for _, q in pairs] + [(p, zero) for p, _ in pairs]
    mixed = data.draw(st.permutations(pairs + empties))
    total = Polynomial.sum_of_products(CH2, pairs)
    assert Polynomial.sum_of_products(CH2, mixed)._terms == total._terms
    assert total == reference_sum_of_products(CH2, pairs)


def test_guard_scan_runs_only_after_a_product(monkeypatch):
    scans = []
    inner = poly._check_guard

    def counted(chart, terms):
        scans.append(chart)
        inner(chart, terms)

    monkeypatch.setattr(poly, "_check_guard", counted)
    top = parse(f"x1^{EXPONENT_LIMIT} + x2^{EXPONENT_LIMIT}", CH2)
    # an int-weight sum only adds stored keys: nothing to scan, nothing raised
    assert Polynomial.sum_of_products(CH2, [(top, 3), (top, -1)]) == top * 2
    assert Polynomial.sum_of_products(CH2, [(top, 1), (Polynomial.zero(CH2), top)]) == top
    assert scans == []
    Polynomial.sum_of_products(CH2, [(top, 1), (parse("x1", CH2), parse("x2", CH2))])
    assert scans == [CH2]


def _recorded_big_int_route(monkeypatch) -> list:
    runs = []
    inner = poly._kronecker

    def counted(chart, pairs, terms):
        runs.append(inner(chart, pairs, terms))
        return runs[-1]

    monkeypatch.setattr(poly, "_kronecker", counted)
    return runs


def test_product_past_the_limit_raises_on_both_routes(monkeypatch):
    """Every term of `half` has u1^16384, so its square sets the guard bit
    of u1, a copy coordinate: at `KRONECKER_TERMS` terms the big-int route
    multiplies it, at one term fewer the loop does, and both name u1."""
    chart = Chart("M|u", (Coord("x1"), Coord("u1", base=False)))
    runs = _recorded_big_int_route(monkeypatch)
    for size, route in [(KRONECKER_TERMS, [True]), (KRONECKER_TERMS - 1, [])]:
        runs.clear()
        half = Polynomial(chart, {(i, 16384): i + 1 for i in range(size)})
        with pytest.raises(ChartError, match="exponent of u1 above"):
            Polynomial.sum_of_products(chart, [(half, half)])
        assert runs == route


@pytest.mark.parametrize("left, right", [
    (KRONECKER_TERMS, KRONECKER_TERMS), (KRONECKER_TERMS, KRONECKER_TERMS - 1),
    (KRONECKER_TERMS - 1, 3 * KRONECKER_TERMS), (3 * KRONECKER_TERMS, KRONECKER_TERMS),
    (KRONECKER_TERMS, 0), (KRONECKER_TERMS, "weight")])
def test_has_big_int_pair_names_the_pairs_the_kernel_defers(left, right):
    """`has_big_int_pair` holds for a pair exactly when `sum_of_products`
    sets it aside for the big-int route: both factors polynomials of
    `KRONECKER_TERMS` terms or more, never an int weight."""
    def sized(n):
        return Polynomial(CH2, {(i, 1): i + 1 for i in range(n)})

    pair = (sized(left), 5 if right == "weight" else sized(right))
    deferred, _ = poly._collect(CH2, [pair], {}, KRONECKER_TERMS)
    assert poly.has_big_int_pair([pair]) == bool(deferred)
    assert poly.has_big_int_pair([(sized(1), 2), pair]) == bool(deferred)
    assert bool(deferred) == (right != "weight" and min(left, right) >= KRONECKER_TERMS)


def test_exponent_limit():
    assert EXPONENT_LIMIT == 2 ** 15 - 1
    p = Polynomial(CH2, {(EXPONENT_LIMIT, 0): 1})
    assert p.terms == {(EXPONENT_LIMIT, 0): 1}
    assert p == parse(f"x1^{EXPONENT_LIMIT}", CH2)
    for exps in [(EXPONENT_LIMIT + 1, 0), (0, EXPONENT_LIMIT + 1), (-1, 0), (1,), (1, 0, 0)]:
        with pytest.raises(ChartError):
            Polynomial(CH2, {exps: 1})


def test_product_past_the_guard_bit_raises():
    # x1^(2^15) sets x1's guard bit; x1^(2^16) would carry into x2's slot
    half = parse("x1^16384", CH2)
    with pytest.raises(ChartError, match="exponent of x1"):
        half * half
    with pytest.raises(ChartError, match="exponent of x1"):
        Polynomial.sum_of_products(CH2, [(half, half)])
    with pytest.raises(ChartError):
        half ** 2
    top = parse(f"x1^{EXPONENT_LIMIT}", CH2)
    with pytest.raises(ChartError):
        top * parse("x1 + x2", CH2)
    x2 = parse("x2", CH2)
    for p in (parse("x1^16383", CH2) ** 2, top * parse("1", CH2)):
        assert p != x2 and p.diff("x2").is_zero()


def test_terms_view():
    p = parse("x1^2*x2 + 3*x2^4 - 1/2", CH2)
    assert p.terms == {(2, 1): 1, (0, 4): 3, (0, 0): Fraction(-1, 2)}
    assert len(p.terms) == 3
    assert sorted(p.terms) == [(0, 0), (0, 4), (2, 1)]
    assert p.terms[(0, 4)] == 3 and (0, 4) in p.terms
    assert (1, 1) not in p.terms and (5,) not in p.terms and (-1, 0) not in p.terms
    assert dict(p.terms.items()) == {(2, 1): 1, (0, 4): 3, (0, 0): Fraction(-1, 2)}
    assert sorted(p.terms.values()) == [Fraction(-1, 2), 1, 3]
    with pytest.raises(TypeError):
        p.terms[(1, 1)] = 2
    with pytest.raises(AttributeError):
        p.terms = {}


def test_chart_moves_agree_with_substitute():
    p = parse("x1^3*x2 - 2*x2^2*x1 + 5/3*x2 + 7", CH2)
    prefix = base_chart("N", ["x1", "x2", "u"])
    by_name = {n: parse(n, prefix) for n in CH2.names}
    assert p.promote(prefix) == substitute(p, by_name, prefix)
    assert p.promote(prefix).terms == {e + (0,): c for e, c in p.terms.items()}
    permuted = base_chart("P", ["u", "x2", "x1"])
    by_name = {n: parse(n, permuted) for n in CH2.names}
    assert p.partial_eval({}, permuted) == substitute(p, by_name, permuted)
    assert p.promote(permuted) == substitute(p, by_name, permuted)
    fixed = p.partial_eval({"x1": Fraction(1, 2)}, permuted)
    assert fixed == substitute(p, {"x1": parse("1/2", permuted), "x2": by_name["x2"]}, permuted)


def test_power_budget():
    ch4 = base_chart("M", ["x1", "x2", "x3", "x4"])
    assert len(parse("(x1+x2+x3+x4+1)^20", ch4).terms) == 10626
    for text, offset in [("(x1+x2+x3+x4+1)^30", 16), ("x1 + (x2^2)^ 16384", 13),
                         ("2^40000", 2), ("x1^" + "9" * 5000, 3)]:
        with pytest.raises(ParseError) as err:
            parse(text, ch4)
        assert err.value.offset == offset
    assert parse("x1^00032767", ch4) == parse(f"x1^{EXPONENT_LIMIT}", ch4)
    assert parse("(x2^2)^16383", ch4).terms == {(0, 32766, 0, 0): 1}


def test_product_budget(monkeypatch):
    ch4 = base_chart("M", ["x1", "x2", "x3", "x4"])
    # each factor (1,820 terms) is under the power budget; their product is not
    cubed = "*".join(["(x1+x2+x3+x4+1)^12"] * 3)
    with pytest.raises(ParseError) as err:
        parse(cubed, ch4)
    assert err.value.offset == 18
    assert "3312400 term pairs" in str(err.value)
    # the largest product a benchmark document writes has 36 x 15 term pairs
    assert len(parse("(1 + x1 + 2*x2)^7*(x1 - x2 + 3)^4", ch4).terms) == 78
    monkeypatch.setattr(poly, "PRODUCT_PAIR_BUDGET", 6)
    assert len(parse("(x1+x2) * (x1+x2+x3)", ch4).terms) == 5
    with pytest.raises(ParseError) as err:
        parse("x1 * (x1+x2) * (x1+x2+x3+x4)", ch4)
    assert err.value.offset == 13


def test_literal_digit_limit():
    assert parse("1" * LITERAL_DIGIT_LIMIT, CH2) == Polynomial.const(CH2, int("1" * LITERAL_DIGIT_LIMIT))
    for text, offset in [("1" * (LITERAL_DIGIT_LIMIT + 1), 0), ("x1 - " + "9" * 5000, 5),
                         ("x1 + 1/" + "1" * 5000, 7), ("0" * 5000 + "1", 0)]:
        with pytest.raises(ParseError) as err:
            parse(text, CH2)
        assert err.value.offset == offset


def test_rational_power_digit_limit():
    """A power is refused at its exponent when its coefficients could pass
    the literal digit limit: on a rational or another one-term base, its
    numerator or denominator; on a sum (1/D) * sum a_i m_i, (sum |a_i|)^N or
    D^N.  The bit lengths decide at once, and only a power near the limit
    is computed."""
    assert parse("2^14000", CH2) == Polynomial.const(CH2, 2 ** 14000)  # 4,215 digits
    assert parse("10^4299", CH2) == Polynomial.const(CH2, 10 ** 4299)  # 4,300 digits
    assert parse("(1/10*x1)^4299", CH2) == Polynomial(CH2, {(4299, 0): Fraction(1, 10 ** 4299)})
    # a power of 1 does not grow its base
    assert parse(f"({'9' * 4300}*10)^1", CH2) == Polynomial.const(CH2, (10 ** 4300 - 1) * 10)
    assert parse("1^32767 + 0^32767 + (-1)^32767", CH2).is_zero()
    for text, offset in [("10^4300", 3), ("1/10^4300", 5), ("-2/3^9100", 5), ("(10)^4300", 5),
                         ("(10*x1)^ 4300", 9), ("9" * 200 + "^32767*x1", 201),
                         ("x1 + (" + "9" * 4300 + ")^2", 4308),
                         ("(" + "9" * 4300 + "*x1+1)^2", 4308), ("(x1 + 2^14000)^2", 15),
                         ("(1/" + "9" * 4300 + "*x1+1)^2", 4310)]:
        start = time.perf_counter()
        with pytest.raises(ParseError, match="coefficient of more than 4300 digits") as err:
            parse(text, CH2)
        assert err.value.offset == offset
        assert time.perf_counter() - start < 1
        assert _outcome(reference_parse, text, CH2) == _outcome(parse, text, CH2)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=-10 ** 12, max_value=10 ** 12),
       st.integers(min_value=1, max_value=10 ** 12), st.integers(min_value=2, max_value=5000))
def test_power_fits_matches_the_exact_power(num, den, n):
    value = Fraction(num, den)
    bound = 10 ** LITERAL_DIGIT_LIMIT
    exact = abs(value.numerator) ** n < bound and value.denominator ** n < bound
    assert poly._power_fits((value,), n) == exact


@settings(max_examples=200, deadline=None)
@given(st.lists(st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 4)
                .filter(bool), min_size=2, max_size=6),
       st.integers(min_value=2, max_value=3000))
def test_power_fits_bounds_the_sum_of_numerators(coeffs, n):
    """A base (1/D) * sum a_i m_i fits when (sum |a_i|)^n and D^n have at
    most `LITERAL_DIGIT_LIMIT` digits, D the least common denominator."""
    den = 1
    for c in coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    total = sum(abs(c.numerator) * (den // c.denominator) for c in coeffs)
    bound = 10 ** LITERAL_DIGIT_LIMIT
    assert poly._power_fits(tuple(coeffs), n) == (total ** n < bound and den ** n < bound)


def test_power_of_a_sum_is_bounded_before_it_expands():
    """A power of a base of t >= 2 terms is expanded by N - 1 products by
    the base, so it is refused at its exponent when those products would
    multiply more than `PRODUCT_PAIR_BUDGET` term pairs, t * (C(N + t - 1,
    t) - 1)."""
    ch4 = base_chart("M", ["x1", "x2", "x3", "x4"])
    # 2 * (C(500, 2) - 1) = 249,498 pairs; (x1+x2+x3+x4+1)^20 has 212,515
    assert parse("(x1+1)^499", ch4) == reference_parse("(x1+1)^499", ch4)
    assert parse("(x1+1)^499", ch4).terms[(17, 0, 0, 0)] == math.comb(499, 17)
    cases = [("(x1+1)^500", 7, "250498 term pairs"), ("(x1+x2+1)^190", 10, "3483837 term pairs"),
             ("(x1+1)^2000", 7, "4001998 term pairs"), ("(x1+1)^19999", 7, "term pairs"),
             ("(1/2*x1+1/3*x2)^4000", 16, "term pairs")]
    for text, offset, message in cases:
        start = time.perf_counter()
        with pytest.raises(ParseError, match=message) as err:
            parse(text, ch4)
        assert err.value.offset == offset
        assert time.perf_counter() - start < 1
        assert _outcome(reference_parse, text, ch4) == _outcome(parse, text, ch4)


def test_one_pair_budget_per_expression(monkeypatch):
    """Every product and power-of-sum expansion of one expression counts
    its term pairs toward one `PRODUCT_PAIR_BUDGET`, refused at the
    operator where the total passes it, before that product is formed."""
    ch4 = base_chart("M", ["x1", "x2", "x3", "x4"])
    # 60 powers that each fit: refused at the second one's exponent
    for count in (2, 20, 60):
        text = "+".join(["(x1+1)^499"] * count)
        start = time.perf_counter()
        with pytest.raises(ParseError, match="498996 term pairs in all") as err:
            parse(text, ch4)
        assert err.value.offset == 18
        assert time.perf_counter() - start < 1
    text = "+".join(["(x1+x2+x3+x4+1)^20"] * 5)
    with pytest.raises(ParseError, match="425030 term pairs in all") as err:
        parse(text, ch4)
    assert err.value.offset == 35
    for module in (poly, conftest):
        monkeypatch.setattr(module, "PRODUCT_PAIR_BUDGET", 6)
    cases = [
        ("(x1+x2) * (x1+x2+x3)", None),                # 6 pairs
        ("(x1+x2)*(x1+x2+x3) + x1*x2", 23),            # 6 + 1
        ("x1*x2*x3*x4*x1*x2*x3", None),                # 6 monomial products
        ("x1*x2*x3*x4*x1*x2*x3*x4", 20),
        ("0*x1*x2*x3*x4*x1*x2*x3*x4", None),           # a zero factor pairs with nothing
        ("(x1+x2)^2 + (x1+x2)^2", 20),                 # 2 * (C(3, 2) - 1) = 4 each
        ("(x1+x2)^2 * x3", 10),                        # 4, then 3 terms times 1
    ]
    for text, offset in cases:
        got = _outcome(parse, text, ch4)
        assert got == _outcome(reference_parse, text, ch4)
        if offset is None:
            assert got[0] == "ok", text
        else:
            assert got[1] is ParseError and "in all" in got[2] and got[3] == offset, text


def test_parse_matches_reference_on_pinned_cases():
    cases = {
        "2/3^2": Fraction(4, 9),
        "- 3": -3,
        "x1^0": 1,
        "0^0": 1,
        # the exponent guard holds only while the product is nonzero
        "0*x1^30000*x1^30000": 0,
    }
    for text, value in cases.items():
        assert parse(text, CH2) == reference_parse(text, CH2) == Polynomial.const(CH2, value)
    errors = {
        "-x1": (1, "expected digits after '-'"),
        "x1^^2": (3, "expected unsigned integer exponent"),
        "x1^30000*x1^30000": (8, "exponent of x1 above 32767 in a product"),
        "1" * (LITERAL_DIGIT_LIMIT + 1): (0, f"integer literal of {LITERAL_DIGIT_LIMIT + 1} digits"),
    }
    for text, (offset, message) in errors.items():
        got = _outcome(parse, text, CH2)
        assert got == _outcome(reference_parse, text, CH2)
        assert got[1] is ParseError and message in got[2] and got[3] == offset


def test_non_ascii_digits_are_refused_at_their_offset():
    for text, offset in [("x1^\u00b2", 3), ("\u0663*x1", 0), ("x1 + 2\u0663", 6),
                         ("1/\u0663", 2), ("x1^3\u00b2", 4)]:
        with pytest.raises(ParseError) as err:
            parse(text, CH2)
        assert err.value.offset == offset


def _outcome(parser, text: str, chart: Chart) -> tuple:
    """("ok", typed term map) or ("error", exception type, message, offset)."""
    try:
        p = parser(text, chart)
    except Exception as exc:  # any exception, so that the two parsers' are compared
        return ("error", type(exc), str(exc), getattr(exc, "offset", None))
    return ("ok", {e: (type(c), c) for e, c in p.terms.items()})


_ATOMS = ["x1", "x2", "x3", *"0123456789"]
_SYMBOLS = [*"+-*/^()", " "]


def _valid_expressions():
    """Expressions of the grammar, spaced at random."""
    space = st.sampled_from(["", "", " ", "  "])
    rational = st.builds(lambda sign, num, den: f"{sign}{num}{den}",
                         st.sampled_from(["", "-", "- "]), st.integers(0, 99).map(str),
                         st.sampled_from(["", "/1", "/3", "/12", "/0"]))
    # large powers of atoms reach the exponent limit and the product guard
    atom = st.builds(lambda a, pw: a + pw, st.one_of(rational, st.sampled_from(["x1", "x2", "x3"])),
                     st.sampled_from([""] * 7 + ["^16384", "^32767", "^40000"]))

    def extend(inner):
        factor = st.one_of(atom, inner.map(lambda e: f"({e})"))
        factor = st.builds(lambda f, pw: f + pw, factor, st.sampled_from(["", "", "^2", "^0", "^ 3"]))
        term = st.lists(factor, min_size=1, max_size=3).flatmap(
            lambda fs: space.map(lambda s: f"{s}*{s}".join(fs)))
        return st.lists(term, min_size=1, max_size=3).flatmap(
            lambda ts: st.sampled_from([" + ", "-", " - "]).map(lambda op: op.join(ts)))

    return st.recursive(atom, extend, max_leaves=8)


_EXPRESSIONS = st.one_of(
    st.lists(st.sampled_from(_ATOMS + _SYMBOLS), max_size=16).map("".join),
    _valid_expressions(),
)


@settings(max_examples=600, deadline=None)
@given(_EXPRESSIONS)
def test_parse_matches_the_per_character_reference(text):
    """The tokenized parser gives the reference's term map, or its
    exception with the same message and offset."""
    assert _outcome(parse, text, CH3) == _outcome(reference_parse, text, CH3)


def test_eval_examples():
    assert parse("x1^2*x2", CH2).eval({"x1": 2, "x2": 3}) == 12
    assert Polynomial.zero(CH2).eval({"x1": 7, "x2": -1}) == 0
    assert parse("x1 - 1/2", CH2).eval({"x1": Fraction(1, 2), "x2": 0}) == 0


def test_eval_sparse_high_degree():
    """A few terms of degree near the exponent limit at a non-integer point
    cost a few powers, one per exponent that occurs, not one per degree up
    to the top one."""
    top = EXPONENT_LIMIT
    p = parse(f"x1^{top} - 3*x1^{top - 1}*x2^{top} + 1/2", CH2)
    x1, x2 = Fraction(1000, 999), Fraction(-7, 3)
    value = p.eval({"x1": x1, "x2": x2})
    assert type(value) is Fraction
    assert value == x1 ** top - 3 * x1 ** (top - 1) * x2 ** top + Fraction(1, 2)


def test_eval_missing_coordinate():
    with pytest.raises(ChartError):
        parse("x1", CH2).eval({"x1": 1})


def _strat_poly(chart):
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    exps = st.tuples(*[st.integers(min_value=0, max_value=3)] * chart.dim)
    return st.dictionaries(exps, coeff, max_size=4).map(lambda t: Polynomial(chart, t))


@settings(max_examples=60, deadline=None)
@given(_strat_poly(CH2), _strat_poly(CH2), _strat_poly(CH2))
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p * Polynomial.const(CH2, 1) == p
    assert (p - p).is_zero()


@settings(max_examples=60, deadline=None)
@given(_strat_poly(CH3))
def test_partials_commute(p):
    assert p.diff("x1").diff("x2") == p.diff("x2").diff("x1")
    assert p.diff("x3").diff("x1") == p.diff("x1").diff("x3")


FIBER_CHARTS = [Chart(f"M|u{r}", CH2.coords + tuple(Coord(f"u{d}", base=False)
                                                     for d in range(1, r + 1)))
                for r in range(4)]
# base coordinates in the same slots, then copy coordinates, as on a
# prolongation chart
COPY_TARGET = Chart("M|T", CH2.coords + (Coord("y1", base=False), Coord("y2", base=False)))


@st.composite
def _fiber_polys(draw):
    """A polynomial on a total chart of rank 0 to 3 whose terms are free of
    the fiber, in one fiber coordinate u_d^m, or in two or more; a term may
    come with a partner one power of u_d up and of opposite sign, which
    cancels it at u_d = 1 only."""
    chart = draw(st.sampled_from(FIBER_CHARTS))
    rank = chart.dim - 2
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    terms: dict = {}

    def add(exps, c):
        terms[exps] = terms.get(exps, 0) + c

    for _ in range(draw(st.integers(0, 6))):
        base = draw(st.tuples(st.integers(0, 2), st.integers(0, 2)))
        fiber = [0] * rank
        kind = draw(st.sampled_from(["free", "power", "mixed"][:min(rank, 2) + 1]))
        if kind == "power":
            fiber[draw(st.integers(0, rank - 1))] = draw(st.integers(1, 4))
        elif kind == "mixed":
            for d in draw(st.lists(st.integers(0, rank - 1), min_size=2, max_size=rank,
                                   unique=True)):
                fiber[d] = draw(st.integers(1, 2))
        c = draw(coeff)
        add(base + tuple(fiber), c)
        if kind != "mixed" and rank and draw(st.booleans()):
            d = fiber.index(max(fiber)) if kind == "power" else draw(st.integers(0, rank - 1))
            partner = list(fiber)
            partner[d] += 1
            add(base + tuple(partner), -c)
    return Polynomial(chart, terms), chart.names[2:]


def _canonical_terms(p: Polynomial) -> bool:
    return all(c and (type(c) is int or c.denominator != 1) for c in p._terms.values())


@settings(max_examples=300, deadline=None)
@given(_fiber_polys(), st.sampled_from([CH2, COPY_TARGET]))
def test_unit_restrictions_match_the_per_point_reference(case, target):
    p, names = case
    split = p.unit_restrictions(names, target)
    assert len(split) == len(names) + 1
    assert split == reference_unit_restrictions(p, names, target)
    assert all(q.chart == target and _canonical_terms(q) for q in split)


def test_unit_restrictions_pinned_cases():
    chart = FIBER_CHARTS[2]

    def split(text):
        return [str(q) for q in parse(text, chart).unit_restrictions(("u1", "u2"), COPY_TARGET)]

    assert split("0") == ["0"] * 3
    assert split("x1*u1^3 + 1/2*u1*u2 - x2*u2^2 + 3") == ["3", "x1 + 3", "-1*x2 + 3"]
    # cancels at u1 = 1 only, and leaves an integral sum as an int
    assert split("x1*u1 - x1*u1^2 + 1/2*u2 + 1/2*u2^5") == ["0", "0", "1"]
    # rank 0: the polynomial itself, on the target chart
    p = parse("x1^2 - 2/3*x2", CH2)
    assert p.unit_restrictions((), COPY_TARGET) == [p.promote(COPY_TARGET)]


def test_unit_restrictions_need_the_kept_slots_on_the_target():
    p = parse("x1 + u1", FIBER_CHARTS[1])
    for target in [base_chart("N", ["x2", "x1"]), base_chart("N", ["x1"]),
                   base_chart("N", ["x1", "y", "x2"])]:
        with pytest.raises(ChartError):
            p.unit_restrictions(("u1",), target)
    with pytest.raises(ChartError):
        p.unit_restrictions(("u2",), CH2)


def test_derivative_matches_difference_quotient():
    # exact check of d/dx against the algebraic difference quotient
    # (p(x+h) - p(x)) / h evaluated at h-values exceeding the degree bound
    rng = random.Random(5)
    for _ in range(100):
        terms = {}
        for _ in range(3):
            e = (rng.randint(0, 3), rng.randint(0, 3))
            terms[e] = Fraction(rng.randint(-4, 4))
        p = Polynomial(CH2, terms)
        x0 = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        x2v = Fraction(rng.randint(-3, 3))
        d_exact = p.diff("x1").eval({"x1": x0, "x2": x2v})
        # central difference quotient of a degree <= 3 polynomial is exact in
        # the limit; reconstruct the limit by polynomial interpolation in h
        hs = [Fraction(1, m) for m in (1, 2, 3, 4, 5)]
        quotients = []
        for h in hs:
            up = p.eval({"x1": x0 + h, "x2": x2v})
            dn = p.eval({"x1": x0 - h, "x2": x2v})
            quotients.append((up - dn) / (2 * h))
        # quotient(h) is a polynomial in h^2 of degree <= 1 for cubics; its
        # value at h = 0 is the derivative.  Lagrange-extrapolate exactly.
        value = Fraction(0)
        pts = [(h * h, q) for h, q in zip(hs[:3], quotients[:3])]
        for i, (hi, qi) in enumerate(pts):
            term = qi
            for j, (hj, _) in enumerate(pts):
                if i != j:
                    term *= (0 - hj) / (hi - hj)
            value += term
        assert value == d_exact


def test_format_parse_roundtrip_random():
    rng = random.Random(11)
    for _ in range(200):
        terms = {}
        for _ in range(rng.randint(0, 4)):
            e = (rng.randint(0, 3), rng.randint(0, 2), rng.randint(0, 2))
            terms[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        p = Polynomial(CH3, terms)
        assert parse(format_polynomial(p), CH3) == p


def test_canonical_printing_is_stable():
    p = parse("x2 + x1", CH2)
    q = parse("x1 + x2", CH2)
    assert format_polynomial(p) == format_polynomial(q)
    assert format_polynomial(parse("0", CH2)) == "0"
    assert format_polynomial(parse("0 - x1", CH2)) == "-1*x1"


def test_zero_dimensional_chart():
    pt = base_chart("pt", [])
    p = parse("3/7", pt)
    assert p.eval({}) == Fraction(3, 7)
    assert (p * p).terms == {(): Fraction(9, 49)}


def test_chart_roles_and_validation():
    with pytest.raises(ChartError, match="chart 'M': 'x'$"):
        base_chart("M", ["x", "y", "x"])
    with pytest.raises(ChartError):
        Chart("M", (Coord("u", base=False), Coord("x")))


def test_substitute_composition():
    # p(x1, x2) composed with x1 -> y^2, x2 -> y + 1 on a one-variable chart
    tgt = base_chart("N", ["y"])
    p = parse("x1*x2 + x2^2", CH2)
    image = substitute(p, {"x1": parse("y^2", tgt), "x2": parse("y + 1", tgt)}, tgt)
    assert image == parse("y^3 + 2*y^2 + 2*y + 1", tgt)
