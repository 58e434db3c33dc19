"""Cartan calculus: wedge, exterior derivative, contractions, the three
operator identities, and the Schouten bracket against independent oracles."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    contract_reference,
    derivation_reference,
    det_of_components,
    exterior_derivative_reference,
    graded_bracket_reference,
    rnd_algebroid,
    rnd_form,
    rnd_multivector,
    rnd_poly,
    rnd_section,
    rnd_unchecked_algebroid,
    rnd_vector_field,
    section_bracket_reference,
    wedge_frame_reference,
    wedge_reference,
)
from imcalc.algebroid import Section, section_bracket
from imcalc.forms import (
    Calculus,
    DifferentialForm,
    Minors,
    Multivector,
    VectorField,
    add_wedge,
    collect,
    contract,
    exterior_derivative,
    iterated_contract,
    lie_derivative,
    schouten,
    sort_indices,
)
from imcalc.poly import ChartError, Polynomial, base_chart, parse
from support import (
    apply_field, as_vector_field, contract_covector, coordinate_field, form_function, scalar,
    scale, wedge,
)

CH2 = base_chart("M", ["x1", "x2"])
CH3 = base_chart("M", ["x1", "x2", "x3"])


def dx(chart, i):
    return DifferentialForm(chart, 1, {(i,): Polynomial.const(chart, 1)})


def test_wedge_examples():
    w = wedge(dx(CH2, 0), dx(CH2, 1))
    assert w.coeffs == {(0, 1): Polynomial.const(CH2, 1)}
    assert wedge(dx(CH2, 0), dx(CH2, 0)).is_zero()
    scaled = wedge(scale(dx(CH2, 0), parse("x2", CH2)), dx(CH2, 1))
    assert scaled.coeffs == {(0, 1): parse("x2", CH2)}


def test_wedge_graded_commutativity(rng):
    for _ in range(20):
        p = rng.choice([0, 1, 2])
        q = rng.choice([0, 1, 2])
        a = rnd_form(rng, CH3, p)
        b = rnd_form(rng, CH3, q)
        sign = -1 if (p * q) % 2 else 1
        assert wedge(a, b) == scale(wedge(b, a), Fraction(sign))


def test_wedge_rejects_mixed_kinds():
    with pytest.raises(TypeError):
        wedge(dx(CH2, 0), Multivector(CH2, 1, {(0,): Polynomial.const(CH2, 1)}))


def test_exterior_derivative_examples():
    d = exterior_derivative(scale(dx(CH2, 1), parse("x1", CH2)))
    assert d == wedge(dx(CH2, 0), dx(CH2, 1))
    # canonical 1-form theta = p1 dx1 + p2 dx2 on (x1, x2, p1, p2):
    # -d(theta) = dx1 ^ dp1 + dx2 ^ dp2
    ch = base_chart("T*M", ["x1", "x2", "p1", "p2"])
    theta = (scale(dx(ch, 0), parse("p1", ch)) + scale(dx(ch, 1), parse("p2", ch)))
    omega = -exterior_derivative(theta)
    expected = wedge(dx(ch, 0), dx(ch, 2)) + wedge(dx(ch, 1), dx(ch, 3))
    assert omega == expected
    twice = exterior_derivative(exterior_derivative(
        scale(dx(CH2, 0), parse("x1^2*x2", CH2))))
    assert twice.is_zero()


def test_d_squared_zero_random(rng):
    ch = base_chart("M", ["x1", "x2", "x3", "x4"])
    for _ in range(100):
        deg = rng.choice([0, 1, 2])
        a = rnd_form(rng, ch, deg)
        assert exterior_derivative(exterior_derivative(a)).is_zero()


def test_contraction_examples():
    w = wedge(dx(CH2, 0), dx(CH2, 1))
    assert contract(coordinate_field(CH2, "x1"), w) == dx(CH2, 1)
    assert contract(coordinate_field(CH2, "x2"), w) == -dx(CH2, 0)
    fields = [coordinate_field(CH2, "x1"), coordinate_field(CH2, "x2")]
    full = iterated_contract(fields, w)
    assert scalar(full) == Polynomial.const(CH2, 1)


def test_degree_above_dimension_is_zero_not_error():
    high = DifferentialForm(CH2, 3)
    assert high.is_zero()
    assert exterior_derivative(high).is_zero()
    assert wedge(dx(CH2, 0), wedge(dx(CH2, 0), dx(CH2, 1))).degree == 3


def test_lie_derivative_examples():
    x1_field = coordinate_field(CH2, "x1")
    a = scale(dx(CH2, 1), parse("x1", CH2))
    assert lie_derivative(x1_field, a) == dx(CH2, 1)
    euler = VectorField(CH2, {(0,): parse("x1", CH2)})
    assert lie_derivative(euler, dx(CH2, 0)) == dx(CH2, 0)


def test_lie_derivative_leibniz(rng):
    for _ in range(20):
        x = rnd_vector_field(rng, CH3)
        f = rnd_poly(rng, CH3)
        a = rnd_form(rng, CH3, rng.choice([0, 1, 2]))
        lhs = lie_derivative(x, scale(a, f))
        rhs = scale(a, apply_field(x, f)) + scale(lie_derivative(x, a), f)
        assert lhs == rhs


def schouten_bivector_bruteforce(p: Multivector, q: Multivector) -> Multivector:
    """Independent expansion of the bracket of two bivectors over all index
    pairs:

        [f di^dj, g dk^dl] = f (dj g) di^dk^dl - f (di g) dj^dk^dl
                           + g (dl f) di^dj^dk - g (dk f) di^dj^dl
    """
    chart = p.chart
    names = chart.names
    items = []
    for (i, j), f in p.coeffs.items():
        for (k, l), g in q.coeffs.items():
            items.append(((i, k, l), f * g.diff(names[j])))
            items.append(((j, k, l), -(f * g.diff(names[i]))))
            items.append(((i, j, k), g * f.diff(names[l])))
            items.append(((i, j, l), -(g * f.diff(names[k]))))
    return Multivector.from_terms(chart, 3, items)


def poisson_jacobiator(pi: Multivector):
    """Jacobi defects {{x_i,x_j},x_k} + cyclic of the induced bracket."""
    chart = pi.chart
    names = chart.names

    def poisson(f, g):
        out = Polynomial.zero(chart)
        for (i, j), c in pi.coeffs.items():
            out = out + c * (f.diff(names[i]) * g.diff(names[j])
                             - f.diff(names[j]) * g.diff(names[i]))
        return out

    coords = [Polynomial.variable(chart, n) for n in names]
    for i, j, k in combinations(range(chart.dim), 3):
        yield (poisson(poisson(coords[i], coords[j]), coords[k])
               + poisson(poisson(coords[j], coords[k]), coords[i])
               + poisson(poisson(coords[k], coords[i]), coords[j]))


def test_schouten_lie_bracket():
    p = Multivector(CH2, 1, {(0,): Polynomial.const(CH2, 1)})
    q = Multivector(CH2, 1, {(1,): parse("x1", CH2)})
    assert schouten(p, q) == Multivector(CH2, 1, {(1,): Polynomial.const(CH2, 1)})
    f = Multivector(CH2, 0, {(): parse("x1^2", CH2)})
    assert scalar(schouten(p, f)) == parse("2*x1", CH2)


def rotation_bivector(chart, middle="x1"):
    return Multivector(chart, 2, {(0, 1): parse("x3", chart),
                                  (0, 2): parse("-1*x2", chart),
                                  (1, 2): parse(middle, chart)})


def test_schouten_so3_poisson():
    pi = rotation_bivector(CH3)
    assert schouten(pi, pi).is_zero()
    assert schouten_bivector_bruteforce(pi, pi).is_zero()
    assert all(j.is_zero() for j in poisson_jacobiator(pi))


def test_schouten_broken_bivector_nonzero():
    pi = rotation_bivector(CH3, middle="x3^2")
    engine = schouten(pi, pi)
    brute = schouten_bivector_bruteforce(pi, pi)
    assert not engine.is_zero()
    assert engine == brute
    assert any(not j.is_zero() for j in poisson_jacobiator(pi))


def test_schouten_matches_bruteforce_random(rng):
    for _ in range(25):
        p = rnd_multivector(rng, CH3, 2, max_deg=2)
        q = rnd_multivector(rng, CH3, 2, max_deg=2)
        assert schouten(p, q) == schouten_bivector_bruteforce(p, q)


def test_schouten_zero_iff_jacobi(rng):
    ch4 = base_chart("M", ["x1", "x2", "x3", "x4"])
    seen_nonzero = False
    for _ in range(15):
        pi = rnd_multivector(rng, ch4, 2, max_deg=1)
        bracket_zero = schouten(pi, pi).is_zero()
        jacobi_zero = all(j.is_zero() for j in poisson_jacobiator(pi))
        assert bracket_zero == jacobi_zero
        seen_nonzero = seen_nonzero or not bracket_zero
    assert seen_nonzero


def test_schouten_graded_identities(rng):
    for _ in range(25):
        dp, dq = rng.choice([0, 1, 2]), rng.choice([0, 1, 2])
        p = rnd_multivector(rng, CH3, dp)
        q = rnd_multivector(rng, CH3, dq)
        sign = Fraction(-1 if ((dp - 1) * (dq - 1)) % 2 == 0 else 1)
        assert schouten(p, q) == scale(schouten(q, p), sign)
    for _ in range(15):
        du, dv, dw = (rng.choice([1, 2]) for _ in range(3))
        u, v, w = (rnd_multivector(rng, CH3, d) for d in (du, dv, dw))
        lhs = schouten(u, schouten(v, w))
        sign = Fraction(-1 if ((du - 1) * (dv - 1)) % 2 else 1)
        rhs = schouten(schouten(u, v), w) + scale(schouten(v, schouten(u, w)), sign)
        assert lhs == rhs


def test_contract_covector():
    pi = Multivector(CH2, 2, {(0, 1): parse("x1", CH2)})
    alpha = dx(CH2, 0)
    assert contract_covector(alpha, pi) == Multivector(CH2, 1, {(1,): parse("x1", CH2)})


# -- the three operator identities ------------------------------------------
#
# When the contraction count exceeds the form degree, individual terms are
# identically zero but land in clamped degree 0; the accumulator checks that
# and skips them, so the identities are exercised across every degree regime.

def _acc(total: DifferentialForm, term: DifferentialForm) -> DifferentialForm:
    if term.degree != total.degree:
        assert term.is_zero()
        return total
    return total + term


def check_cartan_identity(rng, chart, m, deg) -> None:
    fields = [rnd_vector_field(rng, chart, max_deg=2) for _ in range(m)]
    alpha = rnd_form(rng, chart, deg, max_deg=2)
    lhs = iterated_contract(fields, exterior_derivative(alpha))
    rhs = DifferentialForm(chart, lhs.degree)
    for l in range(1, m + 1):
        inner = iterated_contract(fields[:l - 1], alpha)
        inner = lie_derivative(fields[l - 1], inner)
        inner = iterated_contract(fields[l:], inner)
        rhs = _acc(rhs, inner if (l + 1) % 2 == 0 else -inner)
    tail = exterior_derivative(iterated_contract(fields, alpha))
    rhs = _acc(rhs, tail if m % 2 == 0 else -tail)
    assert lhs == rhs


def check_commutator_identity(rng, chart, m, deg) -> None:
    fields = [rnd_vector_field(rng, chart, max_deg=2) for _ in range(m)]
    x = rnd_vector_field(rng, chart, max_deg=2)
    alpha = rnd_form(rng, chart, deg, max_deg=2)
    lhs = lie_derivative(x, iterated_contract(fields, alpha))
    rhs = iterated_contract(fields, lie_derivative(x, alpha))
    for l in range(1, m + 1):
        bracket = as_vector_field(schouten(x, fields[l - 1]))
        inner = iterated_contract(fields[:l - 1], alpha)
        inner = contract(bracket, inner)
        rhs = _acc(rhs, iterated_contract(fields[l:], inner))
    assert lhs == rhs


def check_function_factor_identity(rng, chart, m, deg) -> None:
    fields = [rnd_vector_field(rng, chart, max_deg=2) for _ in range(m)]
    f = rnd_poly(rng, chart, max_deg=2)
    df = exterior_derivative(form_function(f))
    alpha = rnd_form(rng, chart, deg, max_deg=2)
    lhs = iterated_contract(fields, wedge(df, alpha))
    rhs = DifferentialForm(chart, lhs.degree)
    for l in range(1, m + 1):
        factor = apply_field(fields[l - 1], f)
        inner = iterated_contract(fields[:l - 1], alpha)
        inner = scale(iterated_contract(fields[l:], inner), factor)
        rhs = _acc(rhs, inner if (l + 1) % 2 == 0 else -inner)
    tail = wedge(df, iterated_contract(fields, alpha))
    rhs = _acc(rhs, tail if m % 2 == 0 else -tail)
    assert lhs == rhs


@pytest.mark.parametrize("checker", [check_cartan_identity,
                                     check_commutator_identity,
                                     check_function_factor_identity])
def test_operator_identities_sample(rng, checker):
    ch4 = base_chart("M", ["x1", "x2", "x3", "x4"])
    for _ in range(12):
        m = rng.randint(1, 3)
        deg = rng.randint(0, 3)
        checker(rng, ch4, m, deg)


def test_chart_mismatch_rejected():
    other = base_chart("N", ["y1", "y2"])
    with pytest.raises(ChartError):
        wedge(dx(CH2, 0), dx(other, 0))
    with pytest.raises(ChartError):
        contract(coordinate_field(other, "y1"), dx(CH2, 0))


# -- minors against the permutation expansion ---------------------------------

MINOR_SETTINGS = settings(max_examples=40, deadline=None)

entries = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                          st.integers(-3, 3), max_size=3).map(lambda t: Polynomial(CH2, t))


@st.composite
def sparse_rows(draw):
    """1-4 rows over up to k + 2 columns, with missing entries and some
    columns that no row covers."""
    k = draw(st.integers(min_value=1, max_value=4))
    width = draw(st.integers(min_value=k, max_value=k + 2))
    uncovered = draw(st.sets(st.integers(0, width - 1), max_size=2))
    rows = [{col: draw(entries) for col in range(width)
             if col not in uncovered and draw(st.booleans())} for _ in range(k)]
    return rows, width


@MINOR_SETTINGS
@given(sparse_rows())
def test_minors_match_permutation_expansion(rows_width):
    rows, width = rows_width
    table = Minors(rows, CH2)
    for size in range(len(rows) + 1):
        for ids in combinations(range(len(rows)), size):
            for cols in combinations(range(width), size):
                expected = det_of_components([rows[i] for i in ids], cols, CH2)
                assert table.minors(ids, cols) == expected


@MINOR_SETTINGS
@given(sparse_rows(), st.data())
def test_unit_row_contraction_matches_augmented_rows(rows_width, data):
    rows, width = rows_width
    ids = tuple(sorted(data.draw(st.sets(st.integers(0, len(rows) - 1), min_size=1))))
    row = data.draw(st.sampled_from(ids))
    col = data.draw(st.integers(0, width - 1))
    coeffs = {idx: data.draw(entries) for idx in combinations(range(width), len(ids))
              if data.draw(st.booleans())}
    augmented = [dict(r) for r in rows]
    augmented[row][col] = augmented[row].get(col, Polynomial.zero(CH2)) + 1
    expected = Polynomial.zero(CH2)
    plain = Polynomial.zero(CH2)
    for idx, coeff in coeffs.items():
        expected = expected + coeff * det_of_components([augmented[i] for i in ids], idx, CH2)
        plain = plain + coeff * det_of_components([rows[i] for i in ids], idx, CH2)
    minors = Minors(rows, CH2)
    assert minors.contract(coeffs, ids, unit=(row, col)) == expected
    assert minors.contract(coeffs, ids) == plain


# -- collected operators against their per-term references ---------------------

COLLECT_SETTINGS = settings(max_examples=60, deadline=None)
CHARTS = {n: base_chart("M", [f"x{i}" for i in range(1, n + 1)]) for n in range(1, 5)}


@st.composite
def sparse_tables(draw, chart, degree: int) -> dict:
    """A sparse alternating table whose coefficients have at most two terms
    of degree at most 1 per coordinate, with coefficients in -2..2, so that
    terms from different index tuples often meet on one key and cancel."""
    coeff = st.dictionaries(st.tuples(*[st.integers(0, 1)] * chart.dim),
                            st.integers(-2, 2), min_size=1, max_size=2)
    table = {}
    for idx in combinations(range(chart.dim), degree):
        if draw(st.booleans()):
            p = Polynomial(chart, draw(coeff))
            if not p.is_zero():
                table[idx] = p
    return table


@st.composite
def forms_on_a_chart(draw, *degrees):
    """A chart of 1-4 coordinates and one sparse table per requested degree
    (None draws a degree from 0 to the dimension)."""
    chart = CHARTS[draw(st.integers(1, 4))]
    tables = [draw(sparse_tables(chart, d if d is not None else draw(st.integers(0, chart.dim))))
              for d in degrees]
    return chart, tables


def _degree(table: dict, default: int = 0) -> int:
    return len(next(iter(table))) if table else default


@COLLECT_SETTINGS
@given(forms_on_a_chart(1, None))
def test_contract_matches_per_term_reference(case):
    chart, (field, table) = case
    degree = _degree(table, 1)
    x = VectorField(chart, field)
    a = DifferentialForm(chart, degree, table)
    comps = {i: p for (i,), p in field.items()}
    assert contract(x, a).coeffs == (contract_reference(comps, table) if degree else {})
    # contracting twice with one field cancels every term
    assert contract(x, contract(x, a)).is_zero()
    alpha = DifferentialForm(chart, 1, field)
    p = Multivector(chart, degree, table)
    expected = contract_reference(comps, table) if degree else {}
    assert contract_covector(alpha, p).coeffs == expected


@COLLECT_SETTINGS
@given(forms_on_a_chart(None))
def test_exterior_derivative_matches_per_term_reference(case):
    chart, (table,) = case
    a = DifferentialForm(chart, _degree(table), table)
    da = exterior_derivative(a)
    assert da.coeffs == exterior_derivative_reference(table, chart)
    # d d = 0: every term of d(d a) cancels against another
    assert exterior_derivative(da).is_zero()
    assert exterior_derivative_reference(da.coeffs, chart) == {}


@COLLECT_SETTINGS
@given(forms_on_a_chart(None, None, 1))
def test_wedge_matches_per_term_reference(case):
    chart, (t1, t2, t3) = case
    a = DifferentialForm(chart, _degree(t1), t1)
    b = DifferentialForm(chart, _degree(t2), t2)
    assert wedge(a, b).coeffs == wedge_reference(t1, t2)
    # a 1-form wedged with itself cancels term by term
    c = DifferentialForm(chart, 1, t3)
    assert wedge(c, c).is_zero() and wedge_reference(t3, t3) == {}


@COLLECT_SETTINGS
@given(forms_on_a_chart(None, None, 1))
def test_schouten_matches_per_term_reference(case):
    chart, (t1, t2, t3) = case
    p, q = _degree(t1), _degree(t2)

    def fb(a, b):
        return ()

    def act(a, f):
        return f.diff(chart.names[a])

    assert (schouten(Multivector(chart, p, t1), Multivector(chart, q, t2)).coeffs
            == graded_bracket_reference(t1, p, t2, q, fb, act))
    # [X, X] = 0 for a vector field X
    assert graded_bracket_reference(t3, 1, t3, 1, fb, act) == {}
    assert schouten(Multivector(chart, 1, t3), Multivector(chart, 1, t3)).is_zero()


@COLLECT_SETTINGS
@given(st.integers(0, 2**32), st.integers(0, 3), st.integers(0, 3))
def test_gerstenhaber_bracket_matches_per_term_reference(seed, p, q):
    rng = random.Random(seed)
    algebroid = rnd_algebroid(rng)
    p, q = min(p, algebroid.rank), min(q, algebroid.rank)
    u = rnd_section(rng, algebroid, p)
    v = rnd_section(rng, algebroid, q)
    assert section_bracket(u, v) == section_bracket_reference(u, v)
    # graded antisymmetry makes [u, u] vanish for a section of odd degree
    if p % 2:
        assert section_bracket(u, u).is_zero()
        assert section_bracket_reference(u, u).is_zero()


# -- the operators of `forms.Calculus` against the per-term references ---------

def _collected(add) -> dict:
    groups: dict = {}
    add(groups)
    return collect(groups)


def _signed(table: dict, s: int) -> dict:
    return table if s > 0 else {key: -p for key, p in table.items()}


@pytest.mark.parametrize("s", [1, -1])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
@pytest.mark.parametrize("kind", ["form", "section"])
def test_operators_match_per_term_references(kind, degree, s):
    """Contraction, derivation, wedge and (on forms) d, each adding s times
    its value, on a form over 3 coordinates or a section table over 4 frame
    indices on 2 coordinates.  Every generator row reaches every index, so
    the derivation meets the in-place term l = t and replacements that
    repeat an index."""
    rng = random.Random(f"{kind}-{degree}-{s}")
    chart, bound = (CH3, 3) if kind == "form" else (CH2, 4)
    table = {idx: p for idx in combinations(range(bound), degree)
             if not (p := rnd_poly(rng, chart, 2, terms=3)).is_zero()}
    assert table
    ops = Calculus(chart)
    comps = {i: rnd_poly(rng, chart, 1) for i in range(bound)}
    field = {j: rnd_poly(rng, chart, 1) for j in range(chart.dim)}
    rows = {t: [(l, rnd_poly(rng, chart, 1)) for l in range(bound)] for t in range(bound)}
    pm_rows = {t: tuple((l, ops.pm(w)) for l, w in row) for t, row in rows.items()}
    w = rnd_poly(rng, chart, 1)
    head, tail = (1,), (bound - 1,)

    assert _collected(lambda g: ops.add_contract(g, comps, table, s)) \
        == _signed(contract_reference(comps, table), s)
    pm_field = ops.field(field.items())
    assert _collected(lambda g: ops.add_derivation(g, table, pm_field, pm_rows, s)) \
        == _signed(derivation_reference(table, field, rows, chart), s)
    assert _collected(lambda g: add_wedge(g, table, (w, -w), s, head, tail)) == _signed(
        {k: q for k, p in wedge_frame_reference(head, table, tail).items()
         if not (q := w * p).is_zero()}, s)
    if kind == "form":
        assert _collected(lambda g: ops.add_d(g, table, s)) \
            == _signed(exterior_derivative_reference(table, chart), s)


@pytest.mark.parametrize("s", [1, -1])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_lie_operator_is_cartans_lie_derivative(rng, degree, s):
    """The derivation with rows d X^t is L_X = i_X d + d i_X on forms."""
    for _ in range(3):
        x = rnd_vector_field(rng, CH3)
        a = rnd_form(rng, CH3, degree)
        ops = Calculus(CH3)
        lie = ops.lie((i, p) for (i,), p in x.coeffs.items())
        assert _collected(lambda g: ops.add_derivation(g, a.coeffs, *lie, s)) \
            == scale(lie_derivative(x, a), s).coeffs


@pytest.mark.parametrize("s", [1, -1])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_section_operators_are_the_generator_brackets(rng, degree, s):
    """The derivation of `frame_derivation(b)` is [P, e_b], and minus the
    contraction by anchor column i is [x_i, P], both against the per-term
    `section_bracket_reference` (`section_bracket` itself runs on these
    operators), on checked and unchecked algebroids."""
    for algebroid in (rnd_algebroid(rng), *(rnd_unchecked_algebroid(rng) for _ in range(2))):
        chart = algebroid.base_chart
        p = rnd_section(rng, algebroid, min(degree, algebroid.rank))
        ops = Calculus(chart)
        for b in range(algebroid.rank):
            bracket = scale(section_bracket_reference(p, Section.frame(algebroid, b)), s)
            assert _collected(lambda g: ops.add_derivation(
                g, p.coeffs, *algebroid.frame_derivation(b, ops), s)) == bracket.coeffs
        for i, name in enumerate(chart.names):
            column = {c: row[i] for c, row in enumerate(algebroid.anchor)}
            x = Section.function(algebroid, Polynomial.variable(chart, name))
            assert _collected(lambda g: ops.add_contract(g, column, p.coeffs, -s)) \
                == scale(section_bracket_reference(x, p), s).coeffs


@st.composite
def placement_case(draw):
    """A chart of 1-6 coordinates, a table of distinct sorted index tuples
    of one degree, each holding a polynomial with a nonzero partial in
    every coordinate, and derivation rows {t: [(l, (w, -w))]} with l any
    coordinate, t among them."""
    n = draw(st.integers(1, 6))
    chart = base_chart("P", [f"x{i + 1}" for i in range(n)])
    degree = draw(st.integers(0, n))
    keys = draw(st.sets(st.sets(st.integers(0, n - 1), min_size=degree, max_size=degree)
                        .map(lambda s: tuple(sorted(s))), min_size=1, max_size=4))
    total = sum(Polynomial.variable(chart, name) for name in chart.names)
    table = {idx: (total + c) ** 2 for c, idx in enumerate(sorted(keys), 1)}
    rows = {}
    for t in range(n):
        targets = draw(st.lists(st.integers(0, n - 1), max_size=3))
        rows[t] = tuple((l, (Polynomial.const(chart, 10 * t + l + 1),
                             Polynomial.const(chart, -10 * t - l - 1))) for l in targets)
    return chart, table, rows


@settings(max_examples=150, deadline=None)
@given(placement_case(), st.sampled_from([1, -1]))
def test_counted_placement_matches_sort_indices(case, s):
    """`Calculus.add_d`, `add_derivation` and `exterior_derivative` place
    an index by counting the indices below it; each key, sign and pair
    order is that of `sort_indices` on the unsorted tuple."""
    chart, table, rows = case
    ops = Calculus(chart)
    odd = s < 0
    d_groups, d_expected = {}, {}
    ops.add_d(d_groups, table, s)
    der_groups, der_expected = {}, {}
    ops.add_derivation(der_groups, table, {}, rows, s)
    for idx, f in table.items():
        for j in range(chart.dim):
            merged = sort_indices((j,) + idx)
            if merged is not None:
                d_expected.setdefault(merged[0], []).append((ops.partial(f, j), s * merged[1]))
        for pos, t in enumerate(idx):
            for l, w in rows[t]:
                merged = sort_indices(idx[:pos] + (l,) + idx[pos + 1:])
                if l == t:
                    der_expected.setdefault(idx, []).append((f, w[odd]))
                elif merged is not None:
                    der_expected.setdefault(merged[0], []).append((f, w[odd ^ (merged[1] < 0)]))
    assert d_groups == d_expected
    assert der_groups == der_expected
    if s == 1:
        form = DifferentialForm(chart, len(next(iter(table))), table)
        assert exterior_derivative(form).coeffs == collect(d_expected)
