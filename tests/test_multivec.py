"""Linear multivectors, derivations, the Gerstenhaber checker and dual oracle."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest

from conftest import (
    coboundary_derivation,
    det_of_components,
    reference_derivation_violations,
    rnd_algebroid,
    rnd_linear_multivector,
    rnd_poly,
    rnd_section,
    rnd_unchecked_algebroid,
)
from imcalc.algebroid import (
    LieAlgebroid, Section, check_axioms, cotangent_prolongation, section_bracket,
)
from imcalc.errors import AlgebroidError, CrossCheckError
from imcalc.forms import DifferentialForm, Multivector, exterior_derivative
from imcalc.linforms import cross_check_frame_values, total_chart_of
from imcalc.multivec import (
    Derivation,
    LinearMultivector,
    check_gerstenhaber_derivation,
    derivation_from_linear,
    is_linear_multivector,
    linear_from_derivation,
    multivector_frame_functional,
    oracle_equivalence_dual,
)
from imcalc.poly import ChartError, Polynomial, base_chart, parse
from support import (
    apply_derivation,
    broken_jacobi_algebroid,
    broken_koszul_algebroid,
    evaluate_multivector,
    form_function,
    koszul_so3_algebroid,
    scalar,
    scalar_action,
    scale,
    section_from_components,
    so3_algebroid,
    substitute,
    tangent_algebroid,
    wedge,
)


def test_shape_examples():
    algebroid = tangent_algebroid(("x1", "x2", "x3"), "R")
    tc = total_chart_of(algebroid)
    chart = tc.chart
    u1 = parse("u1", chart)
    du = [tc.chart.index(n) for n in tc.fiber_names]
    good_fiber = Multivector(chart, 2, {(du[1], du[2]): u1})
    assert is_linear_multivector(good_fiber, tc)
    good_mixed = Multivector(chart, 2, {(0, du[0]): Polynomial.const(chart, 1)})
    assert is_linear_multivector(good_mixed, tc)
    assert not is_linear_multivector(Multivector(chart, 2, {(du[0], du[1]): u1 * u1}), tc)
    assert not is_linear_multivector(Multivector(chart, 2, {(0, 1): u1}), tc)


def test_coordinate_correspondence_so3():
    so3 = so3_algebroid()
    one = Polynomial.const(so3.base_chart, 1)
    p = LinearMultivector(so3, 2, {((1, 2), 0): one}, {})
    d = derivation_from_linear(p)
    assert d.frame_action(0) == Section(so3, 2, {(1, 2): -one})
    assert d.frame_action(1).is_zero() and d.frame_action(2).is_zero()
    assert not d.on_coord  # point base


def test_roundtrip_bijection(rng):
    for _ in range(50):
        algebroid = rnd_algebroid(rng)
        k = rng.choice([1, 2, 3])
        p = rnd_linear_multivector(rng, algebroid, k)
        d = derivation_from_linear(p)
        back = linear_from_derivation(d)
        assert back.fiber == p.fiber and back.mixed == p.mixed
        if algebroid.base_chart.dim and k <= algebroid.rank:
            again = derivation_from_linear(back)
            assert again.on_coord == d.on_coord and again.on_frame == d.on_frame


def test_multivector_table_roundtrip(rng):
    for _ in range(20):
        algebroid = rnd_algebroid(rng)
        tc = total_chart_of(algebroid)
        k = rng.choice([1, 2])
        p = rnd_linear_multivector(rng, algebroid, k)
        field = p.to_multivector(tc)
        assert is_linear_multivector(field, tc)
        back = LinearMultivector.from_multivector(field, algebroid)
        assert back.fiber == p.fiber and back.mixed == p.mixed


def test_wedge_bracket_examples():
    so3 = so3_algebroid()
    one = Polynomial.const(so3.base_chart, 1)
    e1 = Section.frame(so3, 0)
    e23 = Section(so3, 2, {(1, 2): one})
    assert section_bracket(e1, e23).is_zero()
    koszul = koszul_so3_algebroid()
    u = Section.frame(koszul, 0)
    f = Section.function(koszul, parse("x2", koszul.base_chart))
    # [u, f] is the anchor derivative of the scalar
    assert scalar(section_bracket(u, f)) == parse("x3", koszul.base_chart)


def test_wedge_bracket_graded_identities(rng):
    for _ in range(15):
        algebroid = rnd_algebroid(rng)
        dp, dq = rng.choice([0, 1, 2]), rng.choice([0, 1, 2])
        u = rnd_section(rng, algebroid, dp)
        v = rnd_section(rng, algebroid, dq)
        sign = Fraction(-1 if ((dp - 1) * (dq - 1)) % 2 == 0 else 1)
        assert section_bracket(u, v) == scale(section_bracket(v, u), sign)
    for _ in range(10):
        algebroid = rnd_algebroid(rng)
        du, dv, dw = (rng.choice([1, 2]) for _ in range(3))
        u, v, w = (rnd_section(rng, algebroid, d) for d in (du, dv, dw))
        lhs = section_bracket(u, section_bracket(v, w))
        sign = Fraction(-1 if ((du - 1) * (dv - 1)) % 2 else 1)
        rhs = (section_bracket(section_bracket(u, v), w)
               + scale(section_bracket(v, section_bracket(u, w)), sign))
        assert lhs == rhs


def test_derivation_checker_fixtures(rng):
    so3 = so3_algebroid()
    one = Polynomial.const(so3.base_chart, 1)
    zero_d = Derivation(so3, 2, {}, {n: Section.zero(so3, 2) for n in so3.frame_names})
    assert check_gerstenhaber_derivation(zero_d).passed

    r = Section(so3, 2, {(0, 1): one})
    cob = Derivation(so3, 2, {}, {
        so3.frame_names[a]: section_bracket(Section.frame(so3, a), r)
        for a in range(3)})
    assert check_gerstenhaber_derivation(cob).passed

    bad = Derivation(so3, 2, {}, {
        so3.frame_names[0]: Section(so3, 2, {(0, 1): one}),
        so3.frame_names[1]: Section.zero(so3, 2),
        so3.frame_names[2]: Section.zero(so3, 2)})
    report = check_gerstenhaber_derivation(bad)
    assert not report.passed
    assert report.violations[0].condition == "R3"
    assert report.violations[0].witness[:2] == ("e1", "e2")


@pytest.mark.parametrize("k", [1, 2, 3])
def test_derivation_check_matches_the_bracket_reference(rng, k):
    """The closed-form generator brackets give the violations, in order, and
    the notes of the residuals assembled from `section_bracket`: on random
    Lie algebroids and on unchecked data that breaks Jacobi, for derivations
    of random linear multivectors and for coboundaries."""
    algebroids = [broken_jacobi_algebroid(), broken_koszul_algebroid(), koszul_so3_algebroid()]
    algebroids += [rnd_algebroid(rng) for _ in range(6)]
    algebroids += [rnd_unchecked_algebroid(rng) for _ in range(6)]
    seen = {"R1": 0, "R2": 0, "R3": 0, "passed": 0, "gated": 0}
    for algebroid in algebroids:
        cases = [derivation_from_linear(rnd_linear_multivector(rng, algebroid, k)),
                 coboundary_derivation(rng, algebroid, k)]
        gated = not check_axioms(algebroid).passed
        for d in cases:
            report = check_gerstenhaber_derivation(d)
            expected = reference_derivation_violations(d)
            assert report.violations == tuple(expected)
            assert report.passed == (not expected)
            assert report.notes == (
                ("algebroid axioms fail; derivation verdicts reported on non-Lie data",)
                if gated else ())
            for v in report.violations:
                seen[v.condition] = seen.get(v.condition, 0) + 1
            seen["passed"] += report.passed
            seen["gated"] += gated
    # every condition and both verdicts occur, so no formula goes untested
    assert all(seen[tag] for tag in ("R2", "R3", "passed", "gated")), seen
    assert seen["R1"] or k == 1, seen


def test_coboundaries_pass_everywhere(rng):
    for _ in range(12):
        algebroid = rnd_algebroid(rng)
        k = rng.choice([1, 2])
        if k > algebroid.rank:
            continue
        d = coboundary_derivation(rng, algebroid, k)
        assert check_gerstenhaber_derivation(d).passed


def test_derivation_apply_leibniz(rng):
    for _ in range(10):
        algebroid = rnd_algebroid(rng)
        k = rng.choice([1, 2])
        if k > algebroid.rank:
            continue
        d = coboundary_derivation(rng, algebroid, k)
        u = rnd_section(rng, algebroid, 1)
        v = rnd_section(rng, algebroid, 1)
        lhs = apply_derivation(d, wedge(u, v))
        sign = Fraction(-1 if (k - 1) % 2 else 1)
        rhs = wedge(apply_derivation(d, u), v) + scale(wedge(u, apply_derivation(d, v)), sign)
        assert lhs == rhs


def test_full_derivation_property_on_wedges(rng):
    """The reduced generator conditions imply the bracket-derivation property
    on random wedge pairs; checked here as a property, not by the checker."""
    for _ in range(8):
        algebroid = rnd_algebroid(rng)
        k = rng.choice([1, 2])
        if k > algebroid.rank:
            continue
        d = coboundary_derivation(rng, algebroid, k)
        assert check_gerstenhaber_derivation(d).passed
        dp, dq = rng.choice([1, 2]), rng.choice([1, 2])
        u = rnd_section(rng, algebroid, dp)
        v = rnd_section(rng, algebroid, dq)
        lhs = apply_derivation(d, section_bracket(u, v))
        sign = Fraction(-1 if ((dp - 1) * (k - 1)) % 2 else 1)
        rhs = (section_bracket(apply_derivation(d, u), v)
               + scale(section_bracket(u, apply_derivation(d, v)), sign))
        assert lhs == rhs


def test_k1_checker_matches_direct_derivation_expansion(rng):
    """For k = 1 the checker verdict coincides with the direct statement
    that (scalar action, frame action) is an algebroid derivation."""
    for _ in range(12):
        algebroid = rnd_algebroid(rng)
        chart = algebroid.base_chart
        on_coord = {n: Section.function(algebroid, rnd_poly(rng, chart, 1))
                    for n in chart.names}
        on_frame = {n: rnd_section(rng, algebroid, 1)
                    for n in algebroid.frame_names}
        d = Derivation(algebroid, 1, on_coord, on_frame)
        verdict = check_gerstenhaber_derivation(d).passed

        ok = True
        # bracket derivation on frame pairs
        for a in range(algebroid.rank):
            ea = Section.frame(algebroid, a)
            for b in range(a + 1, algebroid.rank):
                eb = Section.frame(algebroid, b)
                lhs = apply_derivation(d, section_bracket(ea, eb))
                rhs = (section_bracket(apply_derivation(d, ea), eb)
                       + section_bracket(ea, apply_derivation(d, eb)))
                ok = ok and lhs == rhs
        # compatibility with the anchor action on coordinates
        for a in range(algebroid.rank):
            ea = Section.frame(algebroid, a)
            for name in chart.names:
                f = Polynomial.variable(chart, name)
                lhs = apply_derivation(d, section_bracket(ea, Section.function(algebroid, f)))
                rhs = (section_bracket(apply_derivation(d, ea), Section.function(algebroid, f))
                       + section_bracket(ea, scalar_action(d, f)))
                ok = ok and lhs == rhs
        assert verdict == ok


# -- frame functionals and the dual oracle ------------------------------------

def test_frame_functional_so3_determinant_value():
    so3 = so3_algebroid()
    one = Polynomial.const(so3.base_chart, 1)
    # frame action delta e_1 = -e_2 ^ e_3 corresponds to fiber entry +1
    p = LinearMultivector(so3, 2, {((1, 2), 0): one}, {})
    prol, values = multivector_frame_functional(p)
    value = dict(zip(prol.frame_names, values))
    expected = parse("xi1_2*xi2_3 - xi1_3*xi2_2", prol.base_chart)
    assert value["e1_L"] == expected
    assert value["e2_L"].is_zero()


def test_frame_functional_zero_and_point_base():
    so3 = so3_algebroid()
    p = LinearMultivector(so3, 2, {}, {})
    prol, values = multivector_frame_functional(p)
    assert all(v.is_zero() for v in values)
    assert all(not n.startswith("d") for n in prol.frame_names)


def test_frame_functional_dual_route_random(rng):
    for _ in range(10):
        algebroid = rnd_algebroid(rng)
        k = rng.choice([1, 2])
        p = rnd_linear_multivector(rng, algebroid, k)
        prol, values = multivector_frame_functional(p)
        assert prol == cotangent_prolongation(algebroid, k)
        assert len(values) == prol.rank


@pytest.mark.parametrize("k", [1, 2, 3])
def test_multivector_cross_check_raises_on_each_wrong_value(rng, k):
    algebroid = rnd_algebroid(rng)
    while algebroid.base_chart.dim == 0:   # core values need a base coordinate
        algebroid = rnd_algebroid(rng)
    for algebroid in (koszul_so3_algebroid(), algebroid):
        p = rnd_linear_multivector(rng, algebroid, k)
        prol, values = multivector_frame_functional(p)
        tc = total_chart_of(algebroid)
        table = p.to_multivector(tc)
        for a, name in enumerate(prol.frame_names):
            wrong = values[:a] + (values[a] + 1,) + values[a + 1:]
            with pytest.raises(CrossCheckError, match=f"on {re.escape(name)}$"):
                cross_check_frame_values(table, tc, prol, tc.fiber_positions(),
                                         range(tc.base_chart.dim), wrong)


def test_dual_oracle_fixtures(rng):
    so3 = so3_algebroid()
    one = Polynomial.const(so3.base_chart, 1)
    r = Section(so3, 2, {(0, 1): one})
    cob = Derivation(so3, 2, {}, {
        so3.frame_names[a]: section_bracket(Section.frame(so3, a), r)
        for a in range(3)})
    assert oracle_equivalence_dual(linear_from_derivation(cob)) == (True, True)

    bad = Derivation(so3, 2, {}, {
        so3.frame_names[0]: Section(so3, 2, {(0, 1): one}),
        so3.frame_names[1]: Section.zero(so3, 2),
        so3.frame_names[2]: Section.zero(so3, 2)})
    assert oracle_equivalence_dual(linear_from_derivation(bad)) == (False, False)

    zero = LinearMultivector(so3, 2, {}, {})
    assert oracle_equivalence_dual(zero) == (True, True)


def test_dual_oracle_random(rng):
    seen = {True: 0, False: 0}
    for _ in range(15):
        algebroid = rnd_algebroid(rng)
        k = rng.choice([1, 2])
        if k > algebroid.rank:
            k = 1
        if rng.random() < 0.45:
            p = linear_from_derivation(coboundary_derivation(rng, algebroid, k))
        else:
            p = rnd_linear_multivector(rng, algebroid, k)
        verdicts = oracle_equivalence_dual(p)
        assert verdicts[0] == verdicts[1]
        seen[verdicts[0]] += 1
    assert seen[True] >= 3 and seen[False] >= 3


# -- the defining pairing identities, validated as derived facts ---------------

def test_pairing_identities(rng):
    """The two defining pairing identities of the correspondence, validated
    symbolically against the coordinate formulas (which are authoritative
    here): contracting the multivector with fiber-linear function
    differentials reproduces the derivation pairings."""
    for _ in range(10):
        algebroid = rnd_algebroid(rng)
        if algebroid.base_chart.dim == 0:
            continue
        chart = algebroid.base_chart
        tc = total_chart_of(algebroid)
        k = rng.choice([1, 2])
        p = rnd_linear_multivector(rng, algebroid, k)
        d = derivation_from_linear(p)
        field = p.to_multivector(tc)
        r = algebroid.rank

        xis = [[rnd_poly(rng, chart, 1) for _ in range(r)] for _ in range(k)]
        f = rnd_poly(rng, chart, 1)

        def l_xi_differential(xi_comps):
            # d of the fiberwise-linear function sum_d xi_d u^d
            total = Polynomial.zero(tc.chart)
            for dd in range(r):
                total = total + (xi_comps[dd].promote(tc.chart)
                                 * Polynomial.variable(tc.chart, tc.fiber_names[dd]))
            return exterior_derivative(form_function(total))

        def pullback_d(g):
            return exterior_derivative(form_function(g.promote(tc.chart)))

        def pair_with_wedge(section, xi_list):
            # <section, xi^1 ^ ... ^ xi^l> via the determinant convention
            total = Polynomial.zero(chart)
            for b_tuple, poly in section.coeffs.items():
                rows = [{b: xi[b] for b in b_tuple} for xi in xi_list]
                total = total + poly * det_of_components(rows, b_tuple, chart)
            return total

        # first identity: k-1 linear differentials and one pulled-back df
        covs = [l_xi_differential(x) for x in xis[:k - 1]] + [pullback_d(f)]
        lhs = evaluate_multivector(field, covs)
        rhs = pair_with_wedge(scalar_action(d, f), xis[:k - 1]).promote(tc.chart)
        assert lhs == rhs

        # second identity: k linear differentials, evaluated along a section
        u = [rnd_poly(rng, chart, 1) for _ in range(r)]
        covs = [l_xi_differential(x) for x in xis]
        value = evaluate_multivector(field, covs)
        subs = {tc.fiber_names[dd]: u[dd].promote(chart) for dd in range(r)}
        value_along = substitute(value, {name: subs[name] for name in tc.fiber_names}, chart)

        u_section = section_from_components(algebroid, u)
        delta_u = apply_derivation(d, u_section)
        rhs = -pair_with_wedge(delta_u, xis)
        for i in range(k):
            pairing = Polynomial.zero(chart)
            for dd in range(r):
                pairing = pairing + xis[i][dd] * u[dd]
            rest = [l_xi_differential(x) for j, x in enumerate(xis) if j != i] \
                + [pullback_d(pairing)]
            term = evaluate_multivector(field, rest)
            term_along = substitute(term, {name: subs[name] for name in tc.fiber_names}, chart)
            rhs = rhs + (term_along if (i + 1 + k) % 2 == 0 else -term_along)
        assert value_along == rhs


def test_candidate_validation():
    """Each refusal of a candidate table, on both the fiber and the mixed
    table, with its message."""
    chart = base_chart("R", ("x1", "x2"))
    zero = Polynomial.zero(chart)
    # base dimension 2 and rank 3, so the two tables' index bounds differ
    algebroid = LieAlgebroid(chart, 3, ("e1", "e2", "e3"), [[zero, zero]] * 3, {})
    one = Polynomial.const(chart, 1)
    elsewhere = Polynomial.const(total_chart_of(algebroid).chart, 1)
    refusals = [
        # (table, key, coefficient, error, message), for k = 2
        ("fiber", ((0, 0), 1), one, AlgebroidError, "bad fiber wedge index (0, 0)"),
        ("fiber", ((1, 0), 1), one, AlgebroidError, "bad fiber wedge index (1, 0)"),
        ("fiber", ((0,), 1), one, AlgebroidError, "bad fiber wedge index (0,)"),
        ("mixed", ((0, 1), 1), one, AlgebroidError, "bad mixed wedge index (0, 1)"),
        ("mixed", ((), 1), one, AlgebroidError, "bad mixed wedge index ()"),
        ("fiber", ((0, 1), 3), one, AlgebroidError, "fiber table index out of range"),
        ("fiber", ((0, 3), 1), one, AlgebroidError, "fiber table index out of range"),
        ("mixed", ((0,), 2), one, AlgebroidError, "mixed table index out of range"),
        ("mixed", ((3,), 0), one, AlgebroidError, "mixed table index out of range"),
        ("fiber", ((0, 1), 1), elsewhere, ChartError,
         "fiber coefficients must live on the base chart"),
        ("mixed", ((0,), 1), elsewhere, ChartError,
         "mixed coefficients must live on the base chart"),
    ]
    for table, key, coeff, error, message in refusals:
        tables = {"fiber": {}, "mixed": {}}
        tables[table][key] = coeff
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            LinearMultivector(algebroid, 2, tables["fiber"], tables["mixed"])
    top = LinearMultivector(algebroid, 2, {((1, 2), 2): one}, {((2,), 1): one})
    assert (top.fiber, top.mixed) == ({((1, 2), 2): one}, {((2,), 1): one})
    so3 = so3_algebroid()
    with pytest.raises(AlgebroidError):
        Derivation(so3, 2, {}, {"e1": Section.zero(so3, 2)})
