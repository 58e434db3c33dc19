"""Linear forms: pairing forms, linearity, decomposition, tangent lifts,
frame values on the tangent prolongation."""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import rnd_algebroid, rnd_bundle_forms, rnd_form
from imcalc import cli
from imcalc.errors import AlgebroidError, CrossCheckError
from imcalc.forms import (
    DifferentialForm,
    VectorField,
    contract,
    exterior_derivative,
)
from imcalc.imforms import IMForm
from imcalc.linforms import (
    BundleForms,
    NotLinearError,
    TotalChart,
    cross_check_frame_values,
    decompose,
    fiber_pairing_form,
    form_frame_functional,
    is_linear,
    linear_form,
    total_chart,
    total_chart_of,
)
from imcalc.poly import Polynomial, base_chart, parse
from support import (
    exact_im_form,
    fiber_contraction,
    form_function,
    koszul_so3_algebroid,
    reference_fiber_pairing_form,
    reference_form_frame_values,
    scale,
    substitute,
    tangent_algebroid,
    tangent_lift,
    tangent_lift_involution_residual,
    tangent_total_chart,
    wedge,
)

CH2 = base_chart("M", ["x1", "x2"])


def pullback(form: DifferentialForm, mapping, source):
    """Pull a form back along a polynomial map given coordinatewise.

    `mapping` sends target coordinate names to polynomials on `source`;
    unmapped names must exist on the source chart.
    """
    def image(name):
        if name in mapping:
            return mapping[name]
        return Polynomial.variable(source, name)

    total = DifferentialForm(source, form.degree)
    for idx, coeff in form.coeffs.items():
        piece = form_function(substitute(coeff, mapping, source))
        for i in idx:
            piece = wedge(piece, exterior_derivative(
                form_function(image(form.chart.names[i]))))
        total = total + piece
    return total


def test_pairing_form_single_term():
    tc = total_chart(CH2, ("e1",))
    mu = (DifferentialForm(CH2, 1, {(0,): Polynomial.const(CH2, 1)}),)
    lam = fiber_pairing_form(mu, tc, 1)
    assert lam.coeffs == {(0,): parse("u1", tc.chart)}


def test_pairing_form_zero():
    tc = total_chart(CH2, ("e1", "e2"))
    zero = (DifferentialForm(CH2, 1), DifferentialForm(CH2, 1))
    assert fiber_pairing_form(zero, tc, 1).is_zero()


@pytest.mark.parametrize("k", [1, 2])
def test_rank_zero_forms_keep_their_degree(k):
    """At rank 0 the bundle maps are empty, so the pairing form takes its
    degree from the caller; the zero linear k-form decomposes."""
    tc = total_chart(CH2, ())
    assert fiber_pairing_form((), tc, k).degree == k
    zero = linear_form(BundleForms(k, (), ()), tc)
    assert zero.degree == k and zero.is_zero()
    assert decompose(zero, tc) == BundleForms(k, (), ())


def test_pairing_form_matches_the_running_sum(rng):
    """`fiber_pairing_form` collects each coefficient once; it equals the
    sum of u^d * maps[d] built one frame section at a time, on the corpus
    and ladder bundle forms and on random ones of rank 0 to 3."""
    cases = []
    for path in IM_DOCUMENTS:
        doc = json.loads(path.read_text())
        algebroid = cli.load_algebroid(doc)
        candidate = cli.load_candidate(doc, algebroid)
        tc = total_chart_of(algebroid)
        cases.append((tc, candidate.forms if isinstance(candidate, IMForm)
                      else decompose(candidate, tc)))
    for k in (1, 2, 3):
        for rank in (0, 1, 2, 3):
            tc = total_chart(CH2, tuple(f"e{d + 1}" for d in range(rank)))
            mu = tuple(rnd_form(rng, CH2, k - 1) for _ in range(rank))
            nu = tuple(rnd_form(rng, CH2, k) for _ in range(rank))
            cases.append((tc, BundleForms(k, mu, nu)))
        algebroid = rnd_algebroid(rng)
        cases.append((total_chart_of(algebroid), rnd_bundle_forms(rng, algebroid, k)))
    for tc, bundle_forms in cases:
        k = bundle_forms.k
        for maps, degree in ((bundle_forms.mu, k - 1), (bundle_forms.nu, k)):
            got = fiber_pairing_form(maps, tc, degree)
            assert got == reference_fiber_pairing_form(maps, tc, degree)
            assert got.degree == degree


def test_pairing_form_rejects_a_degree_mismatch():
    tc = total_chart(CH2, ("e1", "e2"))
    maps = (DifferentialForm(CH2, 1), DifferentialForm(CH2, 2))
    with pytest.raises(AlgebroidError):
        fiber_pairing_form(maps, tc, 1)
    with pytest.raises(AlgebroidError):
        fiber_pairing_form(maps[:1], tc, 1)


def test_tautological_property_k1(rng):
    """For k = 1 the pairing form is the pullback of the canonical 1-form
    p_i dx^i under the bundle map itself."""
    cotangent = base_chart("T*M", ["x1", "x2", "p1", "p2"])
    theta = DifferentialForm(cotangent, 1, {
        (0,): parse("p1", cotangent), (1,): parse("p2", cotangent)})
    for _ in range(20):
        rank = rng.choice([1, 2])
        tc = total_chart(CH2, tuple(f"e{i + 1}" for i in range(rank)))
        mu = tuple(rnd_form(rng, CH2, 1) for _ in range(rank))
        lam = fiber_pairing_form(mu, tc, 1)
        mapping = {}
        for j, xname in enumerate(CH2.names):
            total = Polynomial.zero(tc.chart)
            for d in range(rank):
                u = Polynomial.variable(tc.chart, tc.fiber_names[d])
                total = total + u * mu[d].coeff((j,)).promote(tc.chart)
            mapping[f"p{j + 1}"] = total
        assert lam == pullback(theta, mapping, tc.chart)


def test_is_linear_shape_examples():
    tc = total_chart(CH2, ("e1", "e2"))
    chart = tc.chart
    u1 = parse("u1", chart)
    du1 = DifferentialForm(chart, 1, {(2,): Polynomial.const(chart, 1)})
    du2 = DifferentialForm(chart, 1, {(3,): Polynomial.const(chart, 1)})
    dx1 = DifferentialForm(chart, 1, {(0,): Polynomial.const(chart, 1)})
    dx2 = DifferentialForm(chart, 1, {(1,): Polynomial.const(chart, 1)})
    good = scale(wedge(dx1, dx2), u1) + wedge(dx1, du1)
    assert is_linear(good, tc)
    assert not is_linear(scale(wedge(dx1, dx2), u1 * u1), tc)
    assert not is_linear(wedge(du1, du2), tc)
    assert not is_linear(wedge(dx1, dx2), tc)  # fiber-independent pure part


def test_decompose_pure_cases(rng):
    algebroid = tangent_algebroid()
    tc = total_chart_of(algebroid)
    chart = algebroid.base_chart
    for _ in range(25):
        k = rng.choice([1, 2])
        mu = tuple(rnd_form(rng, chart, k - 1) for _ in range(2))
        exact = linear_form(BundleForms(k, mu, (DifferentialForm(chart, k),) * 2), tc)
        got = decompose(exact, tc)
        assert got.mu == mu
        assert all(n.is_zero() for n in got.nu)
        nu = tuple(rnd_form(rng, chart, k) for _ in range(2))
        pure = fiber_pairing_form(nu, tc, k)
        got = decompose(pure, tc)
        assert all(m.is_zero() for m in got.mu)
        assert got.nu == nu


def test_decompose_roundtrip_random(rng):
    algebroid = koszul_so3_algebroid()
    tc = total_chart_of(algebroid)
    chart = algebroid.base_chart
    for _ in range(30):
        k = rng.choice([1, 2, 3])
        bf = BundleForms(k,
                         tuple(rnd_form(rng, chart, k - 1) for _ in range(3)),
                         tuple(rnd_form(rng, chart, k) for _ in range(3)))
        form = linear_form(bf, tc)
        assert is_linear(form, tc)
        got = decompose(form, tc)
        assert got.mu == bf.mu and got.nu == bf.nu
        # closure under d: the derivative of a linear form is linear
        assert is_linear(exterior_derivative(form), tc)


def test_decompose_roundtrip_catches_a_wrong_nu(rng, monkeypatch):
    """The roundtrip compares d(pairing mu) + pairing nu with the form
    itself, which is what lets Weil mode's cross-check contract the form: a
    nu read wrong from the remainder raises."""
    algebroid = koszul_so3_algebroid()
    tc = total_chart_of(algebroid)
    form = linear_form(rnd_bundle_forms(rng, algebroid, 2), tc)
    read = TotalChart.fiber_partials
    monkeypatch.setattr(TotalChart, "fiber_partials",
                        lambda self, poly: [(d, -part) for d, part in read(self, poly)])
    with pytest.raises(CrossCheckError, match="roundtrip"):
        decompose(form, tc)


def test_decompose_rejects_nonlinear():
    tc = total_chart(CH2, ("e1",))
    bad = DifferentialForm(tc.chart, 1, {(0,): parse("u1^2", tc.chart)})
    with pytest.raises(NotLinearError):
        decompose(bad, tc)


def test_closed_linear_two_form_is_canonical_pullback(rng):
    """A closed linear 2-form has no pure part and equals the pullback of the
    canonical symplectic form dx^i ^ dp_i under its (negated) bundle map."""
    cotangent = base_chart("T*M", ["x1", "x2", "p1", "p2"])
    omega = (wedge(DifferentialForm(cotangent, 1, {(0,): Polynomial.const(cotangent, 1)}),
                   DifferentialForm(cotangent, 1, {(2,): Polynomial.const(cotangent, 1)}))
             + wedge(DifferentialForm(cotangent, 1, {(1,): Polynomial.const(cotangent, 1)}),
                     DifferentialForm(cotangent, 1, {(3,): Polynomial.const(cotangent, 1)})))
    for _ in range(10):
        tc = total_chart(CH2, ("e1", "e2"))
        mu = tuple(rnd_form(rng, CH2, 1) for _ in range(2))
        closed = exterior_derivative(fiber_pairing_form(mu, tc, 1))
        got = decompose(closed, tc)
        assert got.mu == mu and all(n.is_zero() for n in got.nu)
        mapping = {}
        for j in range(2):
            total = Polynomial.zero(tc.chart)
            for d in range(2):
                u = Polynomial.variable(tc.chart, tc.fiber_names[d])
                total = total - u * mu[d].coeff((j,)).promote(tc.chart)
            mapping[f"p{j + 1}"] = total
        assert closed == pullback(omega, mapping, tc.chart)


# -- tangent lifts ------------------------------------------------------------

def test_fiber_contraction_examples():
    line = base_chart("L", ["x"])
    tc = tangent_total_chart(line)
    tau_dx = fiber_contraction(
        DifferentialForm(line, 1, {(0,): Polynomial.const(line, 1)}), line)
    assert tau_dx.scalar() == parse("x_dot", tc.chart)
    assert fiber_contraction(DifferentialForm(CH2, 2), CH2).is_zero()
    with pytest.raises(ValueError):
        fiber_contraction(form_function(parse("x1", CH2)), CH2)


def test_fiber_contraction_of_two_form_is_sharp_pullback(rng):
    """The contraction form of a 2-form equals the pullback of the canonical
    1-form under the induced fiber map."""
    cotangent = base_chart("T*M", ["x1", "x2", "p1", "p2"])
    theta = DifferentialForm(cotangent, 1, {
        (0,): parse("p1", cotangent), (1,): parse("p2", cotangent)})
    for _ in range(10):
        omega = rnd_form(rng, CH2, 2)
        tc = tangent_total_chart(CH2)
        tau = fiber_contraction(omega, CH2)
        mapping = {}
        for j, name in enumerate(CH2.names):
            sharp = Polynomial.zero(tc.chart)
            for i, dot in enumerate(tc.fiber_names):
                comp = omega.coeff((i, j)).promote(tc.chart)
                sharp = sharp + Polynomial.variable(tc.chart, dot) * comp
            mapping[f"p{j + 1}"] = sharp
        assert tau == pullback(theta, mapping, tc.chart)


def test_tangent_lift_examples():
    line = base_chart("L", ["x"])
    lifted = tangent_lift(DifferentialForm(line, 1, {(0,): Polynomial.const(line, 1)}), line)
    tc = tangent_total_chart(line)
    assert lifted == DifferentialForm(tc.chart, 1, {(1,): Polynomial.const(tc.chart, 1)})
    lifted2 = tangent_lift(DifferentialForm(CH2, 1, {(1,): parse("x1", CH2)}), CH2)
    tc2 = tangent_total_chart(CH2)
    expected = DifferentialForm(tc2.chart, 1, {
        (1,): parse("x1_dot", tc2.chart), (3,): parse("x1", tc2.chart)})
    assert lifted2 == expected
    assert tangent_lift(DifferentialForm(CH2, 2), CH2).is_zero()


def test_tangent_lift_is_linear_and_natural(rng):
    tc = tangent_total_chart(CH2)
    for _ in range(25):
        deg = rng.choice([0, 1, 2])
        alpha = rnd_form(rng, CH2, deg)
        lifted = tangent_lift(alpha, CH2)
        if deg >= 1:
            assert is_linear(lifted, tc)
        assert tangent_lift(exterior_derivative(alpha), CH2) == \
            exterior_derivative(lifted)


def test_tangent_lift_involution_sampling(rng):
    """The lift agrees with the differential of the induced function composed
    with the canonical involution, at 20 random rational points per case."""
    for _ in range(6):
        k = rng.choice([1, 2])
        alpha = rnd_form(rng, CH2, k)
        for _ in range(20):
            sample = {
                "x": {n: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                      for n in CH2.names},
                "xdot": {n: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                         for n in CH2.names},
                "dx": [{n: Fraction(rng.randint(-6, 6)) for n in CH2.names}
                       for _ in range(k)],
                "dxdot": [{n: Fraction(rng.randint(-6, 6)) for n in CH2.names}
                          for _ in range(k)],
            }
            assert tangent_lift_involution_residual(alpha, CH2, sample) == 0


# -- frame values -------------------------------------------------------------

def test_frame_values_pure_pairing_k1():
    algebroid = tangent_algebroid()
    tc = total_chart_of(algebroid)
    chart = algebroid.base_chart
    nu = tuple(rnd_form(random.Random(3), chart, 1) for _ in range(2))
    form = fiber_pairing_form(nu, tc, 1)
    prol, values = form_frame_functional(IMForm(algebroid, decompose(form, tc)))
    value = dict(zip(prol.frame_names, values))
    big = prol.base_chart
    for a, name in enumerate(algebroid.frame_names):
        assert value[f"{name}_hat1"].is_zero()
        taut = VectorField(big, {
            (big.index(n),): Polynomial.variable(big, f"{n}_dot1") for n in chart.names})
        expected = contract(taut, nu[a].promote(big)).scalar()
        assert value[f"T{name}"] == expected


def test_frame_values_zero():
    algebroid = tangent_algebroid()
    tc = total_chart_of(algebroid)
    form = DifferentialForm(tc.chart, 2)
    _, values = form_frame_functional(IMForm(algebroid, decompose(form, tc)))
    assert all(p.is_zero() for p in values)


def test_frame_values_dual_route_on_fixture():
    # the cross-check inside form_frame_functional recomputes every value by
    # direct contraction; surviving the call is the assertion
    im = exact_im_form()
    prol, values = form_frame_functional(im)
    assert len(values) == prol.rank


def test_frame_values_dual_route_random(rng):
    algebroid = koszul_so3_algebroid()
    chart = algebroid.base_chart
    for _ in range(12):
        k = rng.choice([1, 2, 3])
        bf = BundleForms(k,
                         tuple(rnd_form(rng, chart, k - 1) for _ in range(3)),
                         tuple(rnd_form(rng, chart, k) for _ in range(3)))
        form_frame_functional(IMForm(algebroid, bf))


TESTS = Path(__file__).resolve().parent
IM_DOCUMENTS = [path for path in sorted((TESTS.parent / "fixtures").glob("*.json"))
                + sorted((TESTS / "golden" / "ladder").glob("*.json"))
                if json.loads(path.read_text()).get("options", {}).get("mode") in ("im-form", "weil")]


def test_corpus_has_im_documents():
    assert {p.name for p in IM_DOCUMENTS} >= {"so3_poisson_im2.json", "so3_poisson_weil2.json",
                                             "n4_k3_im_broken.json"}


@pytest.mark.parametrize("path", IM_DOCUMENTS, ids=lambda p: p.name)
def test_frame_values_match_iterated_contraction_on_corpus(path):
    doc = json.loads(path.read_text())
    algebroid = cli.load_algebroid(doc)
    candidate = cli.load_candidate(doc, algebroid)
    if isinstance(candidate, DifferentialForm):
        candidate = IMForm(algebroid, decompose(candidate, total_chart_of(algebroid)))
    assert form_frame_functional(candidate)[1] == reference_form_frame_values(candidate)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_frame_values_match_iterated_contraction_on_random_candidates(rng, k):
    for algebroid in (koszul_so3_algebroid(), tangent_algebroid(), rnd_algebroid(rng)):
        for _ in range(2):
            im = IMForm(algebroid, rnd_bundle_forms(rng, algebroid, k))
            _, values = form_frame_functional(im)
            assert values == reference_form_frame_values(im)
            assert any(not p.is_zero() for p in values)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_form_cross_check_raises_on_each_wrong_value(rng, k):
    for algebroid in (koszul_so3_algebroid(), rnd_algebroid(rng)):
        im = IMForm(algebroid, rnd_bundle_forms(rng, algebroid, k))
        prol, values = form_frame_functional(im)
        tc = total_chart_of(algebroid)
        form = linear_form(im.forms, tc)
        for a, name in enumerate(prol.frame_names):
            wrong = values[:a] + (values[a] + 1,) + values[a + 1:]
            with pytest.raises(CrossCheckError, match=f"on {re.escape(name)}$"):
                cross_check_frame_values(form, tc, prol, range(tc.base_chart.dim),
                                         tc.fiber_positions(), wrong)
