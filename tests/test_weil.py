"""Weil cochains: the correspondence, both differentials, triple agreement."""

from __future__ import annotations

import pytest

from conftest import rnd_algebroid, rnd_bundle_forms, rnd_form, rnd_poly
from imcalc.algebroid import CheckReport, Violation
from imcalc.errors import AlgebroidError, OracleDisagreement
from imcalc.forms import DifferentialForm, exterior_derivative
from imcalc.imforms import IMForm, check_im_form, oracle_equivalence
from imcalc.linforms import BundleForms, linear_form, total_chart_of
from imcalc.weil import cochain_from_bundle_forms, horizontal_vanishing_report
from imcalc.poly import Polynomial
import support
from support import (
    broken_poisson_im_form,
    check_weil_correspondence,
    cochain_is_zero,
    cochain_to_bundle_forms,
    linear_form_to_cochain,
    negated_cochain,
    poisson_im_form,
    scale,
    tangent_algebroid,
    trivial_cotangent_algebroid,
    value0_scaled,
    vertical_differential,
)


def test_cochain_of_pure_pairing_form(rng):
    algebroid = tangent_algebroid()
    tc = total_chart_of(algebroid)
    chart = algebroid.base_chart
    nu = tuple(rnd_form(rng, chart, 2) for _ in range(2))
    pure = BundleForms(2, (DifferentialForm(chart, 1),) * 2, nu)
    w = linear_form_to_cochain(linear_form(pure, tc), algebroid)
    for a in range(2):
        assert w.comp0[a] == nu[a]
        assert w.comp1[a].is_zero()


def test_cochain_of_exact_form(rng):
    algebroid = tangent_algebroid()
    tc = total_chart_of(algebroid)
    chart = algebroid.base_chart
    mu = tuple(rnd_form(rng, chart, 1) for _ in range(2))
    exact = BundleForms(2, mu, (DifferentialForm(chart, 2),) * 2)
    w = linear_form_to_cochain(linear_form(exact, tc), algebroid)
    for a in range(2):
        assert w.comp0[a] == exterior_derivative(mu[a])
        assert w.comp1[a] == -mu[a]


def test_cochain_injectivity_roundtrip(rng):
    algebroid = tangent_algebroid()
    tc = total_chart_of(algebroid)
    for _ in range(50):
        k = rng.choice([1, 2])
        bf = rnd_bundle_forms(rng, algebroid, k)
        w = cochain_from_bundle_forms(algebroid, bf)
        back = cochain_to_bundle_forms(w)
        assert back.mu == bf.mu and back.nu == bf.nu
        if cochain_is_zero(w):
            assert linear_form(bf, tc).is_zero()


def test_vertical_differential_examples(rng):
    algebroid = tangent_algebroid()
    chart = algebroid.base_chart
    zero = vertical_differential([DifferentialForm(chart, 1)] * 2, algebroid)
    assert cochain_is_zero(zero)
    mu = tuple(rnd_form(rng, chart, 1) for _ in range(2))
    w = vertical_differential(mu, algebroid)
    assert w.k == 2
    for a in range(2):
        assert w.comp0[a] == -exterior_derivative(mu[a])
        assert w.comp1[a] == mu[a]


def test_vertical_differential_degree_bookkeeping():
    algebroid = tangent_algebroid()
    chart = algebroid.base_chart
    mixed = [DifferentialForm(chart, 1), DifferentialForm(chart, 2)]
    with pytest.raises(AlgebroidError):
        vertical_differential(mixed, algebroid)
    # feeding a cochain back into the vertical differential is a type error
    w = vertical_differential([DifferentialForm(chart, 1)] * 2, algebroid)
    with pytest.raises(TypeError):
        vertical_differential(w, algebroid)  # type: ignore[arg-type]


def test_psi_d_is_minus_dv_psi(rng):
    for _ in range(25):
        algebroid = rnd_algebroid(rng)
        tc = total_chart_of(algebroid)
        k = rng.choice([1, 2])
        bf = rnd_bundle_forms(rng, algebroid, k)
        form = linear_form(bf, tc)
        lhs = linear_form_to_cochain(exterior_derivative(form), algebroid)
        rhs = negated_cochain(vertical_differential(bf.nu, algebroid))
        assert lhs == rhs


def test_horizontal_differential_abelian_zero_anchor(rng):
    """With zero anchor and bracket, every component DH0, DH1 and DH2
    vanishes, so the report has no witness."""
    algebroid = trivial_cotangent_algebroid()
    for _ in range(5):
        bf = rnd_bundle_forms(rng, algebroid, 2)
        report = horizontal_vanishing_report(cochain_from_bundle_forms(algebroid, bf))
        assert report.passed and report.violations == () and report.notes == ()


def test_horizontal_vanishing_on_fixtures():
    good = poisson_im_form()
    w = cochain_from_bundle_forms(good.algebroid, good.forms)
    assert horizontal_vanishing_report(w).passed
    bad = broken_poisson_im_form()
    wb = cochain_from_bundle_forms(bad.algebroid, bad.forms)
    assert not horizontal_vanishing_report(wb).passed


def test_compatibility_rule_consistency(rng):
    """Extending comp0 to scaled sections by the compatibility rule agrees
    with rebuilding the cochain from the scaled decomposition data."""
    algebroid = tangent_algebroid()
    chart = algebroid.base_chart
    for _ in range(10):
        bf = rnd_bundle_forms(rng, algebroid, 2)
        w = cochain_from_bundle_forms(algebroid, bf)
        f = rnd_poly(rng, chart, 2)
        for a in range(2):
            via_rule = value0_scaled(w, f, a)
            # the section f e_a carries mu value f mu(e_a) and nu value
            # f nu(e_a); rebuild comp0 from that scaled data directly
            direct = exterior_derivative(scale(bf.mu[a], f)) + scale(bf.nu[a], f)
            assert via_rule == direct


def test_correspondence_fixture_reports():
    good = poisson_im_form()
    tc = total_chart_of(good.algebroid)
    assert check_weil_correspondence(linear_form(good.forms, tc), good.algebroid).passed
    bad = broken_poisson_im_form()
    tcb = total_chart_of(bad.algebroid)
    # both routes fail on the broken fixture, so the agreement still holds
    assert check_weil_correspondence(linear_form(bad.forms, tcb), bad.algebroid).passed


def test_correspondence_raises_when_routes_disagree(monkeypatch):
    """With a horizontal differential that never vanishes, the DH route fails
    where the IM route passes; the correspondence raises rather than
    reporting the disagreement."""
    good = poisson_im_form()
    A = good.algebroid
    failing = CheckReport.collect([Violation(
        "DH2", A.frame_names[:2], Polynomial.const(A.base_chart, 1))])
    calls = []

    def fake(w):
        calls.append(w)
        return failing

    # the binding `check_weil_correspondence` reads
    monkeypatch.setattr(support, "horizontal_vanishing_report", fake)
    with pytest.raises(OracleDisagreement):
        check_weil_correspondence(linear_form(good.forms, total_chart_of(A)), A)
    assert len(calls) == 1


def test_triple_agreement_random(rng):
    seen = {True: 0, False: 0}
    for _ in range(20):
        algebroid = rnd_algebroid(rng)
        k = rng.choice([1, 2])
        if rng.random() < 0.4:
            from imcalc.imforms import im_form_from_base_form
            im = im_form_from_base_form(algebroid, rnd_form(rng, algebroid.base_chart, k))
            bf = im.forms
        else:
            bf = rnd_bundle_forms(rng, algebroid, k)
        im = IMForm(algebroid, bf)
        im_ok = check_im_form(im).passed
        dh_ok = horizontal_vanishing_report(
            cochain_from_bundle_forms(algebroid, bf)).passed
        morphism = oracle_equivalence(im)
        assert im_ok == dh_ok == morphism[0] == morphism[1]
        seen[im_ok] += 1
    assert seen[True] >= 3 and seen[False] >= 3


def test_dh2_polarization_catches_off_diagonal_failures():
    """A candidate whose first condition fails only off the diagonal must
    still fail the vanishing report (the diagonal component alone would
    miss it)."""
    algebroid = tangent_algebroid()
    chart = algebroid.base_chart
    one = Polynomial.const(chart, 1)
    # mu(e1) = dx2, mu(e2) = dx1: diagonal contractions vanish, the pair sum
    # is 2 dx-pairings
    mu = (DifferentialForm(chart, 1, {(1,): one}), DifferentialForm(chart, 1, {(0,): one}))
    nu = (DifferentialForm(chart, 2),) * 2
    bf = BundleForms(2, mu, nu)
    w = cochain_from_bundle_forms(algebroid, bf)
    report = horizontal_vanishing_report(w)
    dh2 = {v.witness[:2] for v in report.violations if v.condition == "DH2"}
    assert not any(a == b for a, b in dh2)  # diagonal blind spot
    assert ("e1", "e2") in dh2
    # and the other two routes agree that this candidate fails
    assert not check_im_form(IMForm(algebroid, bf)).passed
