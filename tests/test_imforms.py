"""IM-form checker, constructors, the equivalence oracle, Dirac candidates."""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

from conftest import (
    reference_im_violations, rnd_algebroid, rnd_bundle_forms, rnd_form, rnd_unchecked_algebroid,
)
from imcalc.algebroid import Violation
from imcalc.cli import load_algebroid, load_candidate
from imcalc.errors import AlgebroidError
from imcalc.fixtures import koszul_algebroid
from imcalc.forms import (
    DifferentialForm,
    Multivector,
    contract,
    exterior_derivative,
    lie_derivative,
    schouten,
)
from imcalc.imforms import (
    IMForm,
    check_im_form,
    check_lagrangian,
    im_form_from_base_form,
    oracle_equivalence,
)
from imcalc.linforms import BundleForms
from imcalc.poly import Polynomial, base_chart, parse
from support import (
    DiracCandidate,
    broken_poisson_im_form,
    broken_so3_dual_bivector,
    component,
    coordinate_field,
    exact_im_form,
    graph_closure_residuals,
    im_form_relative,
    koszul_so3_algebroid,
    poisson_im_form,
    scalar,
    scale,
    so3_algebroid,
    so3_dual_bivector,
    tangent_algebroid,
    trivial_cotangent_algebroid,
    twisted_bracket,
)

ROOT = Path(__file__).resolve().parents[1]


def test_trivial_cotangent_with_arbitrary_nu_passes(rng):
    algebroid = trivial_cotangent_algebroid()
    chart = algebroid.base_chart
    one = Polynomial.const(chart, 1)
    mu = tuple(DifferentialForm(chart, 1, {(a,): one}) for a in range(2))
    nu = tuple(rnd_form(rng, chart, 2) for _ in range(2))
    im = IMForm(algebroid, BundleForms(2, mu, nu))
    assert check_im_form(im).passed


def test_poisson_fixture_passes_and_broken_fails():
    assert check_im_form(poisson_im_form()).passed
    report = check_im_form(broken_poisson_im_form())
    assert not report.passed
    assert {v.condition for v in report.violations} <= {"AXIOM_ANCHOR", "AXIOM_JACOBI"}


def test_exact_family_always_passes(rng):
    for _ in range(12):
        algebroid = rnd_algebroid(rng)
        k = rng.choice([1, 2, 3])
        eta = rnd_form(rng, algebroid.base_chart, k)
        im = im_form_from_base_form(algebroid, eta)
        assert check_im_form(im).passed


def test_exact_fixture_values():
    im = exact_im_form()
    chart = im.algebroid.base_chart
    assert im.forms.mu[0] == DifferentialForm(chart, 1, {(1,): parse("-1*x1", chart)})
    assert im.forms.mu[1] == DifferentialForm(chart, 1, {(0,): parse("x1", chart)})
    # d(x1 dx1^dx2) = 0 on the plane, so the nu family vanishes
    assert all(n.is_zero() for n in im.forms.nu)


def test_exact_on_zero_form():
    algebroid = so3_algebroid()
    im = im_form_from_base_form(algebroid, DifferentialForm(algebroid.base_chart, 2))
    assert check_im_form(im).passed
    assert all(m.is_zero() for m in im.forms.mu)


def test_im1_failure_flags_frame_reduction():
    algebroid = tangent_algebroid()
    chart = algebroid.base_chart
    # mu(e_1) = x2 dx1 fails IM1 on the diagonal and IM2 at (e1, e1)
    mu = (DifferentialForm(chart, 1, {(0,): parse("x2", chart)}),
          DifferentialForm(chart, 1))
    nu = (DifferentialForm(chart, 2), DifferentialForm(chart, 2))
    report = check_im_form(IMForm(algebroid, BundleForms(2, mu, nu)))
    assert not report.passed
    tags = {v.condition for v in report.violations}
    assert "IM1" in tags
    flagged = [v for v in report.violations if v.condition in ("IM2", "IM3")]
    assert flagged and all(v.caveat for v in flagged)


def test_relative_family():
    algebroid = tangent_algebroid(("x1", "x2", "x3"), "R")
    chart = algebroid.base_chart
    one = Polynomial.const(chart, 1)
    phi = DifferentialForm(chart, 3, {(0, 1, 2): one})
    # a presymplectic mu paired with the closed 3-form: the third condition
    # holds by construction, the others are reported by the checker
    mu = tuple(DifferentialForm(chart, 1) for _ in range(3))
    im = im_form_relative(algebroid, mu, phi)
    for a in range(3):
        expected = -contract(algebroid.anchor_field(a), phi)
        assert im.forms.nu[a] == expected
    report = check_im_form(im)
    assert not any(v.condition == "IM3" for v in report.violations)


def test_relative_rejects_bad_phi():
    algebroid = tangent_algebroid()
    chart = algebroid.base_chart
    phi = DifferentialForm(chart, 1, {(0,): parse("x2^2", chart)})  # d phi != 0
    with pytest.raises(AlgebroidError):
        im_form_relative(algebroid, [DifferentialForm(chart, 0)] * 2, phi)


def test_relative_with_zero_anchor_trivially_passes():
    algebroid = trivial_cotangent_algebroid()
    chart = algebroid.base_chart
    phi = DifferentialForm(chart, 2, {(0, 1): parse("x1", chart)})  # not closed
    # zero anchor kills the hypothesis contraction and every condition
    im = im_form_relative(algebroid, [DifferentialForm(chart, 0)] * 2, phi)
    assert check_im_form(im).passed


# -- the equivalence oracle ---------------------------------------------------

def test_oracle_fixture_verdicts():
    assert oracle_equivalence(poisson_im_form()) == (True, True)
    assert oracle_equivalence(exact_im_form()) == (True, True)
    assert oracle_equivalence(broken_poisson_im_form()) == (False, False)
    algebroid = trivial_cotangent_algebroid()
    chart = algebroid.base_chart
    one = Polynomial.const(chart, 1)
    mu = tuple(DifferentialForm(chart, 1, {(a,): one}) for a in range(2))
    nu = (DifferentialForm(chart, 2, {(0, 1): parse("x1*x2", chart)}),
          DifferentialForm(chart, 2))
    assert oracle_equivalence(IMForm(algebroid, BundleForms(2, mu, nu))) == (True, True)


def test_oracle_random_candidates(rng):
    seen = {True: 0, False: 0}
    for _ in range(18):
        algebroid = rnd_algebroid(rng)
        k = rng.choice([1, 2, 3])
        if rng.random() < 0.4:
            im = im_form_from_base_form(algebroid, rnd_form(rng, algebroid.base_chart, k))
        else:
            im = IMForm(algebroid, rnd_bundle_forms(rng, algebroid, k))
        verdicts = oracle_equivalence(im)
        assert verdicts[0] == verdicts[1]
        seen[verdicts[0]] += 1
    assert seen[True] >= 3 and seen[False] >= 3


def per_pair_im_violations(im: IMForm) -> list:
    """The IM violations of `check_im_form`, in its order, with every residual
    assembled per frame pair from `contract`, `lie_derivative` and
    `exterior_derivative` (no operator is shared between pairs)."""
    A = im.algebroid
    r = A.rank
    k = im.k
    mu, nu = im.forms.mu, im.forms.nu

    def rho(a):
        return A.anchor_field(a)

    def image(maps, a, b, degree):
        out = DifferentialForm(A.base_chart, degree)
        for c, w in A.bracket_frame_row(a, b):
            out = out + scale(maps[c], w)
        return out

    def rows(tag, pairs, residual, caveat):
        out = []
        for a, b in pairs:
            res = residual(a, b)
            for idx in sorted(res.coeffs):
                out.append(Violation(tag, (A.frame_names[a], A.frame_names[b],
                                           res.label(idx) or "1"), res.coeffs[idx], caveat))
        return out

    im1 = rows("IM1", [(a, b) for a in range(r) for b in range(a, r)],
               lambda a, b: contract(rho(a), mu[b]) + contract(rho(b), mu[a]), None)
    caveat = "frame-reduction not certified (IM1 fails)" if im1 else None
    im2 = rows("IM2", product(range(r), repeat=2),
               lambda a, b: (image(mu, a, b, k - 1) - lie_derivative(rho(a), mu[b])
                             + contract(rho(b), exterior_derivative(mu[a]))
                             + contract(rho(b), nu[a])), caveat)
    im3 = rows("IM3", [(a, b) for a in range(r) for b in range(a + 1, r)],
               lambda a, b: (image(nu, a, b, k) - lie_derivative(rho(a), nu[b])
                             + contract(rho(b), exterior_derivative(nu[a]))), caveat)
    return im1 + im2 + im3


@pytest.mark.parametrize("k", [1, 2, 3])
def test_im_checker_matches_per_pair_reference(rng, k):
    failing = 0
    for _ in range(10):
        algebroid = rnd_algebroid(rng)
        while algebroid.base_chart.dim < k - 1:
            # mu would vanish on a smaller base
            algebroid = rnd_algebroid(rng)
        if rng.random() < 0.25:
            im = im_form_from_base_form(algebroid, rnd_form(rng, algebroid.base_chart, k))
        else:
            im = IMForm(algebroid, rnd_bundle_forms(rng, algebroid, k))
        report = check_im_form(im)
        expected = per_pair_im_violations(im)
        assert report.violations == tuple(expected)
        assert report.passed == (not expected)
        failing += not report.passed
    assert failing >= 4


def log_canonical_algebroid(rng, n: int):
    """Koszul algebroid of {x_i, x_j} = c_ij x_i x_j, Poisson for every c."""
    chart = base_chart("M", [f"x{i + 1}" for i in range(n)])
    x = [Polynomial.variable(chart, name) for name in chart.names]
    return koszul_algebroid(Multivector(chart, 2, {
        (i, j): x[i] * x[j] * rng.choice([-3, -2, -1, 1, 2, 3])
        for i, j in combinations(range(n), 2)}))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_im_check_matches_the_cartan_reference(rng, k):
    """The coordinate-formula residuals give the violations (condition,
    witness, residual, caveat), in order, and the notes of the checker built
    from whole Cartan forms, L = i d + d i; on passing candidates both assert
    the nu identities.  Exact, broken (exact with nu perturbed) and random
    candidates on Koszul so3, a log-canonical Koszul algebroid of 4-space (so
    that nu(a) is nonzero at k = 3), random Lie algebroids and unchecked
    data."""
    algebroids = [koszul_so3_algebroid(), log_canonical_algebroid(rng, 4)]
    algebroids += [rnd_algebroid(rng) for _ in range(5)]
    algebroids += [rnd_unchecked_algebroid(rng) for _ in range(4)]
    seen = {"IM1": 0, "IM2": 0, "IM3": 0, "caveat": 0, "nu identities": 0, "gated": 0}
    for algebroid in algebroids:
        chart = algebroid.base_chart
        exact = im_form_from_base_form(algebroid, rnd_form(rng, chart, k, density=0.9))
        broken = BundleForms(k, exact.forms.mu, tuple(
            nu + rnd_form(rng, chart, k, density=0.3) for nu in exact.forms.nu))
        for im in (exact, IMForm(algebroid, broken),
                   IMForm(algebroid, rnd_bundle_forms(rng, algebroid, k))):
            report = check_im_form(im)
            violations, notes = reference_im_violations(im)
            assert report.violations == tuple(violations)
            assert report.notes == tuple(notes)
            assert report.passed == (not violations)
            for v in report.violations:
                seen[v.condition] = seen.get(v.condition, 0) + 1
                seen["caveat"] += v.caveat is not None
            # the cyclic identity needs three frame sections
            seen["nu identities"] += report.passed and algebroid.rank >= 3 and any(
                not nu.is_zero() for nu in im.forms.nu)
            seen["gated"] += bool(report.notes) and report.notes[0].startswith("algebroid axioms")
    # a 0-form mu (k = 1) contracts to zero, so IM1 cannot fail there
    assert all(seen[tag] for tag in ("IM2", "IM3", "nu identities", "gated")), seen
    assert (seen["IM1"] and seen["caveat"]) or k == 1, seen


def test_nu_identities_hold_on_passing_candidates(rng):
    # the checker asserts the derived nu identities internally whenever the
    # three conditions pass; run it over the exact family to exercise that
    for _ in range(8):
        algebroid = rnd_algebroid(rng)
        eta = rnd_form(rng, algebroid.base_chart, 2)
        assert check_im_form(im_form_from_base_form(algebroid, eta)).passed


def test_transitive_orbit_reconstruction(rng):
    """On the tangent algebroid every passing IM form reconstructs a base
    form with contraction values mu, whose derivative reconstructs nu."""
    for n in (2, 3):
        algebroid = tangent_algebroid(tuple(f"x{i + 1}" for i in range(n)), "R")
        chart = algebroid.base_chart
        for _ in range(6):
            k = rng.choice([1, 2])
            eta = rnd_form(rng, chart, k)
            im = im_form_from_base_form(algebroid, eta)
            assert check_im_form(im).passed
            mu_c = DifferentialForm.from_terms(chart, k, (
                ((j,) + idx, im.forms.mu[j].coeffs[idx])
                for j in range(n) for idx in im.forms.mu[j].coeffs
                if not idx or j < idx[0]))
            nu_c = DifferentialForm.from_terms(chart, k + 1, (
                ((j,) + idx, im.forms.nu[j].coeffs[idx])
                for j in range(n) for idx in im.forms.nu[j].coeffs
                if not idx or j < idx[0]))
            for a in range(n):
                rho = algebroid.anchor_field(a)
                assert contract(rho, mu_c) == im.forms.mu[a]
                assert contract(rho, nu_c) == im.forms.nu[a]
            assert exterior_derivative(mu_c) == nu_c


# -- Poisson chain and Dirac specialization -----------------------------------

def test_poisson_equivalence_chain():
    good = so3_dual_bivector()
    bad = broken_so3_dual_bivector()
    assert schouten(good, good).is_zero()
    assert not schouten(bad, bad).is_zero()
    assert check_im_form(poisson_im_form()).passed
    assert not check_im_form(broken_poisson_im_form()).passed


def test_dirac_requires_k2():
    with pytest.raises(AlgebroidError):
        check_lagrangian(im_form_from_base_form(
            tangent_algebroid(), DifferentialForm(tangent_algebroid().base_chart, 1)), [])


def grid(chart) -> list:
    """The integer points {-1, 0, 1}^dim of `chart`."""
    return [dict(zip(chart.names, combo)) for combo in product((-1, 0, 1), repeat=chart.dim)]


def test_lagrangian_fixture_poisson():
    im = poisson_im_form()
    report = check_lagrangian(im, grid(im.algebroid.base_chart))
    assert report.passed  # isotropic and rank 3 everywhere: graph of a bivector
    assert report.notes == ("rank checked at 27 sample points",)


def test_lagrangian_trivial_cotangent():
    algebroid = trivial_cotangent_algebroid()
    chart = algebroid.base_chart
    im = IMForm(algebroid, BundleForms(
        2,
        tuple(DifferentialForm(chart, 1, {(a,): Polynomial.const(chart, 1)}) for a in range(2)),
        (DifferentialForm(chart, 2),) * 2))
    report = check_lagrangian(im, grid(chart))
    assert report.passed  # generators (0, dx^a): rank 2 = dim at every point


def test_lagrangian_zero_candidate_fails_rank():
    algebroid = trivial_cotangent_algebroid()
    chart = algebroid.base_chart
    zero = IMForm(algebroid, BundleForms(2, (DifferentialForm(chart, 1),) * 2,
                                         (DifferentialForm(chart, 2),) * 2))
    report = check_lagrangian(zero, [{"x1": 0, "x2": 0}])
    assert not report.passed
    assert report.violations[0].condition == "LAGRANGIAN"
    assert report.violations[0].residual == Polynomial.const(chart, -2)


def test_isotropy_violation_detected():
    algebroid = tangent_algebroid()
    chart = algebroid.base_chart
    one = Polynomial.const(chart, 1)
    # generators (d/dx1, dx1) and (d/dx2, 0)
    im = IMForm(algebroid, BundleForms(
        2, (DifferentialForm(chart, 1, {(0,): one}), DifferentialForm(chart, 1)),
        (DifferentialForm(chart, 2),) * 2))
    report = check_lagrangian(im, [])
    assert [(v.condition, v.witness, v.residual) for v in report.violations] == [
        ("ISOTROPY", ("e1", "e1"), Polynomial.const(chart, 2))]


def test_twisted_bracket_coordinate_fields():
    algebroid = tangent_algebroid()
    chart = algebroid.base_chart
    candidate = DiracCandidate(
        algebroid,
        (coordinate_field(chart, "x1"), coordinate_field(chart, "x2")),
        (DifferentialForm(chart, 1),) * 2,
        (DifferentialForm(chart, 2),) * 2)
    one = Polynomial.const(chart, 1)
    zero = Polynomial.zero(chart)
    vec, cov = twisted_bracket(candidate, [one, zero], [zero, one])
    assert vec.is_zero() and cov.is_zero()


def graph_candidate(pi: Multivector, twists=None) -> DiracCandidate:
    chart = pi.chart
    n = chart.dim
    algebroid = koszul_algebroid(pi, unchecked=True)
    one = Polynomial.const(chart, 1)
    return DiracCandidate(
        algebroid,
        tuple(algebroid.anchor_field(a) for a in range(n)),
        tuple(DifferentialForm(chart, 1, {(a,): one}) for a in range(n)),
        twists if twists is not None else tuple(DifferentialForm(chart, 2) for _ in range(n)))


def test_graph_closure_iff_poisson():
    good = graph_candidate(so3_dual_bivector())
    assert all(res.is_zero() for _, res in graph_closure_residuals(good))
    bad = graph_candidate(broken_so3_dual_bivector())
    assert any(not res.is_zero() for _, res in graph_closure_residuals(bad))


def test_graph_closure_residual_is_half_schouten_defect(rng):
    """The pairing of the closure defect with coordinate forms is half the
    Schouten bracket of the bivector with itself (with zero twist)."""
    chart = base_chart("M", ["x1", "x2", "x3"])
    for _ in range(10):
        table = {idx: Polynomial(chart, {tuple(
            rng.randint(0, 1) for _ in range(3)): Fraction(rng.randint(-3, 3))})
            for idx in combinations(range(3), 2)}
        pi = Multivector(chart, 2, table)
        candidate = graph_candidate(pi)
        bracket = schouten(pi, pi)
        for (a, b), residual in graph_closure_residuals(candidate):
            for c in range(3):
                expected = bracket.coeff((a, b, c))  # signed; zero on repeats
                got = component(residual, c) * 2
                assert got == expected


def test_twisted_graph_closure_matches_defect_identity(rng):
    """With the twist -(contraction of a closed 3-form), closure holds iff
    half the Schouten defect equals the twist pairing, checked symbolically
    coordinatewise."""
    chart = base_chart("M", ["x1", "x2", "x3"])
    one = Polynomial.const(chart, 1)
    phi = DifferentialForm(chart, 3, {(0, 1, 2): one})
    for middle in ("x1", "x3^2"):
        pi = Multivector(chart, 2, {(0, 1): parse("x3", chart),
                                    (0, 2): parse("-1*x2", chart),
                                    (1, 2): parse(middle, chart)})
        algebroid = koszul_algebroid(pi, unchecked=True)
        twists = tuple(-contract(algebroid.anchor_field(a), phi) for a in range(3))
        candidate = graph_candidate(pi, twists)
        bracket = schouten(pi, pi)
        for (a, b), residual in graph_closure_residuals(candidate):
            for c in range(3):
                half_defect = bracket.coeff((a, b, c)) * Fraction(1, 2)
                twist_term = scalar(contract(
                    candidate.vectors[c],
                    contract(candidate.vectors[b], twists[a])))
                assert component(residual, c) == half_defect - twist_term


def test_isotropy_is_im1_at_k2(rng):
    """At k = 2 the ISOTROPY residual of a frame pair is its IM1 residual
    i_{rho a} mu(b) + i_{rho b} mu(a): the same pairs, with the same
    residuals, on the k = 2 im-form documents (the corpus and the dense
    golden one) and on drawn candidates over random and unchecked
    algebroids."""
    ims = []
    paths = sorted(ROOT.glob("fixtures/*.json")) + sorted(ROOT.glob("tests/golden/dense/*.json"))
    for path in paths:
        doc = json.loads(path.read_text())
        if doc.get("options", {}).get("mode") == "im-form":
            ims.append(load_candidate(doc, load_algebroid(doc)))
    assert len(ims) == 4
    algebroids = [rnd_algebroid(rng) for _ in range(6)] + [rnd_unchecked_algebroid(rng)
                                                           for _ in range(6)]
    for algebroid in algebroids:
        exact = im_form_from_base_form(algebroid, rnd_form(rng, algebroid.base_chart, 2))
        ims += [exact, IMForm(algebroid, rnd_bundle_forms(rng, algebroid, 2))]
    failing = 0
    for im in ims:
        assert im.k == 2
        isotropy = [(v.witness, v.residual) for v in check_lagrangian(im, []).violations]
        im1 = [(v.witness[:2], v.residual) for v in check_im_form(im).violations
               if v.condition == "IM1" and v.witness[2] == "1"]
        assert isotropy == im1
        failing += bool(isotropy)
    assert failing >= 5
