"""Acceptance criteria.

One test per criterion; each prints a PASS line with its runtime when it
completes (run with -s to see them).  Every check is exact: a condition holds
iff its residual is the zero polynomial, so there are no numeric tolerances
anywhere, only the stated runtime budgets.
"""

from __future__ import annotations

import io
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from conftest import rnd_form
from imcalc.algebroid import (
    Section,
    check_axioms,
    cotangent_prolongation,
    section_bracket,
    tangent_prolongation,
)
from imcalc.cli import main as cli_main
from imcalc.fixtures import (
    broken_jacobi_algebroid,
    broken_poisson_im_form,
    broken_so3_dual_bivector,
    exact_im_form,
    koszul_so3_algebroid,
    poisson_im_form,
    so3_algebroid,
    so3_dual_bivector,
    tangent_algebroid,
    trivial_cotangent_algebroid,
)
from imcalc.forms import DifferentialForm, schouten
from imcalc.imforms import IMForm, check_im_form, im_form_from_base_form, oracle_equivalence
from imcalc.linforms import (
    BundleForms,
    decompose,
    exterior_derivative,
    fiber_pairing_form,
    linear_form,
    tangent_lift,
    tangent_lift_involution_residual,
    total_chart,
    total_chart_of,
)
from imcalc.multivec import (
    Derivation,
    LinearMultivector,
    linear_from_derivation,
    oracle_equivalence_dual,
)
from imcalc.poly import Polynomial, base_chart, parse
from imcalc.weil import (
    cochain_from_bundle_forms,
    horizontal_vanishing_report,
    linear_form_to_cochain,
    vertical_differential,
)
from test_forms import (
    check_cartan_identity,
    check_commutator_identity,
    check_function_factor_identity,
)

CORPUS = Path(__file__).resolve().parent.parent / "fixtures"


def report(number: int, label: str, started: float, budget: float) -> None:
    elapsed = time.time() - started
    print(f"\n[criterion {number:2d}] PASS ({elapsed:6.2f}s / budget {budget:.0f}s): {label}")
    assert elapsed < budget, f"criterion {number} exceeded its runtime budget"


def passing_fixtures():
    return [("F1", so3_algebroid()), ("F2", tangent_algebroid()),
            ("F3", koszul_so3_algebroid()), ("F4", trivial_cotangent_algebroid())]


def test_criterion_01_cartan_identity_suite():
    started = time.time()
    rng = random.Random(101)
    chart = base_chart("M", ["x1", "x2", "x3", "x4"])
    for checker in (check_cartan_identity, check_commutator_identity,
                    check_function_factor_identity):
        for _ in range(100):
            m = rng.randint(1, 3)
            deg = rng.randint(0, 3)
            checker(rng, chart, m, deg)
    report(1, "operator identity suite, 100 exact cases each", started, 10)


def test_criterion_02_fixture_axioms():
    started = time.time()
    for _, algebroid in passing_fixtures():
        assert check_axioms(algebroid).passed
    broken = check_axioms(broken_jacobi_algebroid())
    assert not broken.passed
    assert len(broken.violations) == 1
    witness = broken.violations[0]
    assert witness.condition == "AXIOM_JACOBI"
    assert witness.witness == (1, 2, 3, 1)
    assert str(witness.residual) == "1"
    report(2, "fixture axioms incl. documented broken witness", started, 1)


def test_criterion_03_prolongation_closure():
    started = time.time()
    for _, algebroid in passing_fixtures():
        for k in (1, 2, 3):
            assert check_axioms(tangent_prolongation(algebroid, k)).passed
            assert check_axioms(cotangent_prolongation(algebroid, k)).passed
    report(3, "tangent/cotangent prolongation closure, k in {1,2,3}", started, 5)


def test_criterion_04_main_theorem_oracle():
    started = time.time()
    trivial = trivial_cotangent_algebroid()
    chart = trivial.base_chart
    one = Polynomial.const(chart, 1)
    f4_candidate = IMForm(trivial, BundleForms(
        2,
        tuple(DifferentialForm(chart, 1, {(a,): one}) for a in range(2)),
        (DifferentialForm(chart, 2, {(0, 1): parse("x1", chart)}),
         DifferentialForm(chart, 2))))
    assert oracle_equivalence(f4_candidate, 2) == (True, True)
    assert oracle_equivalence(poisson_im_form(), 2) == (True, True)
    assert oracle_equivalence(exact_im_form(), 2) == (True, True)
    assert oracle_equivalence(broken_poisson_im_form(), 2) == (False, False)

    rng = random.Random(104)
    fixtures = passing_fixtures()
    outcomes = {True: 0, False: 0}
    for case in range(50):
        _, algebroid = fixtures[rng.randrange(len(fixtures))]
        k = rng.choice([1, 2, 3])
        if case % 3 == 0:
            im = im_form_from_base_form(algebroid, rnd_form(rng, algebroid.base_chart, k))
        else:
            bf = BundleForms(
                k,
                tuple(rnd_form(rng, algebroid.base_chart, k - 1, max_deg=1)
                      for _ in range(algebroid.rank)),
                tuple(rnd_form(rng, algebroid.base_chart, k, max_deg=1)
                      for _ in range(algebroid.rank)))
            im = IMForm(algebroid, bf)
        verdicts = oracle_equivalence(im, k)  # raises on disagreement
        assert verdicts[0] == verdicts[1]
        outcomes[verdicts[0]] += 1
    assert outcomes[True] >= 10 and outcomes[False] >= 10
    report(4, f"main equivalence oracle, fixtures + 50 randomized "
              f"({outcomes[True]} true / {outcomes[False]} false), 0 disagreements",
           started, 60)


def test_criterion_05_poisson_equivalence_chain():
    started = time.time()
    good_pi = so3_dual_bivector()
    bad_pi = broken_so3_dual_bivector()
    good_passes = check_im_form(poisson_im_form()).passed
    bad_passes = check_im_form(broken_poisson_im_form()).passed
    assert good_passes == schouten(good_pi, good_pi).is_zero() == True  # noqa: E712
    assert bad_passes == schouten(bad_pi, bad_pi).is_zero() == False  # noqa: E712
    report(5, "identity-candidate verdict iff vanishing Schouten square", started, 5)


def test_criterion_06_decomposition_roundtrip():
    started = time.time()
    rng = random.Random(106)
    algebroid = koszul_so3_algebroid()
    tc = total_chart_of(algebroid)
    chart = algebroid.base_chart
    for _ in range(100):
        k = rng.choice([1, 2, 3])
        bf = BundleForms(k,
                         tuple(rnd_form(rng, chart, k - 1) for _ in range(3)),
                         tuple(rnd_form(rng, chart, k) for _ in range(3)))
        got = decompose(linear_form(bf, tc), tc)
        assert got.mu == bf.mu and got.nu == bf.nu

    # tautological property of the degree-one pairing form
    plane = base_chart("M", ["x1", "x2"])
    cotangent = base_chart("T*M", ["x1", "x2", "p1", "p2"])
    theta = DifferentialForm(cotangent, 1, {(0,): parse("p1", cotangent),
                                            (1,): parse("p2", cotangent)})
    for _ in range(20):
        rank = rng.choice([1, 2, 3])
        tc1 = total_chart(plane, tuple(f"e{i + 1}" for i in range(rank)))
        mu = tuple(rnd_form(rng, plane, 1) for _ in range(rank))
        lam = fiber_pairing_form(mu, tc1, 1)
        mapping = {}
        for j in range(2):
            total = Polynomial.zero(tc1.chart)
            for d in range(rank):
                total = total + (Polynomial.variable(tc1.chart, tc1.fiber_names[d])
                                 * mu[d].coeff((j,)).promote(tc1.chart))
            mapping[f"p{j + 1}"] = total
        direct = DifferentialForm(tc1.chart, 1)
        for i, name in enumerate(cotangent.names):
            coeff = theta.coeffs.get((i,))
            if coeff is None:
                continue
            image = mapping.get(name)
            if image is None:
                image = Polynomial.variable(tc1.chart, name)
            # pullback of p dx-style terms: coefficient image times d(image of x)
            piece = DifferentialForm.function(coeff.substitute(mapping, tc1.chart))
            from imcalc.forms import wedge
            base_image = DifferentialForm.function(
                Polynomial.variable(tc1.chart, name) if name in tc1.chart.names
                else mapping[name])
            direct = direct + wedge(piece, exterior_derivative(base_image))
        assert lam == direct
    report(6, "decomposition roundtrip x100; tautological pullback x20", started, 5)


def test_criterion_07_tangent_lift_laws():
    started = time.time()
    rng = random.Random(107)
    plane = base_chart("M", ["x1", "x2"])
    for _ in range(100):
        deg = rng.choice([0, 1, 2])
        alpha = rnd_form(rng, plane, deg)
        assert tangent_lift(exterior_derivative(alpha), plane) == \
            exterior_derivative(tangent_lift(alpha, plane))
    cases = 0
    for _ in range(10):
        k = rng.choice([1, 2])
        alpha = rnd_form(rng, plane, k)
        for _ in range(20):
            sample = {
                "x": {n: Fraction(rng.randint(-8, 8), rng.randint(1, 5))
                      for n in plane.names},
                "xdot": {n: Fraction(rng.randint(-8, 8), rng.randint(1, 5))
                         for n in plane.names},
                "dx": [{n: Fraction(rng.randint(-8, 8)) for n in plane.names}
                       for _ in range(k)],
                "dxdot": [{n: Fraction(rng.randint(-8, 8)) for n in plane.names}
                          for _ in range(k)],
            }
            assert tangent_lift_involution_residual(alpha, plane, sample) == 0
        cases += 1
    report(7, f"lift naturality x100; involution sampling on {cases} forms x20 points",
           started, 10)


def test_criterion_08_dual_theorem_oracle():
    started = time.time()
    so3 = so3_algebroid()
    one = Polynomial.const(so3.base_chart, 1)
    r = Section(so3, 2, {(0, 1): one})
    cob = Derivation(so3, 2, {}, {
        so3.frame_names[a]: section_bracket(Section.frame(so3, a), r)
        for a in range(3)})
    assert oracle_equivalence_dual(linear_from_derivation(cob), so3, 2) == (True, True)
    bad = Derivation(so3, 2, {}, {
        so3.frame_names[0]: Section(so3, 2, {(0, 1): one}),
        so3.frame_names[1]: Section.zero(so3, 2),
        so3.frame_names[2]: Section.zero(so3, 2)})
    assert oracle_equivalence_dual(linear_from_derivation(bad), so3, 2) == (False, False)
    assert oracle_equivalence_dual(LinearMultivector(so3, 2, {}, {}), so3, 2) == \
        (True, True)

    rng = random.Random(108)
    fixtures = [("F1", so3_algebroid()), ("F2", tangent_algebroid()),
                ("F3", koszul_so3_algebroid())]
    outcomes = {True: 0, False: 0}
    from conftest import coboundary_derivation, rnd_linear_multivector
    for case in range(50):
        _, algebroid = fixtures[rng.randrange(len(fixtures))]
        k = rng.choice([1, 2, 3])
        if case % 3 == 0 and k <= algebroid.rank:
            p = linear_from_derivation(coboundary_derivation(rng, algebroid, k))
        else:
            p = rnd_linear_multivector(rng, algebroid, k)
        verdicts = oracle_equivalence_dual(p, algebroid, k)
        assert verdicts[0] == verdicts[1]
        outcomes[verdicts[0]] += 1
    assert outcomes[True] >= 10 and outcomes[False] >= 10
    report(8, f"dual equivalence oracle, fixtures + 50 randomized "
              f"({outcomes[True]} true / {outcomes[False]} false), 0 disagreements",
           started, 60)


def test_criterion_09_weil_triple_agreement():
    started = time.time()
    # all IM fixtures
    for im in (poisson_im_form(), exact_im_form(), broken_poisson_im_form()):
        bf = im.forms
        im_ok = check_im_form(im).passed
        dh_ok = horizontal_vanishing_report(
            cochain_from_bundle_forms(im.algebroid, bf)).passed
        morph = oracle_equivalence(im, bf.k)
        assert im_ok == dh_ok == morph[0] == morph[1]

    rng = random.Random(109)
    fixtures = passing_fixtures()
    agreements = 0
    for case in range(50):
        _, algebroid = fixtures[rng.randrange(len(fixtures))]
        k = rng.choice([1, 2])
        if case % 3 == 0:
            bf = im_form_from_base_form(
                algebroid, rnd_form(rng, algebroid.base_chart, k)).forms
        else:
            bf = BundleForms(
                k,
                tuple(rnd_form(rng, algebroid.base_chart, k - 1, max_deg=1)
                      for _ in range(algebroid.rank)),
                tuple(rnd_form(rng, algebroid.base_chart, k, max_deg=1)
                      for _ in range(algebroid.rank)))
        im = IMForm(algebroid, bf)
        im_ok = check_im_form(im).passed
        dh_ok = horizontal_vanishing_report(
            cochain_from_bundle_forms(algebroid, bf)).passed
        morph = oracle_equivalence(im, k)
        assert im_ok == dh_ok == morph[0] == morph[1]
        agreements += 1

    # the cochain map intertwines the differentials unconditionally
    for _ in range(50):
        name, algebroid = fixtures[rng.randrange(len(fixtures))]
        k = rng.choice([1, 2])
        bf = BundleForms(
            k,
            tuple(rnd_form(rng, algebroid.base_chart, k - 1) for _ in range(algebroid.rank)),
            tuple(rnd_form(rng, algebroid.base_chart, k) for _ in range(algebroid.rank)))
        form = linear_form(bf, total_chart_of(algebroid))
        lhs = linear_form_to_cochain(exterior_derivative(form), algebroid)
        assert lhs == -vertical_differential(bf.nu, algebroid)
    report(9, f"triple agreement on fixtures + {agreements} randomized; "
              "cochain/d intertwining x50", started, 30)


def test_criterion_10_cli_determinism_and_exit_codes():
    started = time.time()
    expected = {
        "so3_axioms.json": 0,
        "broken_jacobi_axioms.json": 1,
        "so3_poisson_im2.json": 0,
        "so3_poisson_broken_im2.json": 1,
        "tangent_r2_exact_im2.json": 0,
        "so3_coboundary_mv2.json": 0,
        "so3_noncocycle_mv2.json": 1,
        "so3_poisson_weil2.json": 0,
        "malformed_expr.json": 2,
    }

    def run(name):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main(["--input", str(CORPUS / name)])
        return code, out.getvalue()

    for name, want in expected.items():
        first = run(name)
        second = run(name)
        assert first[0] == want, name
        assert first[0] != 3
        assert first == second, f"{name} not byte-identical across runs"
        if first[1]:
            parsed = json.loads(first[1])
            if "oracle" in parsed:
                assert parsed["oracle"]["agree"] is True
    report(10, "CLI corpus: documented exit codes, byte-identical reports, "
               "no oracle disagreement", started, 5)
