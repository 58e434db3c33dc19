"""Each checker computes a derivative, a fiber restriction, a contraction or
a minor once per call, each form operation builds an output coefficient with
one `sum_of_products`, each derivation residual is one `collect`, `verify`
checks the axioms and decomposes a candidate once per document, and the
big-int product route runs where its factors are large.

The kernel calls are counted by wrapping them with monkeypatch; a counter
keeps every argument it saw alive, so `id` stays unique for the count.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import (
    coboundary_derivation, reference_parse, rnd_algebroid, rnd_bundle_forms, rnd_form,
    rnd_linear_multivector, rnd_poly, rnd_unchecked_algebroid, rnd_vector_field,
)
from imcalc import algebroid as algebroid_module
from imcalc import forms, imforms, linforms, multivec, poly, weil
from imcalc import cli
from imcalc.algebroid import (
    check_axioms,
    check_morphism_to_line,
    cotangent_prolongation,
    tangent_prolongation,
)
from imcalc.imforms import IMForm, check_im_form, im_form_from_base_form
from imcalc.linforms import decompose, form_frame_functional, linear_form, total_chart_of
from imcalc.multivec import (
    check_gerstenhaber_derivation,
    derivation_from_linear,
    multivector_frame_functional,
)
from imcalc.poly import Polynomial, base_chart, parse
from imcalc.weil import cochain_from_bundle_forms, horizontal_vanishing_report
from support import koszul_so3_algebroid


class CallCounter:
    """Counts calls by a key; holds each keyed object so ids are not reused."""

    def __init__(self):
        self.counts = Counter()
        self.kept = []
        self.on = True

    def record(self, obj, *rest):
        if self.on:
            self.kept.append(obj)
            self.counts[(id(obj),) + rest] += 1

    def wrap(self, fn, key):
        def counted(*args, **kwargs):
            self.record(*key(*args, **kwargs))
            return fn(*args, **kwargs)
        return counted


LADDER = Path(__file__).resolve().parent / "golden" / "ladder"
CORPUS = Path(__file__).resolve().parents[1] / "fixtures"


def document_functional(path: Path) -> tuple:
    """(prolongation, frame values) of the morphism route on a document's
    candidate."""
    doc = json.loads(path.read_text())
    algebroid = cli.load_algebroid(doc)
    candidate = cli.load_candidate(doc, algebroid)
    if isinstance(candidate, IMForm):
        return form_frame_functional(candidate)
    return multivector_frame_functional(candidate)


@pytest.mark.parametrize("prolong, document", [
    (tangent_prolongation, "n4_k3_im_broken.json"),
    (cotangent_prolongation, "n4_k3_mv.json"),
], ids=["tangent", "cotangent"])
def test_morphism_check_differentiates_each_frame_value_once(rng, monkeypatch, prolong,
                                                             document):
    """One `forms.Calculus` per call serves every partial, of a frame value
    or of one of its groups by dotted monomial, and every negated anchor
    entry, so no polynomial is differentiated twice per coordinate or
    negated twice in a call.  The random values at k = 2 take the full
    product; the ladder document at k = 3 also takes the sorted path."""
    functionals = []
    for algebroid in (koszul_so3_algebroid(), rnd_algebroid(rng), rnd_algebroid(rng)):
        prol = prolong(algebroid, 2)
        functionals.append((prol, [rnd_poly(rng, prol.base_chart, 2) for _ in range(prol.rank)]))
    prol, values = document_functional(LADDER / document)
    assert prol.base_chart.name.endswith(
        "|T3" if prolong is tangent_prolongation else "|T*3")
    functionals.append((prol, values))
    diffs, negations = CallCounter(), CallCounter()
    monkeypatch.setattr(Polynomial, "diff",
                        diffs.wrap(Polynomial.diff, lambda p, coord: (p, coord)))
    monkeypatch.setattr(Polynomial, "__neg__", negations.wrap(Polynomial.__neg__, lambda p: (p,)))
    seen = [0, 0]
    for functional in functionals:
        diffs.counts.clear()
        negations.counts.clear()
        check_morphism_to_line(*functional)
        assert max(diffs.counts.values(), default=1) == 1
        assert max(negations.counts.values(), default=1) == 1
        seen = [seen[0] + len(diffs.counts), seen[1] + len(negations.counts)]
    assert all(seen), "the checks took no partial or no negation"


@pytest.mark.parametrize("document, calls", [
    pytest.param(LADDER / "n4_k3_im_broken.json", 58, id="n4_k3_im_broken.json"),
    pytest.param(LADDER / "n4_k3_mv.json", 56, id="n4_k3_mv.json"),
    pytest.param(CORPUS / "so3_poisson_im2.json", 21, id="so3_poisson_im2.json"),
])
def test_morphism_check_computes_one_pair_per_orbit(monkeypatch, document, calls):
    """At n = 4, k = 3 the prolongation has rank 16, so 120 frame pairs fall
    into 38 copy-permutation orbits.  One `sum_of_products` builds each of
    the 32 representatives with fewer than three free copies; each of the
    6 (l_a, l_b) representatives takes one per sorted dotted monomial, 4 of
    them, and 2 more to expand a nonzero sorted part to its residual, which
    the broken IM form has at one of them.  At k = 2 (rank 9, 36 pairs)
    every one of the 21 representatives is one full product."""
    prol, values = document_functional(document)
    layout = prol._copy_layout
    orbits = sum(layout.orbit_source(i, j) is None
                 for i in range(prol.rank) for j in range(i + 1, prol.rank))
    assert (prol.rank, orbits) == ((16, 38) if layout.k == 3 else (9, 21))
    counts = _count_kernel(monkeypatch)
    check_morphism_to_line(prol, values)
    assert counts["sum_of_products"] == calls


def test_parsing_a_sum_of_monomials_multiplies_no_polynomials(monkeypatch):
    """Each monomial term of an expression is one (coefficient, key) pair
    added into one term map: no product and no Polynomial sum."""
    chart = base_chart("M", ["x1", "x2", "x3", "x4"])
    text = "1802*x1*x3*x4 - 832*x1*x3 + 3/4*x2^2*x1 - x4 + 7 - 2/3*x1*x3"
    counts = _count_kernel(monkeypatch)
    p = parse(text, chart)
    assert counts == Counter()
    assert p == reference_parse(text, chart)
    assert len(p.terms) == 5


def _count_kernel(monkeypatch) -> Counter:
    """Count `sum_of_products` and `Polynomial.__add__` calls."""
    counts = Counter()
    collect = Polynomial.sum_of_products.__func__
    add = Polynomial.__add__

    def counted_collect(cls, chart, pairs):
        counts["sum_of_products"] += 1
        return collect(cls, chart, pairs)

    def counted_add(self, other):
        counts["add"] += 1
        return add(self, other)

    monkeypatch.setattr(Polynomial, "sum_of_products", classmethod(counted_collect))
    monkeypatch.setattr(Polynomial, "__add__", counted_add)
    return counts


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_contract_and_d_collect_each_output_key_once(rng, monkeypatch, degree):
    chart = base_chart("M", ["x1", "x2", "x3", "x4"])
    cases = [(rnd_vector_field(rng, chart), rnd_form(rng, chart, degree, density=0.9))
             for _ in range(6)]
    counts = _count_kernel(monkeypatch)
    for x, a in cases:
        # every key one term reaches, whether or not its sum cancels
        keys = {idx[:pos] + idx[pos + 1:] for idx in a.coeffs for pos in range(len(idx))
                if (idx[pos],) in x.coeffs}
        counts.clear()
        forms.contract(x, a)
        assert dict(counts) == ({"sum_of_products": len(keys)} if keys else {})
        keys = {tuple(sorted(idx + (j,))) for idx, p in a.coeffs.items()
                for j, name in enumerate(chart.names)
                if j not in idx and not p.diff(name).is_zero()}
        counts.clear()
        forms.exterior_derivative(a)
        assert dict(counts) == ({"sum_of_products": len(keys)} if keys else {})


def _im2_keys(im: IMForm, a: int, b: int) -> set:
    """Every output key a pair of IM2(a, b) reaches, whether or not its sum
    cancels: the bracket image, both terms of the coordinate formula of
    L_{rho(a)} mu(b), and i_{rho(b)} of d mu(a) + nu(a)."""
    A = im.algebroid
    names = A.base_chart.names
    mu, nu = im.forms.mu, im.forms.nu
    keys = set()
    for c, _ in A.bracket_frame_row(a, b):
        keys |= set(mu[c].coeffs)
    rho_a, rho_b = A.anchor[a], A.anchor[b]
    for idx, f in mu[b].coeffs.items():
        if any(not rho_a[j].is_zero() and not f.diff(name).is_zero()
               for j, name in enumerate(names)):
            keys.add(idx)
        for pos, t in enumerate(idx):
            for l, name in enumerate(names):
                if (l == t or l not in idx) and not rho_a[t].diff(name).is_zero():
                    keys.add(tuple(sorted(idx[:pos] + (l,) + idx[pos + 1:])))
    for idx in (forms.exterior_derivative(mu[a]) + nu[a]).coeffs:
        keys |= {idx[:pos] + idx[pos + 1:] for pos, i in enumerate(idx) if not rho_b[i].is_zero()}
    return keys


@pytest.mark.parametrize("k", [1, 2, 3])
def test_im_residual_collects_each_output_key_once(rng, monkeypatch, k):
    algebroid = koszul_so3_algebroid()
    im = IMForm(algebroid, rnd_bundle_forms(rng, algebroid, k))
    residuals = imforms._Residuals(im)
    pairs = [(a, b) for a in range(algebroid.rank) for b in range(algebroid.rank)]
    for a, b in pairs:
        residuals.bracket("mu", a, b)   # fills the tables of the call
    counts = _count_kernel(monkeypatch)
    seen = 0
    for a, b in pairs:
        keys = _im2_keys(im, a, b)
        counts.clear()
        residuals.bracket("mu", a, b)
        assert dict(counts) == ({"sum_of_products": len(keys)} if keys else {})
        seen += len(keys)
    assert seen, "no residual had a term"


@pytest.mark.parametrize("k", [1, 2, 3])
def test_im_check_takes_d_of_each_frame_image_once(rng, monkeypatch, k):
    """d of each frame image comes from the partials of its coefficients,
    each coefficient differentiated at most once per coordinate, and no
    Cartan form operation runs: no `contract`, `exterior_derivative` or
    `linear_combination`, on a failing candidate and on a passing one,
    whose nu identities run too."""
    algebroid = koszul_so3_algebroid()
    eta = forms.DifferentialForm(algebroid.base_chart, k,
                                 {tuple(range(k)): rnd_poly(rng, algebroid.base_chart, 2)})
    candidates = [im_form_from_base_form(algebroid, eta),
                  IMForm(algebroid, rnd_bundle_forms(rng, algebroid, k))]
    counter = CallCounter()
    monkeypatch.setattr(Polynomial, "diff",
                        counter.wrap(Polynomial.diff, lambda p, coord: (p, coord)))
    cartan = _count_everywhere(monkeypatch, forms.contract, forms.exterior_derivative,
                               forms.linear_combination)
    for im, passes in zip(candidates, (True, False)):
        counter.counts.clear()
        assert check_im_form(im).passed == passes
        coefficients = {id(p) for image in im.forms.mu + im.forms.nu
                        for p in image.coeffs.values()}
        taken = [n for key, n in counter.counts.items() if key[0] in coefficients]
        assert taken and max(taken) == 1
    assert not cartan


def test_vanishing_report_keeps_cartans_formula(rng, monkeypatch):
    """The Weil route takes L = i d + d i through `Calculus.add_contract` and
    `Calculus.add_d`, never through the derivation operator or the rows of
    the coordinate formula that `check_im_form` takes L_{rho(a)} by, so the
    two routes compute L by different formulas."""
    algebroid = koszul_so3_algebroid()
    w = cochain_from_bundle_forms(algebroid, rnd_bundle_forms(rng, algebroid, 2))
    calls = _count_calculus(monkeypatch, "add_contract", "add_d", "add_derivation", "lie")
    horizontal_vanishing_report(w)
    assert set(calls) == {"add_contract", "add_d"}


def _count_calculus(monkeypatch, *names) -> Counter:
    """Count calls of the named `forms.Calculus` operators by name."""
    counts = Counter()
    for name in names:
        def counted(*args, _fn=getattr(forms.Calculus, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(forms.Calculus, name, counted)
    return counts


@pytest.mark.parametrize("k", [1, 2, 3])
def test_derivation_check_differentiates_each_polynomial_once(rng, monkeypatch, k):
    cases = []
    for algebroid in (koszul_so3_algebroid(), rnd_algebroid(rng), rnd_algebroid(rng)):
        check_axioms(algebroid)
        cases.append((algebroid, derivation_from_linear(rnd_linear_multivector(rng, algebroid, k))))
    counter = CallCounter()
    monkeypatch.setattr(Polynomial, "diff",
                        counter.wrap(Polynomial.diff, lambda p, coord: (p, coord)))
    seen = 0
    for algebroid, d in cases:
        counter.counts.clear()
        check_gerstenhaber_derivation(d)
        assert max(counter.counts.values(), default=1) == 1
        seen += len(counter.counts)
    assert seen, "the checks took no partial derivative"


def test_axiom_check_differentiates_and_negates_each_polynomial_once(rng, monkeypatch):
    """The anchor and Jacobi residuals share one table of partials and
    negations, and read brackets in either order from the stored a < b
    structure, so no polynomial is differentiated twice per coordinate or
    negated twice."""
    doc = json.loads((LADDER / "n4_k3_mv.json").read_text())
    algebroids = [koszul_so3_algebroid(), cli.load_algebroid(doc)]
    algebroids += [rnd_unchecked_algebroid(rng) for _ in range(4)]
    diffs, negations = CallCounter(), CallCounter()
    monkeypatch.setattr(Polynomial, "diff",
                        diffs.wrap(Polynomial.diff, lambda p, coord: (p, coord)))
    monkeypatch.setattr(Polynomial, "__neg__", negations.wrap(Polynomial.__neg__, lambda p: (p,)))
    seen = [0, 0]
    for algebroid in algebroids:
        diffs.counts.clear()
        negations.counts.clear()
        check_axioms(algebroid)
        assert max(diffs.counts.values(), default=1) == 1
        assert max(negations.counts.values(), default=1) == 1
        seen = [seen[0] + len(diffs.counts), seen[1] + len(negations.counts)]
    assert all(seen), "the checks took no partial or no negation"


@pytest.mark.parametrize("k", [1, 2, 3])
def test_derivation_check_collects_each_residual_once(rng, monkeypatch, k):
    """Each generator pair's residual is one `collect`, whatever its degree,
    and no bracket goes through the general `graded_bracket`."""
    cases = []
    for algebroid in (koszul_so3_algebroid(), rnd_algebroid(rng), rnd_algebroid(rng)):
        cases.append(derivation_from_linear(rnd_linear_multivector(rng, algebroid, k)))
        cases.append(coboundary_derivation(rng, algebroid, k))
    counts = Counter()
    for name, counted in (("collect", forms.collect), ("graded_bracket", forms.graded_bracket)):
        def wrapper(*args, _fn=counted, _name=name):
            counts[_name] += 1
            return _fn(*args)
        for module in (forms, algebroid_module, linforms, multivec, weil, imforms):
            if getattr(module, name, None) is counted:
                monkeypatch.setattr(module, name, wrapper)
    for d in cases:
        n, r = d.algebroid.base_chart.dim, d.algebroid.rank
        counts.clear()
        check_gerstenhaber_derivation(d)
        assert dict(counts) == {"collect": n * (n - 1) // 2 + n * r + r * (r - 1) // 2}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_horizontal_differential_takes_d_of_each_form_once(rng, monkeypatch, k):
    """d of each frame value is one `Calculus.add_d` of its table, and no
    polynomial is differentiated twice by a coordinate in one call."""
    algebroid = koszul_so3_algebroid()
    w = cochain_from_bundle_forms(algebroid, rnd_bundle_forms(rng, algebroid, k))
    derived = CallCounter()
    monkeypatch.setattr(forms.Calculus, "add_d", derived.wrap(
        forms.Calculus.add_d, lambda ops, groups, table, s: (table,)))
    diffs = CallCounter()
    monkeypatch.setattr(Polynomial, "diff",
                        diffs.wrap(Polynomial.diff, lambda p, coord: (p, coord)))
    horizontal_vanishing_report(w)
    assert max(diffs.counts.values()) == 1
    names = algebroid.base_chart.names
    for value in w.comp0 + w.comp1:
        assert derived.counts[(id(value.coeffs),)] == 1
        for idx, f in value.coeffs.items():
            for j, name in enumerate(names):
                assert diffs.counts[(id(f), name)] == (j not in idx)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_vanishing_report_contracts_each_frame_value_once(rng, monkeypatch, k):
    """i_{rho_a} of each frame value is one `Calculus.add_contract` per
    report, though the differential and the DH2 polarization both read it."""
    algebroid = koszul_so3_algebroid()
    chart = algebroid.base_chart
    w = cochain_from_bundle_forms(algebroid, rnd_bundle_forms(rng, algebroid, k))
    rho = [algebroid.anchor_field(a) for a in range(algebroid.rank)]
    assert len(set(rho)) == algebroid.rank
    counter = CallCounter()
    monkeypatch.setattr(forms.Calculus, "add_contract", counter.wrap(
        forms.Calculus.add_contract,
        lambda ops, groups, components, table, s:
            (table, forms.VectorField(chart, {(i,): p for i, p in components.items()}))))
    horizontal_vanishing_report(w)
    for a in range(algebroid.rank):
        for b in range(algebroid.rank):
            assert counter.counts[(id(w.comp0[b].coeffs), rho[a])] == 1
            assert counter.counts[(id(w.comp1[b].coeffs), rho[a])] == 1


@pytest.mark.parametrize("k", [1, 2, 3])
def test_frame_functionals_expand_each_minor_once(rng, monkeypatch, k):
    """Every (rows, columns) minor is expanded once per table, a new call
    expands its minors afresh, and a cross-check reads only tables it built."""
    expanded = CallCounter()
    monkeypatch.setattr(forms.Minors, "_expand", expanded.wrap(
        forms.Minors._expand, lambda table, ids, cols: (table, ids, cols)))
    read = {"route": set(), "check": set()}
    phase = ["route"]
    contract = forms.Minors.contract

    def counted_contract(table, *args, **kwargs):
        read[phase[0]].add(table)
        return contract(table, *args, **kwargs)

    monkeypatch.setattr(forms.Minors, "contract", counted_contract)
    for module in (linforms, multivec):
        def in_check(*args, _inner=module.cross_check_frame_values):
            phase[0] = "check"
            try:
                return _inner(*args)
            finally:
                phase[0] = "route"
        monkeypatch.setattr(module, "cross_check_frame_values", in_check)

    algebroid = koszul_so3_algebroid()
    im = IMForm(algebroid, rnd_bundle_forms(rng, algebroid, k))
    p = rnd_linear_multivector(rng, algebroid, k)
    for call in (lambda: form_frame_functional(im),
                 lambda: multivector_frame_functional(p)):
        runs = []
        for _ in range(2):
            expanded.counts.clear()
            call()
            assert expanded.counts and max(expanded.counts.values()) == 1
            runs.append(dict(expanded.counts))
        first, second = ({key[1:] for key in run} for run in runs)
        assert first == second
        assert not {key[0] for key in runs[0]} & {key[0] for key in runs[1]}
    assert read["check"] and not read["route"] & read["check"]


def _counting_cross_check(monkeypatch, module):
    """Count `unit_restrictions` calls, by polynomial, fiber names and
    target chart, and `partial_eval` calls, inside the cross-check that
    `module` calls only."""
    splits, evals = CallCounter(), CallCounter()
    splits.on = evals.on = False
    monkeypatch.setattr(Polynomial, "unit_restrictions", splits.wrap(
        Polynomial.unit_restrictions, lambda p, names, chart: (p, tuple(names), chart)))
    monkeypatch.setattr(Polynomial, "partial_eval", evals.wrap(
        Polynomial.partial_eval, lambda p, assign, chart: (p,)))
    inner = module.cross_check_frame_values

    def counted(*args):
        splits.on = evals.on = True
        try:
            return inner(*args)
        finally:
            splits.on = evals.on = False

    monkeypatch.setattr(module, "cross_check_frame_values", counted)
    return splits, evals


def _assert_one_split_per_coefficient(splits, evals, table, tc) -> None:
    assert not evals.counts, "the cross-check evaluated a polynomial at a point"
    assert max(splits.counts.values()) == 1
    assert len(splits.counts) == len(table.coeffs)
    # every split is over all the fiber coordinates: the zero point and one
    # unit point per frame section
    assert {key[1] for key in splits.counts} == {tc.fiber_names}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_form_cross_check_restricts_each_coefficient_once(rng, monkeypatch, k):
    splits, evals = _counting_cross_check(monkeypatch, linforms)
    algebroid = koszul_so3_algebroid()
    bundle_forms = rnd_bundle_forms(rng, algebroid, k)
    form_frame_functional(IMForm(algebroid, bundle_forms))
    tc = total_chart_of(algebroid)
    _assert_one_split_per_coefficient(splits, evals, linear_form(bundle_forms, tc), tc)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_multivector_cross_check_restricts_each_coefficient_once(rng, monkeypatch, k):
    splits, evals = _counting_cross_check(monkeypatch, multivec)
    algebroid = koszul_so3_algebroid()
    p = rnd_linear_multivector(rng, algebroid, k)
    multivector_frame_functional(p)
    tc = total_chart_of(algebroid)
    _assert_one_split_per_coefficient(splits, evals, p.to_multivector(tc), tc)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_multivector_frame_values_promote_each_coefficient_once(rng, monkeypatch, k):
    """The dual frame values read each fiber and mixed coefficient on the
    prolongation chart through one promotion, not one per dual copy."""
    algebroid = koszul_so3_algebroid()
    p = rnd_linear_multivector(rng, algebroid, k)
    chart = cotangent_prolongation(algebroid, k).base_chart
    promoted = CallCounter()
    monkeypatch.setattr(Polynomial, "promote", promoted.wrap(
        Polynomial.promote, lambda poly, new_chart: (poly, new_chart)))
    multivector_frame_functional(p)
    coefficients = [*p.fiber.values(), *p.mixed.values()]
    assert p.fiber and p.mixed
    assert [promoted.counts[(id(poly), chart)] for poly in coefficients] == [1] * len(coefficients)


def _count_everywhere(monkeypatch, *functions) -> Counter:
    """Count calls of each function by name, wherever an `imcalc` module
    binds it."""
    counts = Counter()
    for fn in functions:
        def counted(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if (name == "imcalc" or name.startswith("imcalc.")) \
                    and vars(module).get(fn.__name__) is fn:
                monkeypatch.setattr(module, fn.__name__, counted)
    return counts


CORPUS = Path(__file__).resolve().parents[1] / "fixtures"


@pytest.mark.parametrize("name, expected", [
    # decompose checks its result against the candidate with the d it has
    # built, and the morphism route contracts the candidate itself, so Weil
    # mode builds no linear form
    ("so3_poisson_weil2.json", {"check_axioms": 1, "decompose": 1}),
    ("so3_poisson_im2.json", {"check_axioms": 1, "linear_form": 1}),
    ("so3_coboundary_mv2.json", {"check_axioms": 1}),
])
def test_one_axiom_check_and_decomposition_per_document(monkeypatch, capsys, name, expected):
    counts = _count_everywhere(monkeypatch, check_axioms, decompose, linear_form)
    assert cli.main(["--input", str(CORPUS / name)]) == 0
    assert dict(counts) == expected


@pytest.mark.parametrize("name, expected", [
    ("n4_k3_im_broken", {"tangent_prolongation": 1}),
    ("n4_k3_mv", {"cotangent_prolongation": 1}),
])
def test_one_prolongation_per_document(monkeypatch, capsys, name, expected):
    """The morphism route builds its prolongation inside the frame
    functional and checks the functional on it, so no route builds one
    twice."""
    exit_code = json.loads((LADDER / "exit_codes.json").read_text())[name]["json"]
    counts = _count_everywhere(monkeypatch, tangent_prolongation, cotangent_prolongation)
    assert cli.main(["--input", str(LADDER / f"{name}.json")]) == exit_code
    assert dict(counts) == expected


def _weil_document(doc: dict) -> dict:
    """An im-form document with its candidate written as its linear form,
    for Weil mode."""
    algebroid = cli.load_algebroid(doc)
    im = cli.load_candidate(doc, algebroid)
    form = linear_form(im.forms, total_chart_of(algebroid))
    terms = [[[i + 1 for i in idx], str(poly)] for idx, poly in sorted(form.coeffs.items())]
    return {**doc, "candidate": {"type": "weil", "k": im.k, "form": terms},
            "options": {**doc["options"], "mode": "weil"}}


@pytest.mark.parametrize("mode, expected", [
    ("im-form", {"linear_form": 1}),
    ("weil", {"decompose": 1}),
])
def test_one_linear_form_path_per_ladder_document(monkeypatch, capsys, tmp_path, mode, expected):
    """On an im-form document the morphism route builds the candidate's
    linear form once and decomposes nothing.  Weil mode decomposes its
    candidate once to get the IM form and builds no linear form: the
    cross-check contracts the candidate, which `decompose` proved equal to
    the linear form of that IM form."""
    doc = json.loads((LADDER / "n4_k3_im_broken.json").read_text())
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc if mode == "im-form" else _weil_document(doc)))
    counts = _count_everywhere(monkeypatch, decompose, linear_form)
    assert cli.main(["--input", str(path)]) == 1
    assert dict(counts) == expected


@pytest.mark.parametrize("source", ["so3_poisson_weil2", "n4_k3_im_broken"])
def test_weil_cross_check_contracts_the_candidate_and_catches_a_wrong_value(
        monkeypatch, capsys, tmp_path, source):
    """In Weil mode the frame-value cross-check contracts the candidate
    itself, and one negated frame value of `form_frame_functional` still
    makes `verify` exit 3 as an internal defect."""
    if source == "n4_k3_im_broken":
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(_weil_document(
            json.loads((LADDER / f"{source}.json").read_text()))))
    else:
        path = CORPUS / f"{source}.json"
    check = linforms.cross_check_frame_values
    tables = []

    def planted(table, tc, prol, rows_at, units_at, values):
        tables.append(table)
        wrong = list(values)
        a = next(a for a, value in enumerate(wrong) if not value.is_zero())
        wrong[a] = -wrong[a]
        return check(table, tc, prol, rows_at, units_at, wrong)

    monkeypatch.setattr(linforms, "cross_check_frame_values", planted)
    assert cli.main(["--input", str(path)]) == 3
    assert "internal defect" in capsys.readouterr().err
    doc = json.loads(path.read_text())
    assert tables == [cli.load_candidate(doc, cli.load_algebroid(doc))]


def test_big_int_route_runs_on_dense_documents_only(monkeypatch, capsys, tmp_path):
    """The benchmark's dense plane documents, (1 + x1 + 2*x2)^d written out,
    multiply factors of 20 to 132 terms by the big-int route; the corpus
    and the ladder documents never take it."""
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    import workloads

    documents = []
    for doc in workloads.dense_poly_documents(root, 11):
        path = tmp_path / doc.name
        path.write_text(doc.text)
        documents.append((path, doc.exit))
    corpus = json.loads((LADDER.parent / "exit_codes.json").read_text())
    ladder = json.loads((LADDER / "exit_codes.json").read_text())
    documents += [(CORPUS / f"{name}.json", codes["json"]) for name, codes in corpus.items()]
    documents += [(LADDER / f"{name}.json", codes["json"]) for name, codes in ladder.items()]

    runs = Counter()
    inner = poly._kronecker

    def counted(chart, pairs, terms):
        took = inner(chart, pairs, terms)
        runs[path.name] += took
        return took

    monkeypatch.setattr(poly, "_kronecker", counted)
    for path, exit_code in documents:
        assert cli.main(["--input", str(path)]) == exit_code
    # a run is one `sum_of_products` call; each IM and ISOTROPY residual
    # collects all its large products in one call per output key (ISOTROPY's
    # two contractions at (e1, e2) share one), so the 52 large pairs of a
    # d = 7 document take 16 runs.  The morphism check decides (l_1, l_2)
    # from its one sorted dotted coefficient, whose factors are base groups:
    # they still take one run at d = 7 and none at d = 4
    assert +runs == {"plane_d4_e3.json": 2, "plane_d4_e3_perturbed.json": 2,
                     "plane_d7_e4.json": 16, "plane_d7_e4_perturbed.json": 16}
    assert len(documents) == 4 + 11
