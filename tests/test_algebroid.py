"""Algebroid data structure, axiom checker, prolongations, morphism checker."""

from __future__ import annotations

import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    coboundary_derivation,
    frame_index,
    reference_morphism_violations,
    rnd_algebroid,
    rnd_bundle_forms,
    rnd_form,
    rnd_linear_multivector,
    rnd_poly,
    rnd_section,
    rnd_unchecked_algebroid,
)
from imcalc.algebroid import (
    LieAlgebroid,
    Section,
    Violation,
    anchor_apply,
    bracket_sections,
    check_axioms,
    check_morphism_to_line,
    cotangent_prolongation,
    dual_copy_name,
    section_bracket,
    tangent_copy_name,
    tangent_prolongation,
    _SortedResiduals,
)
from imcalc.errors import AlgebroidError, AxiomError
from imcalc.fixtures import koszul_algebroid
from imcalc.forms import Calculus, VectorField
from imcalc.imforms import IMForm, im_form_from_base_form
from imcalc.linforms import BundleForms, form_frame_functional
from imcalc.multivec import linear_from_derivation, multivector_frame_functional
from imcalc.poly import Polynomial, base_chart, parse
from support import (
    apply_field,
    bivector,
    broken_jacobi_algebroid,
    broken_koszul_algebroid,
    coordinate_field,
    koszul_so3_algebroid,
    section_from_components,
    so3_algebroid,
    tangent_algebroid,
    trivial_cotangent_algebroid,
)


def test_fixture_axioms():
    assert so3_algebroid().checked
    assert tangent_algebroid().checked
    assert koszul_so3_algebroid().checked
    assert trivial_cotangent_algebroid().checked


def test_broken_jacobi_witness():
    report = check_axioms(broken_jacobi_algebroid())
    assert not report.passed
    assert len(report.violations) == 1
    violation = report.violations[0]
    assert violation.condition == "AXIOM_JACOBI"
    assert violation.witness == (1, 2, 3, 1)
    assert violation.residual == Polynomial.const(broken_jacobi_algebroid().base_chart, 1)


def test_checked_construction_raises_on_bad_data():
    chart = base_chart("pt", [])
    one = Polynomial.const(chart, 1)
    with pytest.raises(AxiomError):
        LieAlgebroid(chart, 3, ("e1", "e2", "e3"), [(), (), ()],
                     {(0, 1): {0: one}, (1, 2): {1: one}})


def test_broken_koszul_fails_anchor_condition():
    report = check_axioms(broken_koszul_algebroid())
    assert not report.passed
    assert any(v.condition == "AXIOM_ANCHOR" for v in report.violations)


def test_bracket_examples():
    so3 = so3_algebroid()
    e1, e2 = Section.frame(so3, 0), Section.frame(so3, 1)
    assert bracket_sections(e1, e2) == Section.frame(so3, 2)
    tangent = tangent_algebroid()
    x1 = parse("x1", tangent.base_chart)
    u = Section.frame(tangent, 0)
    v = section_from_components(tangent, [Polynomial.zero(tangent.base_chart), x1])
    assert bracket_sections(u, v) == Section.frame(tangent, 1)


def test_bracket_antisymmetry_random(rng):
    for _ in range(15):
        algebroid = rnd_algebroid(rng)
        u = rnd_section(rng, algebroid, 1)
        assert bracket_sections(u, u).is_zero()


def test_bracket_jacobi_random(rng):
    for _ in range(12):
        algebroid = rnd_algebroid(rng)
        u, v, w = (rnd_section(rng, algebroid, 1) for _ in range(3))
        jac = (bracket_sections(u, bracket_sections(v, w))
               + bracket_sections(v, bracket_sections(w, u))
               + bracket_sections(w, bracket_sections(u, v)))
        assert jac.is_zero()


def test_engine_matches_explicit_bracket(rng):
    for _ in range(15):
        algebroid = rnd_algebroid(rng)
        u = rnd_section(rng, algebroid, 1)
        v = rnd_section(rng, algebroid, 1)
        assert section_bracket(u, v) == bracket_sections(u, v)


def test_anchor_examples():
    koszul = koszul_so3_algebroid()
    field = anchor_apply(Section.frame(koszul, 0))
    chart = koszul.base_chart
    assert field == VectorField(chart, {(1,): parse("x3", chart),
                                        (2,): parse("-1*x2", chart)})
    assert anchor_apply(Section.zero(koszul, 1)).is_zero()
    tangent = tangent_algebroid()
    assert anchor_apply(Section.frame(tangent, 0)) == \
        coordinate_field(tangent.base_chart, "x1")


def test_sparse_anchor_holds_the_nonzero_entries(rng):
    """`anchor_rows` and `anchor_columns` hold the nonzero entries of the
    anchor matrix, by frame section and by coordinate."""
    for algebroid in (koszul_so3_algebroid(), tangent_algebroid(), rnd_algebroid(rng),
                      cotangent_prolongation(rnd_algebroid(rng), 2)):
        entries = {(a, j): p for a, row in enumerate(algebroid.anchor)
                   for j, p in enumerate(row) if not p.is_zero()}
        assert {(a, j): p for a, row in enumerate(algebroid.anchor_rows)
                for j, p in row.items()} == entries
        assert {(a, j): p for j, column in enumerate(algebroid.anchor_columns)
                for a, p in column.items()} == entries
        assert len(algebroid.anchor_columns) == algebroid.base_chart.dim


# -- prolongations -----------------------------------------------------------

def test_tangent_prolongation_scaling_example():
    chart = base_chart("L", ["x"])
    algebroid = LieAlgebroid(chart, 1, ("e1",), [[parse("x", chart)]], {})
    prol = tangent_prolongation(algebroid, 1)
    assert prol.frame_names == ("e1_hat1", "Te1")
    big = prol.base_chart
    core_row = dict(zip(big.names, prol.anchor[0]))
    lin_row = dict(zip(big.names, prol.anchor[1]))
    assert core_row["x"].is_zero() and core_row["x_dot1"] == parse("x", big)
    assert lin_row["x"] == parse("x", big) and lin_row["x_dot1"] == parse("x_dot1", big)


def test_tangent_prolongation_point_base():
    so3 = so3_algebroid()
    prol = tangent_prolongation(so3, 2)
    assert prol.rank == 9
    assert all(p.is_zero() for row in prol.anchor for p in row)
    # [(Te_a)^2, (Te_b)^2] = C_ab^d (Te_d)^2 and [(Te_a)^2, e_hat(b, m)] = C_ab^d e_hat(d, m)
    t1, t2 = frame_index(prol, "Te1"), frame_index(prol, "Te2")
    row = dict(prol.bracket_frame_row(t1, t2))
    assert list(row) == [frame_index(prol, "Te3")]
    h21 = frame_index(prol, "e2_hat1")
    row = dict(prol.bracket_frame_row(t1, h21))
    assert {prol.frame_names[c]: str(p) for c, p in row.items()} == {"e3_hat1": "1"}


def test_tangent_prolongation_of_line_tangent_algebroid():
    algebroid = tangent_algebroid(("x",), "L")
    prol = tangent_prolongation(algebroid, 1)
    assert check_axioms(prol).passed
    assert not prol.structure  # abelian
    # anchor is a bijection on the dotted chart
    assert prol.anchor[0][1] == Polynomial.const(prol.base_chart, 1)


def test_cotangent_prolongation_examples():
    so3 = so3_algebroid()
    prol = cotangent_prolongation(so3, 1)
    assert prol.rank == 3
    assert prol.frame_names == ("e1_L", "e2_L", "e3_L")
    big = prol.base_chart
    # coadjoint anchor: rho(e1_L) = xi3 d/dxi2 - xi2 d/dxi3
    row = dict(zip(big.names, prol.anchor[0]))
    assert row["xi1_2"] == parse("xi1_3", big)
    assert row["xi1_3"] == parse("-1*xi1_2", big)

    line = tangent_algebroid(("x",), "L")
    prol = cotangent_prolongation(line, 1)
    assert prol.frame_names == ("dx_hat1", "e1_L")
    assert dict(zip(prol.base_chart.names, prol.anchor[0]))["xi1_1"] == \
        Polynomial.const(prol.base_chart, 1)
    assert dict(zip(prol.base_chart.names, prol.anchor[1]))["x"] == \
        Polynomial.const(prol.base_chart, 1)
    assert not prol.structure


def test_abelian_cotangent_prolongation_trivial():
    trivial = trivial_cotangent_algebroid()
    for k in (1, 2):
        prol = cotangent_prolongation(trivial, k)
        assert not prol.structure
        assert all(p.is_zero() for row in prol.anchor for p in row)


def test_prolongation_closure_random(rng):
    # 50 axiom-passing algebroids with structure functions of degree <= 1
    for _ in range(50):
        algebroid = rnd_algebroid(rng)
        k = rng.choice([1, 2, 3])
        assert check_axioms(tangent_prolongation(algebroid, k)).passed
        assert check_axioms(cotangent_prolongation(algebroid, k)).passed


def _log_canonical(n: int) -> LieAlgebroid:
    """Koszul algebroid of {x_i, x_j} = c_ij x_i x_j, Poisson for every c."""
    chart = base_chart("M", [f"x{i + 1}" for i in range(n)])
    weights = {(0, 1): "3", (0, 2): "-1/2", (1, 2): "2",
               (0, 3): "1", (1, 3): "-3", (2, 3): "1/3"}
    return koszul_algebroid(bivector(chart, {
        (i, j): f"{weights[(i, j)]}*x{i + 1}*x{j + 1}"
        for i in range(n) for j in range(i + 1, n)}))


CLOSURE_BASES = {
    "so3": so3_algebroid,
    "tangent": tangent_algebroid,
    "koszul_so3": koszul_so3_algebroid,
    "log_canonical_2": lambda: _log_canonical(2),
    "log_canonical_3": lambda: _log_canonical(3),
}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("prolong", [tangent_prolongation, cotangent_prolongation],
                         ids=["tangent", "cotangent"])
@pytest.mark.parametrize("base", sorted(CLOSURE_BASES))
def test_prolongation_is_a_lie_algebroid(base, prolong, k):
    # prolongations inherit `checked` from their base; verify it is earned
    algebroid = CLOSURE_BASES[base]()
    assert check_axioms(algebroid).passed
    assert check_axioms(prolong(algebroid, k)).passed


def copy_permutations(k: int) -> list:
    """Every permutation of k <= 3 copies; the adjacent transpositions,
    which generate the rest, for larger k."""
    if k <= 3:
        return list(permutations(range(k)))
    ids = tuple(range(k))
    return [ids[:m] + (m + 1, m) + ids[m + 2:] for m in range(k - 1)]


EQUIVARIANCE_BASES = {
    "so3": so3_algebroid,
    "broken_jacobi": broken_jacobi_algebroid,
    "koszul_so3": koszul_so3_algebroid,
    "broken_koszul": broken_koszul_algebroid,
}


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("prolong", [tangent_prolongation, cotangent_prolongation],
                         ids=["tangent", "cotangent"])
@pytest.mark.parametrize("base", sorted(EQUIVARIANCE_BASES))
def test_prolongation_is_copy_permutation_equivariant(base, prolong, k):
    """Relabelling copies maps the anchor rows and the structure table of a
    prolongation onto those of the permuted frame, exactly; the morphism
    check's orbit reduction rests on this."""
    algebroid = EQUIVARIANCE_BASES[base]()
    prol = prolong(algebroid, k)
    layout = prol._copy_layout
    chart = prol.base_chart
    zero = Polynomial.zero(chart)
    if prolong is tangent_prolongation:
        copy_names = [[tangent_copy_name(x, m) for x in algebroid.base_chart.names]
                      for m in range(1, k + 1)]
    else:
        copy_names = [[dual_copy_name(m, d + 1) for d in range(algebroid.rank)]
                      for m in range(1, k + 1)]
    copy_columns = {m: [chart.index(name) for name in names]
                    for m, names in enumerate(copy_names, 1)}
    for perm in copy_permutations(k):
        image = [layout.frame_image(u, perm) for u in range(prol.rank)]
        assert sorted(image) == list(range(prol.rank))
        # coordinate t of copy m goes to coordinate t of copy perm[m - 1] + 1,
        # found by the names the builder gives the copy coordinates
        columns = list(range(chart.dim))
        for m in range(1, k + 1):
            for j, target in zip(copy_columns[m], copy_columns[perm[m - 1] + 1]):
                columns[j] = target
        for u in range(prol.rank):
            row = [zero] * chart.dim
            for j, p in enumerate(prol.anchor[u]):
                row[columns[j]] = layout.relabel(p, perm)
            assert tuple(row) == prol.anchor[image[u]]
        for u, v in combinations(range(prol.rank), 2):
            moved = {image[c]: layout.relabel(w, perm) for c, w in prol.bracket_frame_row(u, v)}
            assert dict(prol.bracket_frame_row(image[u], image[v])) == moved


def test_prolongations_of_broken_data_fail_axioms():
    broken = broken_koszul_algebroid()
    assert not check_axioms(tangent_prolongation(broken, 1)).passed
    assert not check_axioms(cotangent_prolongation(broken, 1)).passed


def test_prolongation_rejects_k0():
    with pytest.raises(AlgebroidError):
        tangent_prolongation(so3_algebroid(), 0)
    with pytest.raises(AlgebroidError):
        cotangent_prolongation(so3_algebroid(), 0)


# -- morphism checker ---------------------------------------------------------

def test_zero_functional_is_morphism():
    for algebroid in (so3_algebroid(), koszul_so3_algebroid()):
        prol = tangent_prolongation(algebroid, 2)
        zero = Polynomial.zero(prol.base_chart)
        assert check_morphism_to_line(prol, [zero] * prol.rank).passed


def test_functional_must_cover_frame():
    """One value per frame section, each on the base chart."""
    so3 = so3_algebroid()
    zero = Polynomial.zero(so3.base_chart)
    with pytest.raises(AlgebroidError):
        check_morphism_to_line(so3, [zero])
    with pytest.raises(AlgebroidError):
        check_morphism_to_line(so3, [zero] * 4)
    with pytest.raises(AlgebroidError):
        check_morphism_to_line(so3, [zero, zero, Polynomial.zero(base_chart("N", ["y"]))])


def leibniz_residual(algebroid, values, u_coeffs, v_coeffs):
    """Morphism residual for two general sections expanded by hand.

    F([U, V]) - rho(U)F(V) + rho(V)F(U) with U = sum u^i F_i, V = sum v^j F_j
    and F extended linearly over base functions; an independent route to the
    frame-pair reduction used by check_morphism_to_line.
    """
    chart = algebroid.base_chart
    u = section_from_components(algebroid, u_coeffs)
    v = section_from_components(algebroid, v_coeffs)
    w = bracket_sections(u, v)
    value_w = Polynomial.zero(chart)
    for (c,), coeff in w.coeffs.items():
        value_w = value_w + coeff * values[c]
    value_u = Polynomial.zero(chart)
    for (c,), coeff in u.coeffs.items():
        value_u = value_u + coeff * values[c]
    value_v = Polynomial.zero(chart)
    for (c,), coeff in v.coeffs.items():
        value_v = value_v + coeff * values[c]
    rho_u = anchor_apply(u)
    rho_v = anchor_apply(v)
    return value_w - apply_field(rho_u, value_v) + apply_field(rho_v, value_u)


def test_frame_pair_sufficiency(rng):
    """Random failing functionals keep failing when the condition is
    re-derived on random coefficient combinations via the Leibniz rule, and
    passing ones keep passing."""
    failing_seen = 0
    for _ in range(20):
        algebroid = rnd_algebroid(rng)
        values = [rnd_poly(rng, algebroid.base_chart, 2) for _ in range(algebroid.rank)]
        report = check_morphism_to_line(algebroid, values)
        residuals = []
        for _ in range(4):
            u = [rnd_poly(rng, algebroid.base_chart, 1) for _ in range(algebroid.rank)]
            v = [rnd_poly(rng, algebroid.base_chart, 1) for _ in range(algebroid.rank)]
            residuals.append(leibniz_residual(algebroid, values, u, v))
        if report.passed:
            assert all(r.is_zero() for r in residuals)
        else:
            failing_seen += 1
            assert any(not r.is_zero() for r in residuals)
    assert failing_seen >= 10  # random tables essentially never satisfy the condition


@pytest.mark.parametrize("prolong", [tangent_prolongation, cotangent_prolongation],
                         ids=["tangent", "cotangent"])
def test_morphism_checker_matches_anchor_derivation_reference(rng, prolong):
    for _ in range(6):
        prol = prolong(rnd_algebroid(rng), rng.choice([1, 2, 3]))
        chart = prol.base_chart
        # some frame values zero, so some pairs pass while others fail
        values = [rnd_poly(rng, chart, 2) if rng.random() < 0.7 else Polynomial.zero(chart)
                  for _ in range(prol.rank)]
        expected = reference_morphism_violations(prol, values)
        report = check_morphism_to_line(prol, values)
        assert report.violations == tuple(expected)
        assert report.passed == (not expected)


def test_morphism_report_is_frame_ordered():
    so3 = so3_algebroid()
    one = Polynomial.const(so3.base_chart, 1)
    report = check_morphism_to_line(so3, [one] * 3)
    witnesses = [v.witness for v in report.violations]
    assert witnesses == sorted(witnesses, key=lambda w: (w[0], w[1]))
    assert not report.passed


# -- the orbit reduction against the full pair loop ----------------------------

def form_functional(rng, algebroid, k, kind):
    """(prolongation, frame values) of an exact, broken or random IM
    candidate."""
    chart = algebroid.base_chart
    if kind == "random":
        bundle_forms = rnd_bundle_forms(rng, algebroid, k)
    else:
        bundle_forms = im_form_from_base_form(algebroid, rnd_form(rng, chart, k)).forms
        if kind == "broken":
            mu = bundle_forms.mu
            bundle_forms = BundleForms(k, (mu[0] + rnd_form(rng, chart, k - 1),) + mu[1:],
                                       bundle_forms.nu)
    return form_frame_functional(IMForm(algebroid, bundle_forms))


def multivector_functional(rng, algebroid, k, kind):
    """(prolongation, frame values) of a coboundary or random linear
    multivector."""
    if kind == "coboundary":
        p = linear_from_derivation(coboundary_derivation(rng, algebroid, k))
    else:
        p = rnd_linear_multivector(rng, algebroid, k)
    return multivector_frame_functional(p)


FUNCTIONALS = [(form_functional, kind) for kind in ("exact", "broken", "random")]
FUNCTIONALS += [(multivector_functional, kind) for kind in ("coboundary", "random")]
ORBIT_BASES = [rnd_algebroid, lambda _: koszul_so3_algebroid(), lambda _: _log_canonical(3)]


def assert_reduced_matches_reference(prol, values):
    assert prol._copy_layout.anti_invariant(values)
    report = check_morphism_to_line(prol, values)
    assert report.violations == tuple(reference_morphism_violations(prol, values))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.sampled_from([2, 3]),
       base=st.sampled_from(range(len(ORBIT_BASES))),
       case=st.sampled_from(range(len(FUNCTIONALS))))
def test_orbit_reduction_matches_full_pair_loop(seed, k, base, case):
    """A form or multivector functional is anti-invariant under the copy
    permutations, so the check computes one pair per orbit; its violations
    (order, witness and residual) are the full loop's."""
    rng = random.Random(seed)
    algebroid = ORBIT_BASES[base](rng)
    build, kind = FUNCTIONALS[case]
    assert_reduced_matches_reference(*build(rng, algebroid, k, kind))


@pytest.mark.parametrize("build, kind", [
    (form_functional, "broken"),
    (multivector_functional, "random"),
], ids=["broken_form", "random_multivector"])
def test_orbit_reduction_matches_full_pair_loop_n4_k4(rng, build, kind):
    functional = build(rng, _log_canonical(4), 4, kind)
    assert_reduced_matches_reference(*functional)
    assert not check_morphism_to_line(*functional).passed


# which frame values of the k = 3 functional get 1 added
ALTERATIONS = {
    "copy1_cores": lambda name: name.endswith("_hat1"),
    "copy2_cores": lambda name: name.endswith("_hat2"),
    "copy3_cores": lambda name: name.endswith("_hat3"),
    "linear_values": lambda name: name.startswith("T"),
}


@pytest.mark.parametrize("alteration", sorted(ALTERATIONS))
def test_functional_that_is_not_anti_invariant_takes_the_full_loop(rng, monkeypatch, alteration):
    """Altered cores of the first, a middle or the last copy, or altered
    linear values, each break anti-invariance under some adjacent swap, so
    every pair is computed."""
    algebroid = koszul_so3_algebroid()
    prol, values = form_functional(rng, algebroid, 3, "broken")
    altered_name = ALTERATIONS[alteration]
    altered = [value + 1 if altered_name(name) else value
               for name, value in zip(prol.frame_names, values)]
    assert not prol._copy_layout.anti_invariant(altered)
    expected = tuple(reference_morphism_violations(prol, altered))
    calls = []
    collect = Polynomial.sum_of_products.__func__

    def counted(cls, chart, pairs):
        calls.append(1)
        return collect(cls, chart, pairs)

    monkeypatch.setattr(Polynomial, "sum_of_products", classmethod(counted))
    report = check_morphism_to_line(prol, altered)
    assert len(calls) == prol.rank * (prol.rank - 1) // 2
    assert report.violations == expected and expected


# -- sorted dotted coefficients against the full product ----------------------

def full_residual(prol: LieAlgebroid, values: list, i: int, j: int) -> Polynomial:
    """R(e_i, e_j) as one `sum_of_products` over every term, as the check
    builds a representative with fewer than three free copies."""
    names = prol.base_chart.names
    pairs = [(w, values[c]) for c, w in prol.bracket_frame_row(i, j)]
    pairs += [(-comp, values[j].diff(names[l])) for l, comp in prol.anchor_rows[i].items()]
    pairs += [(comp, values[i].diff(names[l])) for l, comp in prol.anchor_rows[j].items()]
    return Polynomial.sum_of_products(prol.base_chart, pairs)


def free_copies(prol: LieAlgebroid, i: int, j: int) -> int:
    """The number of copies that hold no core of the pair, from the frame
    names: cores end in _hat<copy>."""
    names = prol.frame_names
    busy = {names[u].rsplit("_hat", 1)[1] for u in (i, j) if "_hat" in names[u]}
    return prol._copy_layout.k - len(busy)


def assert_sorted_path_matches_full_product(prol, values) -> None:
    """Every orbit representative with three or more free copies takes the
    sorted path, the frame values having the copy shape, and its residual
    equals the full product's, zero or not."""
    layout = prol._copy_layout
    assert layout.anti_invariant(values)
    by_sorted = _SortedResiduals(prol, values, Calculus(prol.base_chart))
    for i, j in combinations(range(prol.rank), 2):
        if layout.orbit_source(i, j) is not None:
            continue
        res = by_sorted.residual(i, j)
        if free_copies(prol, i, j) < 3:
            assert res is None
        else:
            assert res == full_residual(prol, values, i, j), (i, j)


SORTED_BASES = [
    lambda _: so3_algebroid(),            # a point base: no cores, rank 3
    lambda _: koszul_so3_algebroid(),
    lambda _: broken_koszul_algebroid(),  # fails the axioms
    lambda _: _log_canonical(3),
    lambda _: _log_canonical(4),
    rnd_algebroid,
    rnd_unchecked_algebroid,              # rank 1-4 on 1-3 coordinates
]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.sampled_from([3, 4]),
       base=st.sampled_from(range(len(SORTED_BASES))),
       case=st.sampled_from(range(len(FUNCTIONALS))))
def test_sorted_coefficients_match_the_full_product(seed, k, base, case):
    """On tangent and cotangent prolongations at k = 3 and 4, of Lie and
    non-Lie algebroids, a point base among them, with exact, perturbed and
    random candidates: each residual decided from its sorted dotted
    coefficients, and expanded where nonzero, is the full product's."""
    rng = random.Random(seed)
    build, kind = FUNCTIONALS[case]
    assert_sorted_path_matches_full_product(*build(rng, SORTED_BASES[base](rng), k, kind))


@pytest.mark.parametrize("build, kind, base", [
    (form_functional, "random", lambda: _log_canonical(4)),
    (multivector_functional, "random", lambda: tangent_algebroid(("x1", "x2", "x3", "x4", "x5"))),
], ids=["random_form_n4", "random_multivector_n5"])
def test_sorted_coefficients_match_the_full_product_at_k5(rng, build, kind, base):
    """At k = 5 the (c1_a, c2_b) representatives have three free copies
    too, and some of their residuals are nonzero."""
    prol, values = build(rng, base(), 5, kind)
    assert_sorted_path_matches_full_product(prol, values)
    report = check_morphism_to_line(prol, values)
    cores = [(v.witness, free_copies(prol, *map(prol.frame_names.index, v.witness)))
             for v in report.violations]
    assert any(free == 3 for _, free in cores)


def test_value_outside_the_copy_shape_takes_the_full_product(rng):
    """x1 (y1_1 y1_2 y2_3), alternated over the three copies, is
    anti-invariant but of degree two in one copy and none in another.  Added
    to the first linear value, it sends the pairs that read that value to
    the full product, which reports their residuals."""
    prol, values = form_functional(rng, koszul_so3_algebroid(), 3, "exact")
    layout = prol._copy_layout
    chart = prol.base_chart
    y = layout.variables(chart)
    x1 = Polynomial.variable(chart, "x1")
    planted = Polynomial.zero(chart)
    for s in permutations(range(3)):
        sign = (-1) ** sum(a > b for a, b in combinations(s, 2))
        planted = planted + sign * x1 * y[s[0]][0] * y[s[0]][1] * y[s[1]][2]
    first = layout.k * layout.frame_block
    altered = list(values)
    altered[first] += planted
    assert layout.anti_invariant(altered)
    by_sorted = _SortedResiduals(prol, altered, Calculus(prol.base_chart))
    assert by_sorted.residual(first, first + 1) is None
    assert by_sorted.value_groups(first) is None
    assert by_sorted.value_groups(first + 1) is not None
    report = check_morphism_to_line(prol, altered)
    expected = tuple(reference_morphism_violations(prol, altered))
    assert report.violations == expected
    witnesses = [v.witness for v in expected]
    assert (prol.frame_names[first], prol.frame_names[first + 1]) in witnesses
