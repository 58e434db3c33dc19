"""Shared random generators for the test suite.

Everything is driven by seeded `random.Random` instances so the suite is
deterministic; the acceptance module fixes its own seeds per criterion.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations
from typing import Mapping, Sequence

import pytest

from imcalc.algebroid import LieAlgebroid, Section, section_bracket
from imcalc.forms import DifferentialForm, Multivector, VectorField
from imcalc.fixtures import koszul_algebroid, so3_algebroid
from imcalc.linforms import BundleForms
from imcalc.multivec import Derivation, LinearMultivector
from imcalc.poly import Chart, Polynomial, base_chart


@pytest.fixture
def rng():
    return random.Random(20240817)


def rnd_fraction(rng, span=4):
    return Fraction(rng.randint(-span, span), rng.randint(1, 3))


def rnd_poly(rng, chart: Chart, max_deg=2, terms=2) -> Polynomial:
    table = {}
    for _ in range(terms):
        exps = [0] * chart.dim
        for _ in range(rng.randint(0, max_deg)):
            if chart.dim:
                exps[rng.randrange(chart.dim)] += 1
        coeff = rnd_fraction(rng)
        if coeff:
            key = tuple(exps)
            table[key] = table.get(key, Fraction(0)) + coeff
    return Polynomial(chart, table)


def rnd_form(rng, chart: Chart, degree: int, max_deg=2, density=0.7) -> DifferentialForm:
    table = {}
    for idx in combinations(range(chart.dim), degree):
        if rng.random() < density:
            table[idx] = rnd_poly(rng, chart, max_deg)
    return DifferentialForm(chart, degree, table)


def rnd_multivector(rng, chart: Chart, degree: int, max_deg=2, density=0.7) -> Multivector:
    table = {}
    for idx in combinations(range(chart.dim), degree):
        if rng.random() < density:
            table[idx] = rnd_poly(rng, chart, max_deg)
    return Multivector(chart, degree, table)


def rnd_vector_field(rng, chart: Chart, max_deg=2) -> VectorField:
    return VectorField(chart, {(i,): rnd_poly(rng, chart, max_deg)
                               for i in range(chart.dim)})


def rnd_section(rng, algebroid: LieAlgebroid, degree: int, max_deg=1) -> Section:
    table = {}
    for idx in combinations(range(algebroid.rank), degree):
        if rng.random() < 0.8:
            table[idx] = rnd_poly(rng, algebroid.base_chart, max_deg)
    return Section(algebroid, degree, table)


def det_of_components(vectors: Sequence[Mapping], idx, target: Chart) -> Polynomial:
    """Determinant of the matrix vectors[s][idx[t]] of Polynomial components,
    expanded over permutations: the reference for `forms.Minors`.

    `vectors` maps coordinate positions to components; missing entries count
    as zero.
    """
    k = len(idx)
    total = Polynomial.zero(target)
    for perm in permutations(range(k)):
        inversions = sum(1 for i in range(k) for j in range(i + 1, k) if perm[i] > perm[j])
        term = Polynomial.const(target, 1)
        for row, col in enumerate(perm):
            comp = vectors[row].get(idx[col])
            if comp is None:
                break
            term = term * comp
        else:
            total = total + term if inversions % 2 == 0 else total - term
    return total


def rnd_point(rng, chart: Chart, span=6):
    return {n: Fraction(rng.randint(-span, span), rng.randint(1, 4))
            for n in chart.names}


# -- axiom-passing algebroid catalog ----------------------------------------

def _lie_algebra_bundle(rng) -> LieAlgebroid:
    """A constant-structure algebra over a random low-dimensional base."""
    n = rng.randint(0, 2)
    chart = base_chart("M", [f"x{i + 1}" for i in range(n)])
    one = Polynomial.const(chart, 1)
    zero_rows = [[Polynomial.zero(chart)] * n for _ in range(3)]
    structure = {(0, 1): {2: one}, (1, 2): {0: one}, (0, 2): {1: -one}}
    return LieAlgebroid(chart, 3, ("e1", "e2", "e3"), zero_rows, structure)


def _tangent(rng) -> LieAlgebroid:
    n = rng.randint(1, 3)
    chart = base_chart("M", [f"x{i + 1}" for i in range(n)])
    one = Polynomial.const(chart, 1)
    zero = Polynomial.zero(chart)
    anchor = [[one if i == j else zero for j in range(n)] for i in range(n)]
    return LieAlgebroid(chart, n, tuple(f"e{i + 1}" for i in range(n)), anchor, {})


def _plane_koszul(rng) -> LieAlgebroid:
    # every bivector on a 2-dimensional chart is Poisson
    chart = base_chart("M", ["x1", "x2"])
    pi = Multivector(chart, 2, {(0, 1): rnd_poly(rng, chart, max_deg=2)})
    return koszul_algebroid(pi)


def _affine_action(rng) -> LieAlgebroid:
    # the affine line algebra acting on its line: [e1, e2] = e1
    chart = base_chart("M", ["x1"])
    one = Polynomial.const(chart, 1)
    x = Polynomial.variable(chart, "x1")
    return LieAlgebroid(chart, 2, ("e1", "e2"), [[one], [x]], {(0, 1): {0: one}})


def rnd_algebroid(rng) -> LieAlgebroid:
    maker = rng.choice([_lie_algebra_bundle, _tangent, _plane_koszul,
                        _affine_action, lambda _: so3_algebroid()])
    return maker(rng)


def rnd_bundle_forms(rng, algebroid: LieAlgebroid, k: int) -> BundleForms:
    chart = algebroid.base_chart
    mu = tuple(rnd_form(rng, chart, k - 1) for _ in range(algebroid.rank))
    nu = tuple(rnd_form(rng, chart, k) for _ in range(algebroid.rank))
    return BundleForms(k, mu, nu)


def coboundary_derivation(rng, algebroid: LieAlgebroid, k: int) -> Derivation:
    """The inner derivation [r, .] of a random degree-k wedge section; always
    a bracket derivation by the graded Jacobi identity."""
    r = rnd_section(rng, algebroid, k, max_deg=1)
    chart = algebroid.base_chart
    on_coord = {n: section_bracket(r, Section.function(algebroid, Polynomial.variable(chart, n)))
                for n in chart.names}
    on_frame = {name: section_bracket(r, Section.frame(algebroid, a))
                for a, name in enumerate(algebroid.frame_names)}
    return Derivation(algebroid, k, on_coord, on_frame)


def rnd_linear_multivector(rng, algebroid: LieAlgebroid, k: int) -> LinearMultivector:
    fiber = {}
    for b_tuple in combinations(range(algebroid.rank), k):
        for d in range(algebroid.rank):
            if rng.random() < 0.5:
                fiber[(b_tuple, d)] = rnd_poly(rng, algebroid.base_chart, 1)
    mixed = {}
    for b_tuple in combinations(range(algebroid.rank), k - 1):
        for j in range(algebroid.base_chart.dim):
            if rng.random() < 0.5:
                mixed[(b_tuple, j)] = rnd_poly(rng, algebroid.base_chart, 1)
    return LinearMultivector(algebroid, k, fiber, mixed)
