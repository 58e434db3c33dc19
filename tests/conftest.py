"""Shared random generators for the test suite.

Everything is driven by seeded `random.Random` instances so the suite is
deterministic; the acceptance module fixes its own seeds per criterion.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, gcd
from typing import Mapping, Sequence

import pytest

from imcalc.algebroid import (
    LieAlgebroid, Section, Violation, axiom_gate, component_violations, section_bracket,
)
from imcalc.errors import CrossCheckError
from imcalc.forms import (
    DifferentialForm, Multivector, VectorField, contract, exterior_derivative, linear_combination,
    sort_indices,
)
from imcalc.fixtures import koszul_algebroid, so3_algebroid
from imcalc.linforms import BundleForms
from imcalc.multivec import Derivation, LinearMultivector
from imcalc.poly import (
    EXPONENT_LIMIT, LITERAL_DIGIT_LIMIT, POWER_TERM_BUDGET, PRODUCT_PAIR_BUDGET, Chart, ChartError,
    ParseError, Polynomial, _canonical, _check_guard, _make, _same, base_chart,
)
from support import scalar_action


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


# -- per-term references for the collected form operations ---------------------
#
# Each operation below adds its terms one at a time, one product and one
# Polynomial add per term, as the form layer did before it collected every
# output coefficient with one `sum_of_products`: the references for
# `forms.contract`, `forms.exterior_derivative`, `forms.wedge`,
# `forms.graded_bracket` and the operators of `forms.Calculus`.

def acc_term(table: dict, key, poly: Polynomial) -> None:
    """Add one term into an alternating table, dropping a zero sum."""
    if poly.is_zero():
        return
    cur = table.get(key)
    s = poly if cur is None else cur + poly
    if s.is_zero():
        table.pop(key, None)
    else:
        table[key] = s


def contract_reference(components: Mapping, table: Mapping) -> dict:
    """Contract {index: Polynomial} components into an alternating table."""
    out: dict = {}
    for idx, p in table.items():
        for pos, i in enumerate(idx):
            comp = components.get(i)
            if comp is not None:
                term = comp * p
                acc_term(out, idx[:pos] + idx[pos + 1:], term if pos % 2 == 0 else -term)
    return out


def exterior_derivative_reference(table: Mapping, chart: Chart) -> dict:
    out: dict = {}
    for idx, p in table.items():
        for j, name in enumerate(chart.names):
            dp = p.diff(name)
            merged = sort_indices((j,) + idx)
            if merged is not None:
                acc_term(out, merged[0], dp if merged[1] == 1 else -dp)
    return out


def derivation_reference(table: Mapping, field: Mapping, rows: Mapping, chart: Chart) -> dict:
    """D of an alternating table for the derivation acting on coefficients
    as the vector field {j: X^j} and on generators by rows[t] = [(l, w)],
    D(g_t) = sum_l w g_l."""
    out: dict = {}
    for idx, f in table.items():
        for j, comp in field.items():
            acc_term(out, idx, comp * f.diff(chart.names[j]))
        for pos, t in enumerate(idx):
            for l, w in rows.get(t, ()):
                merged = sort_indices(idx[:pos] + (l,) + idx[pos + 1:])
                if merged is not None:
                    acc_term(out, merged[0], w * f if merged[1] == 1 else -(w * f))
    return out


def wedge_reference(a: Mapping, b: Mapping) -> dict:
    out: dict = {}
    for i1, p1 in a.items():
        for i2, p2 in b.items():
            merged = sort_indices(i1 + i2)
            if merged is not None:
                acc_term(out, merged[0], p1 * p2 if merged[1] == 1 else -(p1 * p2))
    return out


def wedge_frame_reference(head: tuple, table: Mapping, tail: tuple) -> dict:
    out: dict = {}
    for key, p in table.items():
        merged = sort_indices(head + key + tail)
        if merged is not None:
            acc_term(out, merged[0], p if merged[1] == 1 else -p)
    return out


def _bracket_pure_reference(t_tuple, v_table: Mapping, q: int, fb, act) -> dict:
    """[e_T, V] for a degree-q table V."""
    p = len(t_tuple)
    out: dict = {}
    if p == 1:
        a = t_tuple[0]
        for s_tuple, g in v_table.items():
            acc_term(out, s_tuple, act(a, g))
            for pos, s in enumerate(s_tuple):
                for c, w in fb(a, s):
                    merged = sort_indices(s_tuple[:pos] + (c,) + s_tuple[pos + 1:])
                    if merged is not None:
                        acc_term(out, merged[0], g * w if merged[1] == 1 else -(g * w))
    elif p > 1:
        head, rest = (t_tuple[0],), t_tuple[1:]
        out = wedge_frame_reference(head, _bracket_pure_reference(rest, v_table, q, fb, act), ())
        part2 = wedge_frame_reference((), _bracket_pure_reference(head, v_table, q, fb, act), rest)
        sign = -1 if ((p - 1) * (q - 1)) % 2 else 1
        for key, poly in part2.items():
            acc_term(out, key, poly if sign == 1 else -poly)
    return out


def graded_bracket_reference(p_table: Mapping, p: int, q_table: Mapping, q: int, fb, act) -> dict:
    """[P, Q] by [f e_T, Q] = f [e_T, Q] - (-1)^((p-1)(q-1)) [Q, f] ^ e_T,
    with [e_S, f] = sum_j (-1)^(q-j) act(s_j, f) e_{S minus s_j}."""
    out: dict = {}
    sign = -1 if ((p - 1) * (q - 1)) % 2 else 1
    for t_tuple, f in p_table.items():
        for key, poly in _bracket_pure_reference(t_tuple, q_table, q, fb, act).items():
            acc_term(out, key, f * poly)
        q_on_f: dict = {}
        for s_tuple, g in q_table.items():
            for j, s in enumerate(s_tuple, start=1):
                df = act(s, f)
                rest = s_tuple[:j - 1] + s_tuple[j:]
                acc_term(q_on_f, rest, g * df if (q - j) % 2 == 0 else -(g * df))
        for key, poly in wedge_frame_reference((), q_on_f, t_tuple).items():
            acc_term(out, key, -poly if sign == 1 else poly)
    return out


def section_bracket_reference(u: Section, v: Section) -> Section:
    """`algebroid.section_bracket` by `graded_bracket_reference`, on the
    stored structure rows and the full anchor rows, with none of the
    operators `section_bracket` runs on."""
    A = u.algebroid
    names = A.base_chart.names

    def act(a: int, f: Polynomial) -> Polynomial:
        out = Polynomial.zero(A.base_chart)
        for j, comp in enumerate(A.anchor[a]):
            out = out + comp * f.diff(names[j])
        return out

    table = graded_bracket_reference(u.coeffs, u.degree, v.coeffs, v.degree,
                                     A.bracket_frame_row, act)
    return Section(A, max(u.degree + v.degree - 1, 0), table)


def frame_index(algebroid: LieAlgebroid, name: str) -> int:
    """The position of a frame section, by name."""
    return algebroid.frame_names.index(name)


def reference_morphism_violations(algebroid: LieAlgebroid, functional) -> list:
    """The violations of `check_morphism_to_line`, from every frame pair in
    turn, each pair's residual built from `anchor_derivation` with nothing
    shared between pairs."""
    out = []
    values = [functional.value(a) for a in range(algebroid.rank)]
    for i in range(algebroid.rank):
        for j in range(i + 1, algebroid.rank):
            res = (-algebroid.anchor_derivation(i, values[j])
                   + algebroid.anchor_derivation(j, values[i]))
            for c, w in algebroid.bracket_frame_row(i, j):
                res = res + w * values[c]
            if not res.is_zero():
                out.append(Violation(
                    "MORPHISM", (algebroid.frame_names[i], algebroid.frame_names[j]), res))
    return out


def reference_derivation_violations(d: Derivation) -> list:
    """The violations of `check_gerstenhaber_derivation`, axiom gate first,
    each generator pair's residual assembled from `section_bracket_reference`,
    `support.scalar_action` and `Section` arithmetic, nothing shared
    between pairs."""
    A = d.algebroid
    chart = A.base_chart
    names = chart.names
    sign = -1 if (d.k - 1) % 2 else 1
    xs = [Section.function(A, Polynomial.variable(chart, name)) for name in names]
    es = [Section.frame(A, b) for b in range(A.rank)]
    out = list(axiom_gate(A))
    for i in range(chart.dim):
        for j in range(i + 1, chart.dim):
            res = (section_bracket_reference(d.coord_action(i), xs[j])
                   + section_bracket_reference(xs[i], d.coord_action(j)).scale(sign))
            out.extend(component_violations("R1", (names[i], names[j]), res))
    for i in range(chart.dim):
        for b in range(A.rank):
            res = (-scalar_action(d, A.anchor[b][i])
                   - section_bracket_reference(d.coord_action(i), es[b])
                   - section_bracket_reference(xs[i], d.frame_action(b)).scale(sign))
            out.extend(component_violations("R2", (names[i], A.frame_names[b]), res))
    for a in range(A.rank):
        for b in range(a + 1, A.rank):
            res = Section.zero(A, d.k)
            for c, w in A.bracket_frame_row(a, b):
                res = res + scalar_action(d, w).wedge(es[c]) + d.frame_action(c).scale(w)
            res = (res - section_bracket_reference(d.frame_action(a), es[b])
                   - section_bracket_reference(es[a], d.frame_action(b)))
            out.extend(component_violations("R3", (A.frame_names[a], A.frame_names[b]), res))
    return out


class _CartanOperators:
    """The Cartan operators on the frame images of one IM candidate, each
    computed at most once: d of the image of e_b, its contraction
    i_{rho(a)}, the contraction of its d, and the d of its contraction.
    L_{rho(a)} is Cartan's i d + d i (the d i term absent on functions)."""

    def __init__(self, im):
        A = im.algebroid
        self.im = im
        self.rho = [A.anchor_field(a) for a in range(A.rank)]
        self.maps = {"mu": im.forms.mu, "nu": im.forms.nu}
        self.memo: dict = {}

    def _entry(self, key: tuple, compute) -> DifferentialForm:
        if key not in self.memo:
            self.memo[key] = compute()
        return self.memo[key]

    def d(self, kind: str, b: int) -> DifferentialForm:
        return self._entry(("d", kind, b), lambda: exterior_derivative(self.maps[kind][b]))

    def i(self, kind: str, a: int, b: int) -> DifferentialForm:
        return self._entry(("i", kind, a, b), lambda: contract(self.rho[a], self.maps[kind][b]))

    def i_d(self, kind: str, a: int, b: int) -> DifferentialForm:
        return self._entry(("i_d", kind, a, b), lambda: contract(self.rho[a], self.d(kind, b)))

    def d_i(self, kind: str, a: int, b: int) -> DifferentialForm:
        return self._entry(("d_i", kind, a, b), lambda: exterior_derivative(self.i(kind, a, b)))

    def lie(self, kind: str, a: int, b: int, weight: int) -> list:
        """weight * L_{rho(a)} of the image of e_b, as (form, weight) terms."""
        terms = [(self.i_d(kind, a, b), weight)]
        if self.maps[kind][b].degree > 0:
            terms.append((self.d_i(kind, a, b), weight))
        return terms

    def bracket_image(self, kind: str, a: int, b: int) -> list:
        maps = self.maps[kind]
        return [(maps[c], w) for c, w in self.im.algebroid.bracket_frame_row(a, b)]


def reference_im_violations(im) -> tuple:
    """The (violations, notes) of `check_im_form`, axiom gate first, from
    whole Cartan forms: each residual a `linear_combination` of operator
    table entries, L = i d + d i.  When every condition passes it asserts
    the nu identities the same way, raising CrossCheckError on a failure."""
    A = im.algebroid
    r = A.rank
    ops = _CartanOperators(im)
    violations = list(axiom_gate(A))
    notes = []
    if violations:
        notes.append("algebroid axioms fail; IM verdicts reported on non-Lie data")

    def frame(a, b):
        return (A.frame_names[a], A.frame_names[b])

    im1 = []
    for a in range(r):
        for b in range(a, r):
            res = linear_combination([(ops.i("mu", a, b), 1), (ops.i("mu", b, a), 1)])
            im1.extend(component_violations("IM1", frame(a, b), res))
    caveat = None
    if im1:
        caveat = "frame-reduction not certified (IM1 fails)"
        notes.append("IM1 fails: IM2/IM3 frame checks are not certified for general sections")
    violations.extend(im1)
    for a in range(r):
        for b in range(r):
            res = linear_combination(ops.bracket_image("mu", a, b) + ops.lie("mu", a, b, -1)
                                     + [(ops.i_d("mu", b, a), 1), (ops.i("nu", b, a), 1)])
            violations.extend(component_violations("IM2", frame(a, b), res, caveat))
    for a in range(r):
        for b in range(a + 1, r):
            res = linear_combination(ops.bracket_image("nu", a, b) + ops.lie("nu", a, b, -1)
                                     + [(ops.i_d("nu", b, a), 1)])
            violations.extend(component_violations("IM3", frame(a, b), res, caveat))
    if violations:
        return violations, notes

    for a in range(r):
        for b in range(a, r):
            if not (ops.i("nu", a, b) + ops.i("nu", b, a)).is_zero():
                raise CrossCheckError(f"derived nu antisymmetry fails on pair {(a, b)}")
    for a, b, c in combinations(range(r), 3):
        terms = []
        for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
            inner = linear_combination(ops.lie("nu", v, u, 1) + ops.lie("nu", u, v, -1))
            terms.append((contract(ops.rho[w], inner), 1))
        triple = contract(ops.rho[c], ops.i("nu", b, a))
        if im.k >= 2:
            terms.append((exterior_derivative(triple), 2))
        elif not triple.is_zero():
            raise CrossCheckError("degree bookkeeping broke in the nu identity")
        if not linear_combination(terms).is_zero():
            raise CrossCheckError(f"derived cyclic nu identity fails on {(a, b, c)}")
    return violations, notes


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


def rnd_unchecked_algebroid(rng) -> LieAlgebroid:
    """Random anchor and structure functions on a base of dimension 1-3,
    rank 1-4, built unchecked: the data rarely satisfies the axioms."""
    n = rng.randint(1, 3)
    rank = rng.randint(1, 4)
    chart = base_chart("M", [f"x{i + 1}" for i in range(n)])
    anchor = [[rnd_poly(rng, chart, 1) if rng.random() < 0.5 else Polynomial.zero(chart)
               for _ in range(n)] for _ in range(rank)]
    structure = {(a, b): {c: rnd_poly(rng, chart, 1) for c in range(rank) if rng.random() < 0.4}
                 for a, b in combinations(range(rank), 2)}
    return LieAlgebroid(chart, rank, tuple(f"e{a + 1}" for a in range(rank)), anchor,
                        structure, unchecked=True)


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


# -- the flat product loop, the reference for `Polynomial.sum_of_products` ------
#
# Every term pair adds its coefficient product into one term map, with no
# big-int product for large pairs.

def reference_sum_of_products(chart: Chart, pairs) -> Polynomial:
    terms: dict = {}
    get = terms.get
    for p, q in pairs:
        if type(q) is int:
            if not _same(p.chart, chart):
                raise ChartError(f"chart mismatch: {chart.name!r} vs {p.chart.name!r}")
            for e, c in p._terms.items():
                terms[e] = get(e, 0) + c * q
            continue
        if not (_same(p.chart, chart) and _same(q.chart, chart)):
            raise ChartError(
                f"chart mismatch: {chart.name!r} vs {p.chart.name!r}, {q.chart.name!r}"
            )
        right = tuple(q._terms.items())
        for e1, c1 in p._terms.items():
            for e2, c2 in right:
                e = e1 + e2
                terms[e] = get(e, 0) + c1 * c2
    terms = _canonical(terms)
    _check_guard(chart, terms)
    return _make(chart, terms)


# -- the per-point restriction, the reference for `Polynomial.unit_restrictions`
#
# Each point is evaluated with its own `partial_eval` onto the chart of the
# other coordinates, and the result promoted to the target chart.

def reference_unit_restrictions(p: Polynomial, names: Sequence, chart: Chart) -> list:
    kept = Chart(f"{p.chart.name}|kept", tuple(c for c in p.chart.coords if c.name not in names))
    zero = dict.fromkeys(names, 0)
    points = [zero] + [{**zero, n: 1} for n in names]
    return [p.partial_eval(point, kept).promote(chart) for point in points]


# -- the per-character parser, the reference for `poly.parse` ------------------
#
# It reads one character at a time, builds a Polynomial per atom and
# multiplies the factors of a term pairwise; `poly.parse` must give the same
# term map, or the same ParseError message and offset, on ASCII text.

def reference_parse(text: str, chart: Chart) -> Polynomial:
    return _Parser(text, chart).parse()


class _Parser:
    """Recursive-descent parser for the expression grammar:

        expr     := term (('+'|'-') term)*
        term     := factor ('*' factor)*
        factor   := atom ('^' uint)?
        atom     := rational | coordname | '(' expr ')'
        rational := int ('/' uint)?

    Whitespace is insignificant.  Coordinate names are [A-Za-z_][A-Za-z0-9_]*.
    """

    def __init__(self, text: str, chart: Chart):
        self.text = text
        self.chart = chart
        self.pos = 0
        self.pairs = 0

    def spend(self, pairs: int, offset: int) -> None:
        """Count term pairs toward the expression's `PRODUCT_PAIR_BUDGET`."""
        self.pairs += pairs
        if self.pairs > PRODUCT_PAIR_BUDGET:
            raise ParseError(
                f"expression multiplies {self.pairs} term pairs in all, above the budget of "
                f"{PRODUCT_PAIR_BUDGET}", offset)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> Polynomial:
        result = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise ParseError(f"unexpected {self.text[self.pos]!r}", self.pos)
        return result

    def expr(self) -> Polynomial:
        result = self.term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                result = result + self.term()
            elif ch == "-":
                self.pos += 1
                result = result - self.term()
            else:
                return result

    def term(self) -> Polynomial:
        result = self.factor()
        while self.peek() == "*":
            start = self.pos
            self.pos += 1
            right = self.factor()
            pairs = len(result._terms) * len(right._terms)
            if pairs > PRODUCT_PAIR_BUDGET:
                raise ParseError(
                    f"product of {len(result._terms)} and {len(right._terms)} terms has "
                    f"{pairs} term pairs, above the budget of {PRODUCT_PAIR_BUDGET}", start)
            self.spend(pairs, start)
            try:
                result = result * right
            except ChartError as exc:
                raise ParseError(str(exc), start) from None
        return result

    def factor(self) -> Polynomial:
        result = self.atom()
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            start = self.pos
            digits = self._digits()
            if digits is None:
                raise ParseError("expected unsigned integer exponent", start)
            n = _power_budget(result, digits, start, self.spend)
            return result ** n
        return result

    def _digits(self) -> str | None:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        return self.text[start:self.pos] if self.pos > start else None

    def atom(self) -> Polynomial:
        ch = self.peek()
        start = self.pos
        if ch == "(":
            self.pos += 1
            inner = self.expr()
            if self.peek() != ")":
                raise ParseError("expected ')'", self.pos)
            self.pos += 1
            return inner
        if ch == "-" or ch.isdigit():
            negative = ch == "-"
            if negative:
                self.pos += 1
                self.skip_ws()
            num_start = self.pos
            num = self._digits()
            if num is None:
                raise ParseError("expected digits after '-'", self.pos)
            value = Fraction(_literal(num, num_start))
            if self.peek() == "/":
                self.pos += 1
                self.skip_ws()
                den_start = self.pos
                den = self._digits()
                den = 0 if den is None else _literal(den, den_start)
                if den == 0:
                    raise ParseError("expected positive denominator", den_start)
                value = value / den
            if negative:
                value = -value
            return Polynomial.const(self.chart, value)
        if ch.isalpha() or ch == "_":
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
            name = self.text[start:self.pos]
            if name not in self.chart.names:
                raise ParseError(f"unknown coordinate {name!r}", start)
            return Polynomial.variable(self.chart, name)
        raise ParseError("expected rational, coordinate or '('", self.pos)


def _literal(digits: str, offset: int) -> int:
    """The value of an integer literal of at most `LITERAL_DIGIT_LIMIT` digits."""
    if len(digits) > LITERAL_DIGIT_LIMIT:
        raise ParseError(
            f"integer literal of {len(digits)} digits, above the limit of "
            f"{LITERAL_DIGIT_LIMIT}", offset)
    return int(digits)


def _power_budget(base: Polynomial, digits: str, offset: int, spend) -> int:
    """The exponent N of `base^N`, once the power is known to fit: N times
    the base's largest exponent (at least 1) is at most `EXPONENT_LIMIT`;
    for a base of t >= 2 terms the expansion has at most
    `POWER_TERM_BUDGET` terms, and its N - 1 products by the base at most
    `PRODUCT_PAIR_BUDGET` term pairs, which `spend` counts toward the
    expression's budget; and for N >= 2, with the base written
    as (1/D) * sum a_i m_i over integers a_i, neither (sum |a_i|)^N nor D^N
    has more than `LITERAL_DIGIT_LIMIT` digits."""
    top = max((max(base.chart.unpack(e), default=0) for e in base._terms), default=0)
    digits = digits.lstrip("0")
    # a longer digit string is above the limit, and int() refuses very long ones
    n = int(digits or "0") if len(digits) <= len(str(EXPONENT_LIMIT)) else EXPONENT_LIMIT + 1
    if n * max(top, 1) > EXPONENT_LIMIT:
        raise ParseError(f"power exceeds the exponent limit {EXPONENT_LIMIT}", offset)
    t = len(base._terms)
    if t and comb(n + t - 1, t - 1) > POWER_TERM_BUDGET:
        raise ParseError(
            f"power ^{n} of {t} terms may expand to {comb(n + t - 1, t - 1)} terms, "
            f"above the budget of {POWER_TERM_BUDGET}", offset)
    if t > 1:
        # the j-th product multiplies base^j, of at most C(j + t - 1, t - 1)
        # terms, by the t terms of the base
        pairs = sum(t * comb(j + t - 1, t - 1) for j in range(1, n))
        if pairs > PRODUCT_PAIR_BUDGET:
            raise ParseError(
                f"power ^{n} of {t} terms multiplies {pairs} term pairs, "
                f"above the budget of {PRODUCT_PAIR_BUDGET}", offset)
        spend(pairs, offset)
    den = 1
    for c in base._terms.values():
        den = den * Fraction(c).denominator // gcd(den, Fraction(c).denominator)
    total = sum(abs(Fraction(c) * den) for c in base._terms.values())
    bound = 10 ** LITERAL_DIGIT_LIMIT
    for part in (int(total), den):
        # part^N >= 2^(N * (bits - 1)), so a long part is refused uncomputed
        if n > 1 and (n * (part.bit_length() - 1) >= bound.bit_length() or part ** n >= bound):
            raise ParseError(
                f"power ^{n} gives a coefficient of more than {LITERAL_DIGIT_LIMIT} digits",
                offset)
    return n
