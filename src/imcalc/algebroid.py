"""Lie algebroids in polynomial charts, their prolongations, and checkers.

A Lie algebroid over a chart is encoded by its rank, a frame of section
names, an anchor matrix (one polynomial row per frame section, one column per
chart coordinate) and an antisymmetric table of structure functions.  The
axiom checker, the one builder of both direct-sum prolongations (tangent
side over the k-fold tangent chart, cotangent side over the k-fold dual
chart) and the fiberwise-linear morphism-to-the-line checker all use this one
representation, so the same `check_morphism_to_line` serves both main
equivalence oracles.  `run_oracle` is the one pipeline every oracle runs
its independent routes through.

Structure functions are stored sparsely for pairs a < b only; brackets of
frame sections in either order are served with the sign folded in.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Iterable, Mapping, Sequence

from .errors import AlgebroidError, AxiomError, OracleDisagreement
from .forms import Alternating, Calculus, VectorField, add_scaled, collect, graded_bracket
from .poly import Chart, ChartError, Coord, Polynomial


@dataclass(frozen=True)
class Violation:
    """One failed condition: tag, witness indices/names, nonzero residual."""

    condition: str
    witness: tuple
    residual: Polynomial
    caveat: str | None = None


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a condition battery; passed iff there are no violations."""

    passed: bool
    violations: tuple = ()
    notes: tuple = ()

    @classmethod
    def collect(cls, violations: Iterable[Violation], notes: Iterable[str] = ()) -> "CheckReport":
        vs = tuple(violations)
        return cls(passed=not vs, violations=vs, notes=tuple(notes))


def component_violations(tag: str, witness: tuple, table: Alternating, caveat=None):
    """One violation per nonzero component of a residual form or section,
    its witness extended by the component's label (dx1^dx2, e1^e2; 1 in
    degree 0)."""
    for idx in sorted(table.coeffs):
        yield Violation(tag, witness + (table.label(idx) or "1",), table.coeffs[idx], caveat)


class LieAlgebroid:
    """Anchored bracket data on a chart.

    `anchor[a][j]` is the coefficient of the j-th chart coordinate direction
    in the image of frame section a, and `anchor_rows[a]` = {j: rho_a^j} and
    `anchor_columns[j]` = {a: rho_a^j} hold its nonzero entries, built once
    at construction for the checkers; `structure[(a, b)][c]` (a < b) is the
    coefficient of frame section c in the bracket of frame sections a and b.
    Unless `unchecked=True`, construction runs `check_axioms` and refuses data
    that is not a Lie algebroid; unchecked values still work with every
    checker and prolongation (the frame-level computations never assume the
    axioms), which is how deliberately broken fixtures are exercised.
    """

    __slots__ = ("base_chart", "rank", "frame_names", "anchor", "structure",
                 "checked", "anchor_rows", "anchor_columns", "_axiom_report", "_copy_layout")

    def __init__(self, base_chart: Chart, rank: int, frame_names: Sequence[str],
                 anchor: Sequence[Sequence[Polynomial]],
                 structure: Mapping, unchecked: bool = False):
        frame_names = tuple(frame_names)
        if len(frame_names) != rank or len(set(frame_names)) != rank:
            raise AlgebroidError("need rank-many distinct frame names")
        if len(anchor) != rank:
            raise AlgebroidError("anchor needs one row per frame section")
        rows = []
        for row in anchor:
            row = tuple(row)
            if len(row) != base_chart.dim:
                raise AlgebroidError("anchor rows need one entry per chart coordinate")
            for p in row:
                if p.chart != base_chart:
                    raise ChartError("anchor entries must live on the base chart")
            rows.append(row)
        table: dict = {}
        for (a, b), entries in structure.items():
            if not (0 <= a < rank and 0 <= b < rank):
                raise AlgebroidError(f"structure indices {(a, b)} out of range")
            if a >= b:
                raise AlgebroidError("structure table must be given for pairs a < b")
            row: dict = {}
            for c, p in entries.items():
                if not 0 <= c < rank:
                    raise AlgebroidError(f"structure target index {c} out of range")
                if p.chart != base_chart:
                    raise ChartError("structure functions must live on the base chart")
                if not p.is_zero():
                    row[c] = p
            if row:
                table[(a, b)] = row
        object.__setattr__(self, "base_chart", base_chart)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "frame_names", frame_names)
        object.__setattr__(self, "anchor", tuple(rows))
        object.__setattr__(self, "structure", table)
        object.__setattr__(self, "anchor_rows", tuple(
            {j: p for j, p in enumerate(row) if not p.is_zero()} for row in rows))
        object.__setattr__(self, "anchor_columns", tuple(
            {a: row[j] for a, row in enumerate(self.anchor_rows) if j in row}
            for j in range(base_chart.dim)))
        # filled by the first `axiom_gate` on an unchecked algebroid; the
        # data above never changes, so neither does the report
        object.__setattr__(self, "_axiom_report", None)
        # a `CopyLayout`, set by `_prolongation` on the algebroid it builds
        object.__setattr__(self, "_copy_layout", None)
        if unchecked:
            object.__setattr__(self, "checked", False)
        else:
            report = check_axioms(self)
            if not report.passed:
                raise AxiomError(report)
            object.__setattr__(self, "checked", True)

    def __setattr__(self, *_):
        raise AttributeError("LieAlgebroid is immutable")

    def __eq__(self, other):
        if not isinstance(other, LieAlgebroid):
            return NotImplemented
        return (self.base_chart == other.base_chart and self.rank == other.rank
                and self.frame_names == other.frame_names and self.anchor == other.anchor
                and self.structure == other.structure)

    def __hash__(self):
        return hash((self.base_chart, self.rank, self.frame_names))

    def bracket_frame_row(self, a: int, b: int):
        """[e_a, e_b] as (index, coefficient) pairs, any argument order."""
        if a == b:
            return ()
        if a < b:
            return tuple(self.structure.get((a, b), {}).items())
        return tuple((c, -p) for c, p in self.structure.get((b, a), {}).items())

    def bracket_row(self, a: int, b: int, ops: Calculus) -> tuple:
        """[e_a, e_b] as (c, (C_ab^c, -C_ab^c)) pairs, any argument order,
        read from the stored a < b structure with the negations of `ops`."""
        if a < b:
            return tuple((c, ops.pm(w)) for c, w in self.structure.get((a, b), {}).items())
        return tuple((c, ops.pm(w)[::-1]) for c, w in self.structure.get((b, a), {}).items())

    def frame_derivation(self, b: int, ops: Calculus) -> tuple:
        """(field, rows) of the derivation P -> [P, e_b] of wedge sections,
        for `Calculus.add_derivation`: the coefficient action -rho_b and
        rows[t] = [e_t, e_b]."""
        rows = {t: row for t in range(self.rank) if (row := self.bracket_row(t, b, ops))}
        return ops.field(self.anchor_rows[b].items(), -1), rows

    def anchor_field(self, a: int) -> VectorField:
        return VectorField.from_components(self.base_chart, list(self.anchor[a]))

    def anchor_derivation(self, a: int, f: Polynomial) -> Polynomial:
        """Directional derivative of a scalar along the anchor of frame a."""
        names = self.base_chart.names
        return Polynomial.sum_of_products(
            self.base_chart, ((comp, f.diff(names[j])) for j, comp in self.anchor_rows[a].items()))

    def __repr__(self):
        return (f"LieAlgebroid(rank {self.rank} over {self.base_chart.name!r}, "
                f"frame {list(self.frame_names)})")


class Section(Alternating):
    """Element of a wedge power of the section module, in frame components.

    An alternating table over frame indices: its chart is the base chart and
    its indices run below the rank.  Degree 0 is a scalar (component at the
    empty tuple), degree 1 a plain section u = u^a e_a.  The inherited
    `zero` and `from_terms` take the algebroid in place of the chart.
    """

    __slots__ = ("algebroid",)
    _GLYPH = "{}"

    def __init__(self, algebroid: LieAlgebroid, degree: int, comps: Mapping | None = None):
        object.__setattr__(self, "algebroid", algebroid)
        super().__init__(algebroid.base_chart, degree, comps)

    def _index_bound(self, chart: Chart) -> int:
        return self.algebroid.rank

    def _index_names(self) -> tuple:
        return self.algebroid.frame_names

    def _like(self, coeffs: dict, degree: int | None = None, kind=None,
              chart: Chart | None = None) -> "Section":
        out = super()._like(coeffs, degree, kind, chart)
        object.__setattr__(out, "algebroid", self.algebroid)
        return out

    @classmethod
    def function(cls, algebroid: LieAlgebroid, poly: Polynomial) -> "Section":
        return cls(algebroid, 0, {(): poly})

    @classmethod
    def frame(cls, algebroid: LieAlgebroid, a: int) -> "Section":
        one = Polynomial.const(algebroid.base_chart, 1)
        return cls(algebroid, 1, {(a,): one})

    def _check_mate(self, other) -> None:
        if not isinstance(other, Section):
            raise TypeError(f"cannot combine Section with {type(other).__name__}")
        if self.algebroid is not other.algebroid and self.algebroid != other.algebroid:
            raise AlgebroidError("sections belong to different algebroids")

    def __eq__(self, other):
        if not isinstance(other, Section):
            return NotImplemented
        return (self.algebroid == other.algebroid and self.degree == other.degree
                and self.coeffs == other.coeffs)

    __hash__ = Alternating.__hash__


def bracket_sections(u: Section, v: Section) -> Section:
    """Bracket of two degree-1 sections by the explicit Leibniz formula.

    [u, v]^c = u^a v^b C_ab^c + u^a rho_a(v^c) - v^b rho_b(u^c).  The wedge
    extension of arbitrary degrees lives in `section_bracket`; the two agree
    on degree 1 (tested), giving an internal dual route for the bracket.
    """
    if u.degree != 1 or v.degree != 1:
        raise AlgebroidError("bracket_sections needs degree-1 sections")
    u._check_mate(v)
    algebroid = u.algebroid
    groups: dict = {}
    for (a,), ua in u.coeffs.items():
        for (b,), vb in v.coeffs.items():
            row = algebroid.bracket_frame_row(a, b)
            if row:
                uv = ua * vb
                for c, w in row:
                    groups.setdefault((c,), []).append((uv, w))
        for (c,), vc in v.coeffs.items():
            groups.setdefault((c,), []).append((ua, algebroid.anchor_derivation(a, vc)))
    for (b,), vb in v.coeffs.items():
        minus_vb = -vb
        for (c,), uc in u.coeffs.items():
            groups.setdefault((c,), []).append((minus_vb, algebroid.anchor_derivation(b, uc)))
    return Section(algebroid, 1, collect(groups))


def section_bracket(u: Section, v: Section) -> Section:
    """Gerstenhaber bracket on wedge powers of sections.

    Extends the frame bracket and the anchor action on scalars by graded
    antisymmetry and the graded Leibniz rule; on two degree-1 sections it
    reduces to `bracket_sections`, on (section, scalar) to the anchor
    derivative.  It is `forms.graded_bracket` with the frame derivations
    of the generators of u and the anchor columns.
    """
    u._check_mate(v)
    algebroid = u.algebroid
    ops = Calculus(algebroid.base_chart)
    generators = {t for idx in u.coeffs for t in idx}
    derivations = {t: algebroid.frame_derivation(t, ops) for t in generators}
    table = graded_bracket(ops, u.coeffs, u.degree, v.coeffs, v.degree, derivations,
                           algebroid.anchor_columns)
    return u._like(table, max(u.degree + v.degree - 1, 0))


def anchor_apply(u: Section) -> VectorField:
    """Image of a degree-1 section under the anchor, as a chart vector field."""
    if u.degree != 1:
        raise AlgebroidError("anchor_apply needs a degree-1 section")
    groups: dict = {}
    for (a,), ua in u.coeffs.items():
        for j, p in u.algebroid.anchor_rows[a].items():
            groups.setdefault((j,), []).append((ua, p))
    return VectorField(u.algebroid.base_chart, collect(groups))


def check_axioms(algebroid: LieAlgebroid) -> CheckReport:
    """Verify anchor-bracket compatibility and the Jacobi identity on frames.

    Anchor condition, for every frame pair a < b and chart coordinate:
    the commutator of anchor images minus the anchor image of the bracket
    vanishes identically.  Jacobi: the cyclic sum of [e_a, [e_b, e_c]]
    vanishes in every frame component for a < b < c.  Jacobi on frame triples
    suffices: general sections follow via the Leibniz identity.

    Both are sums of `forms.Calculus` operators on one table of this call:
    rho_a(rho_b^j) is the coefficient action of a field, and [e_x, [e_y, e_z]]
    minus the derivation P -> [P, e_x] of the stored row of (y, z), signed
    by the sort of the pair.
    """
    violations = []
    chart = algebroid.base_chart
    r = algebroid.rank
    ops = Calculus(chart)
    fields = [ops.field(row.items()) for row in algebroid.anchor_rows]
    vectors = [{(j,): p for j, p in row.items()} for row in algebroid.anchor_rows]
    for a in range(r):
        for b in range(a + 1, r):
            groups: dict = {}
            ops.add_derivation(groups, vectors[b], fields[a], {}, 1)
            ops.add_derivation(groups, vectors[a], fields[b], {}, -1)
            for c, w in algebroid.bracket_row(a, b, ops):
                add_scaled(groups, vectors[c], w[1])
            table = collect(groups)
            for (j,) in sorted(table):
                violations.append(
                    Violation("AXIOM_ANCHOR", (a + 1, b + 1, chart.names[j]), table[j,]))
    derivations = [algebroid.frame_derivation(x, ops) for x in range(r)]
    for a in range(r):
        for b in range(a + 1, r):
            for c in range(b + 1, r):
                groups = {}
                for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                    row = algebroid.structure.get((min(y, z), max(y, z)), {})
                    ops.add_derivation(groups, {(d,): w for d, w in row.items()},
                                       *derivations[x], -1 if y < z else 1)
                table = collect(groups)
                for (e,) in sorted(table):
                    violations.append(
                        Violation("AXIOM_JACOBI", (a + 1, b + 1, c + 1, e + 1), table[e,]))
    return CheckReport.collect(violations)


def axiom_gate(algebroid: LieAlgebroid):
    """Axiom violations for unchecked algebroids; empty for validated ones.

    The report of an unchecked algebroid is computed once and kept on it, so
    the oracle pipeline and each route it runs share one axiom check.
    """
    if algebroid.checked:
        return ()
    if algebroid._axiom_report is None:
        object.__setattr__(algebroid, "_axiom_report", check_axioms(algebroid))
    return algebroid._axiom_report.violations


def check_morphism_to_line(algebroid: LieAlgebroid, values: Sequence[Polynomial]) -> CheckReport:
    """Check the Lie-algebroid-morphism condition of a fiberwise-linear map.

    The map F is given by its frame values, F(e_a) = values[a], one
    polynomial on the base chart per frame section in frame order; on a
    prolongation, core c of copy m + 1 sits at m*frame_block + c and linear
    a at k*frame_block + a (`CopyLayout`).  Linearity over base functions
    determines F on every section from these.

    For each unordered frame pair (U, V) the residual is
    R(U, V) = F([U, V]) - rho(U) F(V) + rho(V) F(U), with F extended to the
    bracket by linearity over the frame coefficients.  Vanishing on frame
    pairs settles the condition for all sections: expanding sections in the
    frame, the derivative terms produced by the Leibniz rule on either side
    cancel.

    On a prolongation with k >= 2 copies, a permutation s of the copies maps
    the anchor and the brackets to themselves (`CopyLayout`).  When the
    values also satisfy F(tU) = -t*F(U) exactly for the k - 1 adjacent
    transpositions t, as the functional of an alternating k-form or k-vector
    does, then R(sU, sV) = sgn(s) s*R(U, V) for every s.  The check then
    computes one residual per orbit of pairs, at its representative (l_a,
    l_b), (c1_a, l_b), (c1_a, c1_b) or (c1_a, c2_b) with a <= b (c_m a core
    of copy m, l a linear section), and moves a nonzero one to the rest of
    its orbit by relabelling copies; the sign rule holds exactly, so every
    verdict still rests on an exact zero test.  Otherwise, and on any other
    algebroid, every pair is its own orbit.  Violations come in frame-pair
    order either way.

    A representative with three or more free copies, those that hold no
    core of the pair, is decided from its sorted dotted coefficients
    (`_SortedResiduals`): (l_a, l_b) at k >= 3, (c1_a, l_b) and (c1_a, c1_b)
    at k >= 4, (c1_a, c2_b) at k >= 5.  Each value it reads must have the
    copy shape, checked on every dotted monomial of the value: exactly one
    coordinate, with exponent 1, of each copy but that of the value's own
    core, and none of that copy.  A pair that reads a value outside the
    copy shape takes the full product.  The argument: the prolongation's
    anchor and brackets are linear in each copy's coordinates, so with the
    copy shape the residual has degree one in each free copy and none in
    the busy ones; the permutations s of the free copies fix the pair, so
    by the sign rule, which anti-invariance proves, R = sgn(s) s*R, and R
    is alternating in the free copies.  Such an R vanishes iff its
    coefficients at the sorted dotted monomials y_f1^i1 ... y_fs^is,
    i1 < ... < is, vanish, and a nonzero R is the sum of sgn(s) s* of that
    sorted part.  So each such verdict also rests on an exact zero test, of
    1/s! of R's terms for s free copies.

    Partials and negated anchor entries come from one `forms.Calculus` of
    the call, so each is computed at most once.
    """
    r = algebroid.rank
    chart = algebroid.base_chart
    if len(values) != r or any(p.chart != chart for p in values):
        raise AlgebroidError("need one value on the base chart per frame section")
    violations = []
    names = algebroid.frame_names
    ops = Calculus(chart)
    layout = algebroid._copy_layout
    reduced = layout is not None and layout.k >= 2 and layout.anti_invariant(values)
    by_sorted = _SortedResiduals(algebroid, values, ops) if reduced and layout.k >= 3 else None
    anchor = algebroid.anchor_rows
    found = {}  # the nonzero residuals of the pairs computed
    for i in range(r):
        for j in range(i + 1, r):
            source = layout.orbit_source(i, j) if reduced else None
            if source is None:
                res = by_sorted.residual(i, j) if by_sorted else None
                if res is None:
                    pairs = [(w, values[c]) for c, w in algebroid.bracket_frame_row(i, j)]
                    pairs += [(ops.pm(comp)[1], ops.partial(values[j], l))
                              for l, comp in anchor[i].items()]
                    pairs += [(comp, ops.partial(values[i], l)) for l, comp in anchor[j].items()]
                    res = Polynomial.sum_of_products(chart, pairs)
                if res.is_zero():
                    continue
                found[i, j] = res
            else:
                rep, perm, sign = source
                if rep not in found:
                    continue
                res = layout.relabel(found[rep], perm, sign)
            violations.append(Violation("MORPHISM", (names[i], names[j]), res))
    return CheckReport.collect(violations)


class _SortedResiduals:
    """The residuals of one `check_morphism_to_line` call's representatives
    with three or more free copies, from their sorted dotted coefficients.

    The coefficient of R at a sorted dotted monomial T is one
    `sum_of_products` of base polynomials: each factor of R's products is
    split by dotted monomial (`Polynomial.split`), and a product p * q adds
    p_J * q_(T - J) for each group J of p that divides T.  A dotted partial
    dF/dy at K is F's group at K * y, whose exponent of y is 1 by the copy
    shape; a base partial is that of one group, from the call's `Calculus`.

    Its tables live for the call: each frame value split once, or None
    outside the copy shape; each anchor row split once; and the sorted
    monomials of each set of free copies.
    """

    def __init__(self, algebroid: LieAlgebroid, values: list, ops: Calculus):
        layout = algebroid._copy_layout
        self.algebroid = algebroid
        self.layout = layout
        self.values = values
        self.ops = ops
        self.start = layout.base_dim
        self.units = layout.unit_keys(algebroid.base_chart)
        self.copy_bits = [sum(row) for row in self.units]
        self.shift = {self.start + m * layout.chart_block + l: key
                      for m, row in enumerate(self.units) for l, key in enumerate(row)}
        self.groups = {}
        self.rows = {}
        self.monomials = {}

    def value_groups(self, u: int):
        """F(e_u) split by dotted monomial, or None outside the copy shape."""
        if u in self.groups:
            return self.groups[u]
        busy = self.layout.copy_of(u)
        bits = [b for m, b in enumerate(self.copy_bits) if m != busy]
        allowed = sum(bits)
        groups = self.values[u].split(self.start)
        for key in groups:
            # only exponents 1 of the other copies, as many as copies, one in each
            if key & ~allowed or key.bit_count() != len(bits) or not all(key & b for b in bits):
                groups = None
                break
        self.groups[u] = groups
        return groups

    def anchor_row(self, u: int) -> list:
        """(J, group J, column) over the anchor entries of e_u."""
        row = self.rows.get(u)
        if row is None:
            row = self.rows[u] = [(J, c, col)
                                  for col, comp in self.algebroid.anchor_rows[u].items()
                                  for J, c in comp.split(self.start).items()]
        return row

    def sorted_monomials(self, free: tuple) -> list:
        """The keys of y_f1^i1 ... y_fs^is, i1 < ... < is, over the free
        copies f1 < ... < fs."""
        keys = self.monomials.get(free)
        if keys is None:
            keys = self.monomials[free] = [
                sum(self.units[m][i] for m, i in zip(free, idx))
                for idx in combinations(range(self.layout.chart_block), len(free))]
        return keys

    def residual(self, i: int, j: int):
        """R(e_i, e_j), or None when the pair has fewer than three free
        copies or reads a value outside the copy shape."""
        layout = self.layout
        busy = (layout.copy_of(i), layout.copy_of(j))
        free = tuple(m for m in range(layout.k) if m not in busy)
        if len(free) < 3:
            return None
        bracket = self.algebroid.bracket_frame_row(i, j)
        groups = {u: self.value_groups(u) for u in {i, j}.union(c for c, _ in bracket)}
        if None in groups.values():
            return None
        chart = self.algebroid.base_chart
        start = self.start
        ops = self.ops
        # J -> (lookups (p_J, groups of F, key shift), base partials (p_J, groups of F, column))
        readers: dict = {}
        for c, w in bracket:
            for J, wJ in w.split(start).items():
                readers.setdefault(J, ([], []))[0].append((wJ, groups[c], 0))
        for u, v in ((i, j), (j, i)):
            for J, coeff, col in self.anchor_row(u):
                if u == i:
                    coeff = ops.pm(coeff)[1]
                lookups, diffs = readers.setdefault(J, ([], []))
                if col < start:
                    diffs.append((coeff, groups[v], col))
                else:
                    lookups.append((coeff, groups[v], self.shift[col]))
        part = []
        for T in self.sorted_monomials(free):
            pairs = []
            for J, (lookups, diffs) in readers.items():
                if J | T != T:
                    continue  # J does not divide T, whose exponents are 0 or 1
                K = T ^ J
                for coeff, table, shift in lookups:
                    group = table.get(K + shift)
                    if group is not None:
                        pairs.append((coeff, group))
                for coeff, table, col in diffs:
                    group = table.get(K)
                    if group is not None:
                        pairs.append((coeff, ops.partial(group, col)))
            coefficient = Polynomial.sum_of_products(chart, pairs)
            if not coefficient.is_zero():
                part.append((coefficient, Polynomial(chart, {chart.unpack(T): 1})))
        if not part:
            return Polynomial.zero(chart)
        part = Polynomial.sum_of_products(chart, part)
        return Polynomial.sum_of_products(
            chart, [(layout.relabel(part, perm), sign) for perm, sign in layout.permutations(free)])


# ---------------------------------------------------------------------------
# the oracle pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleOutcome:
    """The axiom report, and per route its report and verdict."""

    axioms: CheckReport
    reports: Mapping   # route name -> CheckReport
    verdicts: Mapping  # route name -> bool

    @property
    def agree(self) -> bool:
        return len(set(self.verdicts.values())) <= 1


def run_oracle(algebroid: LieAlgebroid, routes: Mapping) -> OracleOutcome:
    """Run independent routes to one verdict and require that they agree.

    `routes` maps a route name to a callable returning that route's
    CheckReport; they run in order.  A route's verdict is whether its report
    passed and the algebroid axioms hold, which `axiom_gate` checks on
    unchecked algebroids; every route decides a theorem about Lie
    algebroids.  The routes decide one theorem, so differing verdicts raise
    OracleDisagreement, a defect in one of the code paths; the exception
    carries the outcome.
    """
    axioms = CheckReport.collect(axiom_gate(algebroid))
    reports = {name: route() for name, route in routes.items()}
    verdicts = {name: report.passed and axioms.passed for name, report in reports.items()}
    outcome = OracleOutcome(axioms, reports, verdicts)
    if not outcome.agree:
        shown = ", ".join(f"{name} {verdict}" for name, verdict in verdicts.items())
        raise OracleDisagreement(
            f"route verdicts disagree ({shown}): one of the independent code paths is wrong",
            outcome)
    return outcome


# ---------------------------------------------------------------------------
# prolongations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CopyLayout:
    """Where `_prolongation` put the k copies: frame_block cores per copy
    ahead of the linear sections, chart_block coordinates per copy after the
    base_dim base ones, copy by copy.  A copy permutation `perm` (copy m + 1
    goes to copy perm[m] + 1) moves cores, chart coordinates and monomials by
    copy and fixes everything else; it maps the anchor and the brackets of a
    prolongation to themselves.
    """

    k: int
    frame_block: int
    chart_block: int
    base_dim: int

    def frame_image(self, index: int, perm: tuple) -> int:
        if index >= self.k * self.frame_block:
            return index
        m, a = divmod(index, self.frame_block)
        return perm[m] * self.frame_block + a

    def variables(self, chart: Chart) -> list:
        """The copy coordinates as Polynomials on the prolongation chart:
        entry [m][l] is y_(m+1)^l, at position base_dim + m*chart_block + l."""
        return [[Polynomial.variable(chart, chart.names[self.base_dim + m * self.chart_block + l])
                 for l in range(self.chart_block)] for m in range(self.k)]

    def unit_keys(self, chart: Chart) -> list:
        """The packed keys of the copy coordinates on the prolongation
        chart: entry [m][l] is that of y_(m+1)^l."""
        def unit(position: int) -> int:
            return chart.pack([int(t == position) for t in range(chart.dim)])
        return [[unit(self.base_dim + m * self.chart_block + l) for l in range(self.chart_block)]
                for m in range(self.k)]

    def copy_of(self, index: int):
        """The copy that holds frame index `index` (m for copy m + 1), or
        None for a linear section."""
        return index // self.frame_block if index < self.k * self.frame_block else None

    def relabel(self, poly: Polynomial, perm: tuple, sign: int = 1) -> Polynomial:
        """sign * perm*(poly): each copy's block of packed slots moved."""
        return poly.permute_blocks(self.base_dim, self.chart_block, perm, sign)

    def permutations(self, free: tuple):
        """(perm, sgn(perm)) for each permutation of the copies in `free`
        that fixes the other copies."""
        for images in permutations(free):
            perm = list(range(self.k))
            for m, t in zip(free, images):
                perm[m] = t
            inversions = sum(a > b for a, b in combinations(images, 2))
            yield tuple(perm), -1 if inversions % 2 else 1

    def _sending(self, targets: tuple) -> tuple:
        """(perm, sgn(perm)) for a copy permutation that takes copy m to
        targets[m] for m < len(targets), by at most len(targets)
        transpositions."""
        perm = list(range(self.k))
        sign = 1
        for m, t in enumerate(targets):
            x = perm.index(t)
            if x != m:
                perm[m], perm[x] = t, perm[m]
                sign = -sign
        return tuple(perm), sign

    def anti_invariant(self, values: Sequence[Polynomial]) -> bool:
        """Whether F(tU) = -t*F(U) for every frame index U and every
        adjacent transposition t, F(U) being values[U].  Swapping copies m
        and m + 1 is an involution, so the cores of copy m + 1 are skipped:
        their test is that of their images in copy m."""
        ids = tuple(range(self.k))
        B = self.frame_block
        for m in range(self.k - 1):
            tau = ids[:m] + (m + 1, m) + ids[m + 2:]
            for u, value in enumerate(values):
                if (m + 1) * B <= u < (m + 2) * B:
                    continue
                if values[self.frame_image(u, tau)] != self.relabel(value, tau, -1):
                    return False
        return True

    def orbit_source(self, i: int, j: int):
        """None when frame pair i < j represents its copy-permutation orbit;
        otherwise (representative, perm, sign), the residual of (i, j) being
        sign * perm* of the representative's."""
        B = self.frame_block
        cores = self.k * B
        if i >= cores:
            return None  # (l_a, l_b), fixed by every permutation
        p, a = divmod(i, B)
        if j >= cores:
            rep, targets = (a, j), (p,)
        else:
            q, b = divmod(j, B)
            if p == q:
                rep, targets = (a, b), (p,)
            elif a <= b:
                rep, targets = (a, B + b), (p, q)
            else:
                # R(c_a^p, c_b^q) = -R(c_b^q, c_a^p), in the orbit of (c1_b, c2_a)
                perm, sign = self._sending((q, p))
                return (b, B + a), perm, -sign
        if rep == (i, j):
            return None
        perm, sign = self._sending(targets)
        return rep, perm, sign


def tangent_copy_name(coord: str, n: int) -> str:
    return f"{coord}_dot{n}"


def dual_copy_name(n: int, d: int) -> str:
    return f"xi{n}_{d}"


def _prolongation(algebroid: LieAlgebroid, k: int, tag: str, block: int,
                  copy_coord, core_name, linear_name, P, q, G, h) -> LieAlgebroid:
    """The prolongation with k copies of one side's base-level tables.

    The one placement rule: copy m = 1..k holds `block` chart coordinates
    y_m^l (named copy_coord(m, l)) at positions n + (m-1)*block + l, after
    the n base ones, and len(P) cores (named core_name(m, c)) at frame
    indices (m-1)*len(P) + c, ahead of the linear sections (named by
    `linear_name`).  The result records it as its `CopyLayout`.  `block` is
    passed, since the tables are empty at rank 0 and on a point base.

    Each table entry is a base polynomial, the same in every copy m:
    - P[c][l]: the anchor of core c along y_m^l of its own copy;
    - q[a][l]: (l', p) pairs, the anchor of linear a along y_m^l being
      sum p y_m^l' (along the base it is the base anchor);
    - G[a][c]: (c', p) pairs, [core c, linear a] = sum p core c' in the copy;
    - h[a, b], a < b: maps core c to (l, p) pairs, [linear a, linear b]
      being the base bracket on linear sections plus sum p y_m^l core c.
    Cores commute, so permuting the copies maps the anchor and the brackets
    to themselves.  A validated base gives a validated result, which the
    test suite covers rather than each construction.
    """
    if k < 1:
        raise AlgebroidError("prolongation degree k must be >= 1")
    base = algebroid.base_chart
    n = base.dim
    B = len(P)
    lin = k * B
    copies = range(k)
    chart = Chart(f"{base.name}|{tag}{k}", base.coords + tuple(
        Coord(copy_coord(m + 1, l), base=False) for m in copies for l in range(block)))
    frame = [core_name(m + 1, c) for m in copies for c in range(B)]
    frame += [linear_name(name) for name in algebroid.frame_names]

    layout = CopyLayout(k, B, block, n)

    def core(m: int, c: int) -> int:
        return m * B + c

    def col(m: int, l: int) -> int:
        return n + m * block + l

    zero = Polynomial.zero(chart)
    y = layout.variables(chart)

    def per_copy(pairs) -> list:
        """sum p y_m^l over the (l, p) pairs, for each copy m; the zero p
        are dropped before they are promoted."""
        pairs = [(p.promote(chart), l) for l, p in pairs if not p.is_zero()]
        if not pairs:
            return [zero] * k
        return [Polynomial.sum_of_products(chart, [(p, ym[l]) for p, l in pairs]) for ym in y]

    # each anchor entry is promoted once and shared by its k copies
    P = [[p.promote(chart) for p in c_row] for c_row in P]
    rows = []
    for m in copies:
        for c_row in P:
            row = [zero] * chart.dim
            for l, p in enumerate(c_row):
                row[col(m, l)] = p
            rows.append(row)
    for a, base_row in enumerate(algebroid.anchor):
        row = [p.promote(chart) for p in base_row] + [zero] * (k * block)
        for l, pairs in enumerate(q[a]):
            for m, w in enumerate(per_copy(pairs)):
                row[col(m, l)] = w
        rows.append(row)

    structure: dict = {}
    for a, a_rows in enumerate(G):
        for c, pairs in enumerate(a_rows):
            pairs = [(c2, p.promote(chart)) for c2, p in pairs]
            for m in copies:
                structure[(core(m, c), lin + a)] = {core(m, c2): p for c2, p in pairs}
    for (a, b), corrections in h.items():
        entries = structure[(lin + a, lin + b)] = {
            lin + d: w.promote(chart) for d, w in algebroid.bracket_frame_row(a, b)}
        for c, pairs in corrections.items():
            for m, w in enumerate(per_copy(pairs)):
                entries[core(m, c)] = w

    out = LieAlgebroid(chart, lin + algebroid.rank, frame, rows, structure, unchecked=True)
    object.__setattr__(out, "checked", algebroid.checked)
    object.__setattr__(out, "_copy_layout", layout)
    return out


def tangent_prolongation(algebroid: LieAlgebroid, k: int) -> LieAlgebroid:
    """The induced algebroid on the k-fold tangent sum of the total space.

    Copy m holds the dotted coordinates y_m = xdot_m (n of them) and a core
    per frame section (r of them).  The `_prolongation` tables:
    P[a][j] = rho_a^j, q[a][j][l] = d_l rho_a^j (the dotted derivative),
    G[a][b] = C_ba^d (structure functions on cores), h[a, b][d][l] =
    d_l C_ab^d.
    """
    names = algebroid.base_chart.names
    frame = algebroid.frame_names
    rows = range(algebroid.rank)

    def partials(f: Polynomial) -> list:
        return [(l, f.diff(x)) for l, x in enumerate(names)]

    return _prolongation(
        algebroid, k, "T", len(names),
        lambda m, l: tangent_copy_name(names[l], m),
        lambda m, a: f"{frame[a]}_hat{m}",
        lambda name: f"T{name}",
        P=algebroid.anchor,
        q=[[partials(p) for p in row] for row in algebroid.anchor],
        G=[[algebroid.bracket_frame_row(b, a) for b in rows] for a in rows],
        h={(a, b): {d: partials(w) for d, w in algebroid.bracket_frame_row(a, b)}
           for a in rows for b in rows if a < b})


def cotangent_prolongation(algebroid: LieAlgebroid, k: int) -> LieAlgebroid:
    """The induced algebroid on the k-fold cotangent sum of the total space.

    Copy m holds the dual coordinates y_m = xi_m (r of them) and a core per
    base coordinate (n of them).  The `_prolongation` tables:
    P[i][d] = rho_d^i (the anchor columns), q[a][b][c] = C_ab^c (the
    coadjoint-type action), G[a][j][i] = -d_i rho_a^j, h[a, b][i][d] =
    -d_i C_ab^d.
    """
    names = algebroid.base_chart.names
    anchor = algebroid.anchor
    rows = range(algebroid.rank)
    return _prolongation(
        algebroid, k, "T*", algebroid.rank,
        lambda m, d: dual_copy_name(m, d + 1),
        lambda m, i: f"d{names[i]}_hat{m}",
        lambda name: f"{name}_L",
        P=[[row[i] for row in anchor] for i in range(len(names))],
        q=[[algebroid.bracket_frame_row(a, b) for b in rows] for a in rows],
        G=[[[(i, -p.diff(x)) for i, x in enumerate(names)] for p in row] for row in anchor],
        h={(a, b): {i: [(d, -w.diff(x)) for d, w in algebroid.bracket_frame_row(a, b)]
                    for i, x in enumerate(names)}
           for a in rows for b in rows if a < b})
