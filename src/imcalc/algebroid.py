"""Lie algebroids in polynomial charts, their prolongations, and checkers.

A Lie algebroid over a chart is encoded by its rank, a frame of section
names, an anchor matrix (one polynomial row per frame section, one column per
chart coordinate) and an antisymmetric table of structure functions.  The
axiom checker, the two direct-sum prolongation constructions (tangent side
over the k-fold tangent chart, cotangent side over the k-fold dual chart) and
the fiberwise-linear morphism-to-the-line checker all operate on this one
representation, so the same `check_morphism_to_line` serves both main
equivalence oracles.  `run_oracle` is the one pipeline every oracle runs
its independent routes through.

Structure functions are stored sparsely for pairs a < b only; brackets of
frame sections in either order are served with the sign folded in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import AlgebroidError, AxiomError, OracleDisagreement
from .forms import Alternating, VectorField, collect, graded_bracket
from .poly import Chart, ChartError, Coord, Polynomial, ROLE_DUAL, ROLE_TANGENT


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
    in the image of frame section a; `structure[(a, b)][c]` (a < b) is the
    coefficient of frame section c in the bracket of frame sections a and b.
    Unless `unchecked=True`, construction runs `check_axioms` and refuses data
    that is not a Lie algebroid; unchecked values still work with every
    checker and prolongation (the frame-level computations never assume the
    axioms), which is how deliberately broken fixtures are exercised.
    """

    __slots__ = ("base_chart", "rank", "frame_names", "anchor", "structure",
                 "checked", "_anchor_sparse", "_axiom_report")

    def __init__(self, base_chart: Chart, rank: int, frame_names: Sequence[str],
                 anchor: Sequence[Sequence[Polynomial]],
                 structure: Mapping, unchecked: bool = False,
                 _inherit_checked: bool | None = None):
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
        object.__setattr__(self, "_anchor_sparse", tuple(
            tuple((base_chart.names[j], p) for j, p in enumerate(row) if not p.is_zero())
            for row in rows
        ))
        # filled by the first `axiom_gate` on an unchecked algebroid; the
        # data above never changes, so neither does the report
        object.__setattr__(self, "_axiom_report", None)
        if _inherit_checked is not None:
            # prolongations of validated algebroids inherit the flag; the
            # closure property is covered by the test suite rather than
            # re-verified on every construction
            object.__setattr__(self, "checked", _inherit_checked)
        elif unchecked:
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

    def frame_index(self, name: str) -> int:
        try:
            return self.frame_names.index(name)
        except ValueError:
            raise AlgebroidError(f"unknown frame section {name!r}") from None

    def bracket_frame_row(self, a: int, b: int):
        """[e_a, e_b] as (index, coefficient) pairs, any argument order."""
        if a == b:
            return ()
        if a < b:
            return tuple(self.structure.get((a, b), {}).items())
        return tuple((c, -p) for c, p in self.structure.get((b, a), {}).items())

    def anchor_field(self, a: int) -> VectorField:
        return VectorField.from_components(self.base_chart, list(self.anchor[a]))

    def anchor_derivation(self, a: int, f: Polynomial) -> Polynomial:
        """Directional derivative of a scalar along the anchor of frame a."""
        return Polynomial.sum_of_products(
            self.base_chart, ((comp, f.diff(name)) for name, comp in self._anchor_sparse[a]))

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

    @classmethod
    def from_components(cls, algebroid: LieAlgebroid, comps: Sequence[Polynomial]) -> "Section":
        if len(comps) != algebroid.rank:
            raise AlgebroidError("need one component per frame section")
        return cls(algebroid, 1, {(a,): p for a, p in enumerate(comps) if not p.is_zero()})

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


def bracket_sections(algebroid: LieAlgebroid, u: Section, v: Section) -> Section:
    """Bracket of two degree-1 sections by the explicit Leibniz formula.

    [u, v]^c = u^a v^b C_ab^c + u^a rho_a(v^c) - v^b rho_b(u^c).  The wedge
    extension of arbitrary degrees lives in `section_bracket`; the two agree
    on degree 1 (tested), giving an internal dual route for the bracket.
    """
    if u.degree != 1 or v.degree != 1:
        raise AlgebroidError("bracket_sections needs degree-1 sections")
    u._check_mate(v)
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
    derivative.
    """
    u._check_mate(v)
    algebroid = u.algebroid
    table = graded_bracket(u.coeffs, u.degree, v.coeffs, v.degree,
                           algebroid.bracket_frame_row, algebroid.anchor_derivation)
    return u._like(table, max(u.degree + v.degree - 1, 0))


def anchor_apply(algebroid: LieAlgebroid, u: Section) -> VectorField:
    """Image of a degree-1 section under the anchor, as a chart vector field."""
    if u.degree != 1:
        raise AlgebroidError("anchor_apply needs a degree-1 section")
    groups: dict = {}
    for (a,), ua in u.coeffs.items():
        for j, p in enumerate(algebroid.anchor[a]):
            if not p.is_zero():
                groups.setdefault((j,), []).append((ua, p))
    return VectorField(algebroid.base_chart, collect(groups))


def check_axioms(algebroid: LieAlgebroid) -> CheckReport:
    """Verify anchor-bracket compatibility and the Jacobi identity on frames.

    Anchor condition, for every frame pair a < b and chart coordinate:
    the commutator of anchor images minus the anchor image of the bracket
    vanishes identically.  Jacobi: the cyclic sum of [e_a, [e_b, e_c]]
    vanishes in every frame component for a < b < c.  Jacobi on frame triples
    suffices: general sections follow via the Leibniz identity.
    """
    violations = []
    chart = algebroid.base_chart
    r = algebroid.rank
    anchor = algebroid.anchor
    sparse = algebroid._anchor_sparse
    minus_sparse = [tuple((name, -comp) for name, comp in row) for row in sparse]
    for a in range(r):
        for b in range(a + 1, r):
            # minus the bracket: [e_b, e_a] = -[e_a, e_b]
            row = algebroid.bracket_frame_row(b, a)
            for j, name in enumerate(chart.names):
                pairs = [(comp, anchor[b][j].diff(x)) for x, comp in sparse[a]]
                pairs += [(comp, anchor[a][j].diff(x)) for x, comp in minus_sparse[b]]
                pairs += [(w, anchor[c][j]) for c, w in row]
                res = Polynomial.sum_of_products(chart, pairs)
                if not res.is_zero():
                    violations.append(Violation("AXIOM_ANCHOR", (a + 1, b + 1, name), res))
    for a in range(r):
        for b in range(a + 1, r):
            for c in range(b + 1, r):
                groups: dict = {}
                for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                    # [e_x, [e_y, e_z]] with [e_y, e_z] = sum_d w_d e_d
                    for d, w in algebroid.bracket_frame_row(y, z):
                        if sparse[x]:
                            groups.setdefault(d, []).extend(
                                (comp, w.diff(name)) for name, comp in sparse[x])
                        for e, w2 in algebroid.bracket_frame_row(x, d):
                            groups.setdefault(e, []).append((w, w2))
                table = collect(groups)
                for e in sorted(table):
                    violations.append(
                        Violation("AXIOM_JACOBI", (a + 1, b + 1, c + 1, e + 1), table[e]))
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


@dataclass(frozen=True)
class FiberFunctional:
    """Fiberwise-linear map to the line, stored by its frame values.

    The values are polynomials on the base chart of the (typically
    prolongation) algebroid; linearity over base functions determines the
    functional on every section from these.
    """

    algebroid: LieAlgebroid
    values: Mapping

    def __post_init__(self):
        missing = [n for n in self.algebroid.frame_names if n not in self.values]
        extra = [n for n in self.values if n not in self.algebroid.frame_names]
        if missing or extra:
            raise AlgebroidError(
                f"functional must cover the frame exactly (missing {missing}, extra {extra})")
        for name, p in self.values.items():
            if p.chart != self.algebroid.base_chart:
                raise ChartError(f"value for {name!r} lives on the wrong chart")
        object.__setattr__(self, "values", dict(self.values))

    def value(self, a: int) -> Polynomial:
        return self.values[self.algebroid.frame_names[a]]


def check_morphism_to_line(algebroid: LieAlgebroid, functional: FiberFunctional) -> CheckReport:
    """Check the Lie-algebroid-morphism condition of a fiberwise-linear map.

    For each unordered frame pair (U, V) the residual is
    F([U, V]) - rho(U) F(V) + rho(V) F(U), with F extended to the bracket by
    linearity over the frame coefficients.  Vanishing on frame pairs settles
    the condition for all sections: expanding sections in the frame, the
    derivative terms produced by the Leibniz rule on either side cancel.

    Each partial derivative of a frame value is taken at most once per call:
    `partials[j]` maps a coordinate to dF(e_j)/dx, filled as pairs need it
    and dropped after row j of the pair loop, its last use.
    """
    if functional.algebroid != algebroid:
        raise AlgebroidError("functional is attached to a different algebroid")
    violations = []
    r = algebroid.rank
    chart = algebroid.base_chart
    values = [functional.value(a) for a in range(r)]
    partials = [{} for _ in range(r)]

    def partial(j: int, name: str) -> Polynomial:
        table = partials[j]
        dp = table.get(name)
        if dp is None:
            dp = table[name] = values[j].diff(name)
        return dp

    anchor = algebroid._anchor_sparse
    minus_anchor = [tuple((name, -comp) for name, comp in row) for row in anchor]
    for i in range(r):
        for j in range(i + 1, r):
            pairs = [(w, values[c]) for c, w in algebroid.bracket_frame_row(i, j)]
            pairs += [(comp, partial(j, name)) for name, comp in minus_anchor[i]]
            pairs += [(comp, partial(i, name)) for name, comp in anchor[j]]
            res = Polynomial.sum_of_products(chart, pairs)
            if not res.is_zero():
                violations.append(Violation(
                    "MORPHISM",
                    (algebroid.frame_names[i], algebroid.frame_names[j]),
                    res))
        partials[i] = None
    return CheckReport.collect(violations)


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
    passed.  The route named "morphism" certifies a morphism of Lie
    algebroids, so its verdict also needs the axioms, which `axiom_gate`
    checks on unchecked algebroids.  The routes decide one theorem, so
    differing verdicts raise OracleDisagreement, a defect in one of the code
    paths; the exception carries the outcome.
    """
    axioms = CheckReport.collect(axiom_gate(algebroid))
    reports = {name: route() for name, route in routes.items()}
    verdicts = {name: report.passed and (name != "morphism" or axioms.passed)
                for name, report in reports.items()}
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

def tangent_copy_name(coord: str, n: int) -> str:
    return f"{coord}_dot{n}"


def dual_copy_name(n: int, d: int) -> str:
    return f"xi{n}_{d}"


def core_frame_name(frame: str, n: int) -> str:
    return f"{frame}_hat{n}"


def linear_frame_name(frame: str) -> str:
    return f"T{frame}"


def dual_core_frame_name(coord: str, n: int) -> str:
    return f"d{coord}_hat{n}"


def dual_linear_frame_name(frame: str) -> str:
    return f"{frame}_L"


def tangent_sum_chart(base: Chart, k: int) -> Chart:
    """Chart of the k-fold tangent sum: base coordinates plus k dotted copies."""
    extra = [Coord(tangent_copy_name(c.name, n), ROLE_TANGENT, n)
             for n in range(1, k + 1) for c in base.coords]
    return Chart(f"{base.name}|T{k}", base.coords + tuple(extra))


def dual_sum_chart(base: Chart, rank: int, k: int) -> Chart:
    """Chart of the k-fold dual sum: base coordinates plus k dual-fiber copies."""
    extra = [Coord(dual_copy_name(n, d + 1), ROLE_DUAL, n)
             for n in range(1, k + 1) for d in range(rank)]
    return Chart(f"{base.name}|T*{k}", base.coords + tuple(extra))


def tangent_prolongation(algebroid: LieAlgebroid, k: int) -> LieAlgebroid:
    """The induced algebroid on the k-fold tangent sum of the total space.

    Frame: core sections (one per frame section and copy, ordered by (copy,
    section)) followed by the diagonal linear ones.  Anchor: cores push the
    anchor into the matching dotted copy; linear sections keep the base part
    and pick up the dotted derivative correction in every copy.  Brackets:
    cores commute, linear-core reproduces the structure functions on cores,
    linear-linear adds the dotted derivative of the structure functions.
    """
    if k < 1:
        raise AlgebroidError("prolongation degree k must be >= 1")
    base = algebroid.base_chart
    chart = tangent_sum_chart(base, k)
    r = algebroid.rank
    n_base = base.dim
    zero = Polynomial.zero(chart)

    frame = [core_frame_name(name, n)
             for n in range(1, k + 1) for name in algebroid.frame_names]
    frame += [linear_frame_name(name) for name in algebroid.frame_names]

    def core_idx(a: int, n: int) -> int:
        return (n - 1) * r + a

    def lin_idx(a: int) -> int:
        return k * r + a

    anchor_prom = [[p.promote(chart) for p in row] for row in algebroid.anchor]
    dotted = [[Polynomial.variable(chart, tangent_copy_name(base.names[i], n))
               for i in range(n_base)] for n in range(1, k + 1)]

    def dotted_derivative(f: Polynomial) -> list:
        """sum_i xdot_n^i df/dx^i on the prolongation chart, for n = 1..k."""
        parts = [(f.diff(name).promote(chart), i) for i, name in enumerate(base.names)]
        return [Polynomial.sum_of_products(chart, [(p, row[i]) for p, i in parts])
                for row in dotted]

    def tangent_col(j: int, n: int) -> int:
        return chart.index(tangent_copy_name(base.names[j], n))

    rows = []
    for n in range(1, k + 1):
        for a in range(r):
            row = [zero] * chart.dim
            for j in range(n_base):
                row[tangent_col(j, n)] = anchor_prom[a][j]
            rows.append(row)
    for a in range(r):
        row = anchor_prom[a] + [zero] * (chart.dim - n_base)
        for j in range(n_base):
            for n, w in enumerate(dotted_derivative(algebroid.anchor[a][j]), start=1):
                row[tangent_col(j, n)] = w
        rows.append(row)

    structure: dict = {}
    for a in range(r):
        for b in range(r):
            # [T e_a, core e_(b, m)] = C_ab^d core e_(d, m); cores precede
            # linear sections, so store [core, linear] = [e_b, e_a] on cores
            minus_row = algebroid.bracket_frame_row(b, a)
            for m in range(1, k + 1):
                structure[(core_idx(b, m), lin_idx(a))] = {
                    core_idx(d, m): w.promote(chart) for d, w in minus_row}
    for a in range(r):
        for b in range(a + 1, r):
            entries = structure[(lin_idx(a), lin_idx(b))] = {}
            for d, w in algebroid.bracket_frame_row(a, b):
                entries[lin_idx(d)] = w.promote(chart)
                for n, corr in enumerate(dotted_derivative(w), start=1):
                    entries[core_idx(d, n)] = corr

    return LieAlgebroid(chart, (k + 1) * r, frame, rows, structure,
                        _inherit_checked=algebroid.checked)


def cotangent_prolongation(algebroid: LieAlgebroid, k: int) -> LieAlgebroid:
    """The induced algebroid on the k-fold cotangent sum of the total space.

    Frame: core sections (one per base coordinate and copy, ordered by (copy,
    coordinate)) followed by the diagonal linear ones.  The anchor routes the
    columns of the base anchor into the dual copies for cores and acts by the
    coadjoint-type expression on linear sections.
    """
    if k < 1:
        raise AlgebroidError("prolongation degree k must be >= 1")
    base = algebroid.base_chart
    r = algebroid.rank
    n_base = base.dim
    chart = dual_sum_chart(base, r, k)
    zero = Polynomial.zero(chart)

    frame = [dual_core_frame_name(base.names[i], n)
             for n in range(1, k + 1) for i in range(n_base)]
    frame += [dual_linear_frame_name(name) for name in algebroid.frame_names]

    def core_idx(i: int, n: int) -> int:
        return (n - 1) * n_base + i

    def lin_idx(a: int) -> int:
        return k * n_base + a

    xi = [[Polynomial.variable(chart, dual_copy_name(n, d + 1))
           for d in range(r)] for n in range(1, k + 1)]

    rows = []
    for n in range(1, k + 1):
        for i in range(n_base):
            row = [zero] * chart.dim
            for d in range(r):
                row[chart.index(dual_copy_name(n, d + 1))] = algebroid.anchor[d][i].promote(chart)
            rows.append(row)
    for a in range(r):
        row = [p.promote(chart) for p in algebroid.anchor[a]] + [zero] * (chart.dim - n_base)
        for n in range(1, k + 1):
            for b in range(r):
                row[chart.index(dual_copy_name(n, b + 1))] = Polynomial.sum_of_products(
                    chart, [(w.promote(chart), xi[n - 1][c])
                            for c, w in algebroid.bracket_frame_row(a, b)])
        rows.append(row)

    structure: dict = {}
    for a in range(r):
        # [linear e_a, core dx_(j, m)] = d(rho_a^j)/dx^i core dx_(i, m)
        for j in range(n_base):
            minus = [(-algebroid.anchor[a][j].diff(name)).promote(chart) for name in base.names]
            for m in range(1, k + 1):
                structure[(core_idx(j, m), lin_idx(a))] = {
                    core_idx(i, m): c for i, c in enumerate(minus)}
    for a in range(r):
        for b in range(a + 1, r):
            crow = algebroid.bracket_frame_row(a, b)
            groups: dict = {}
            for d, w in crow:
                for i, name in enumerate(base.names):
                    minus_dw = (-w.diff(name)).promote(chart)
                    for n in range(1, k + 1):
                        groups.setdefault(core_idx(i, n), []).append((minus_dw, xi[n - 1][d]))
            structure[(lin_idx(a), lin_idx(b))] = {
                lin_idx(d): w.promote(chart) for d, w in crow} | collect(groups)

    return LieAlgebroid(chart, k * n_base + r, frame, rows, structure,
                        _inherit_checked=algebroid.checked)
