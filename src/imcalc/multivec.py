"""Linear multivector fields, exterior-algebra derivations, and the dual
equivalence oracle.

A linear k-vector field on the total space of a bundle has two coefficient
classes: a fiber class (pure fiber-direction wedge, coefficient homogeneous of
fiber-degree one) and a mixed class (one base direction, fiber-independent
coefficient).  Such fields correspond bijectively to degree-(k-1) derivations
of the exterior algebra of sections, stored here by their action on base
coordinates and on the frame.  The dual main result matches the derivation
property for the Gerstenhaber bracket against the morphism condition of the
induced fiberwise functional on the cotangent prolongation; both routes are
computed independently and compared by `oracle_equivalence_dual`.  Only the
derivation route reads the candidate through `derivation_from_linear`; the
morphism route reads the fiber and mixed tables itself, so a slip in that
conversion moves one verdict, not both.

The derivation property is checked on the generators x_i and e_a only, so
`check_gerstenhaber_derivation` takes each bracket as the case of
`forms.graded_bracket` with one generator side, from the same operators of
`forms.Calculus` (which holds the sign and sort conventions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .algebroid import (
    CheckReport,
    LieAlgebroid,
    Section,
    axiom_gate,
    check_morphism_to_line,
    component_violations,
    cotangent_prolongation,
    run_oracle,
)
from .errors import AlgebroidError
from .forms import Calculus, Minors, Multivector, add_scaled, add_wedge, collect
from .linforms import TotalChart, cross_check_frame_values, linear_shape, total_chart_of
from .poly import ChartError, Polynomial


def is_linear_multivector(p: Multivector, tc: TotalChart) -> bool:
    """Shape test: every term has no base direction and a coefficient of
    fiber-degree one, or exactly one base direction and a fiber-free
    coefficient."""
    if p.chart != tc.chart:
        raise ChartError("multivector does not live on the given total chart")
    return linear_shape(p, tc, range(tc.base_chart.dim))


@dataclass(frozen=True)
class LinearMultivector:
    """Canonical (fiber, mixed) coefficient tables of a linear k-vector field.

    fiber[(B, d)] with B a strictly increasing frame-index k-tuple is the
    coefficient of the fiber coordinate d in the pure-fiber wedge B;
    mixed[(B', j)] with B' of length k-1 is the coefficient of the wedge
    B' followed by the j-th base direction.  All values live on the base
    chart.
    """

    algebroid: LieAlgebroid
    k: int
    fiber: Mapping
    mixed: Mapping

    def __post_init__(self):
        A = self.algebroid
        for kind, length, bound in (("fiber", self.k, A.rank),
                                    ("mixed", self.k - 1, A.base_chart.dim)):
            table = {}
            for (b_tuple, i), poly in getattr(self, kind).items():
                b_tuple = tuple(b_tuple)
                if len(b_tuple) != length or any(x >= y for x, y in zip(b_tuple, b_tuple[1:])):
                    raise AlgebroidError(f"bad {kind} wedge index {b_tuple}")
                if not (0 <= i < bound) or any(not 0 <= b < A.rank for b in b_tuple):
                    raise AlgebroidError(f"{kind} table index out of range")
                if poly.chart != A.base_chart:
                    raise ChartError(f"{kind} coefficients must live on the base chart")
                if not poly.is_zero():
                    table[(b_tuple, i)] = poly
            object.__setattr__(self, kind, table)

    def to_multivector(self, tc: TotalChart) -> Multivector:
        """The actual k-vector field on the total chart."""
        chart = tc.chart
        fiber_pos = tc.fiber_positions()
        sign = 1 if (self.k - 1) % 2 == 0 else -1
        table: dict = {}
        for (b_tuple, d), poly in self.fiber.items():
            key = tuple(fiber_pos[b] for b in b_tuple)
            u = Polynomial.variable(chart, tc.fiber_names[d])
            cur = table.get(key, Polynomial.zero(chart))
            table[key] = cur + poly.promote(chart) * u
        for (b_tuple, j), poly in self.mixed.items():
            # base directions sort before fiber ones; moving the base factor
            # to the front across k-1 fiber factors costs (-1)^(k-1)
            key = (j,) + tuple(fiber_pos[b] for b in b_tuple)
            cur = table.get(key, Polynomial.zero(chart))
            table[key] = cur + poly.promote(chart) * sign
        return Multivector(chart, self.k, table)

    @classmethod
    def from_multivector(cls, p: Multivector, algebroid: LieAlgebroid) -> "LinearMultivector":
        tc = total_chart_of(algebroid)
        if not is_linear_multivector(p, tc):
            raise AlgebroidError("multivector does not have the linear shape")
        pos_to_frame = {pos: d for d, pos in enumerate(tc.fiber_positions())}
        sign = 1 if (p.degree - 1) % 2 == 0 else -1
        fiber: dict = {}
        mixed: dict = {}
        for idx, poly in p.coeffs.items():
            base_part = [i for i in idx if i not in pos_to_frame]
            if not base_part:
                b_tuple = tuple(pos_to_frame[i] for i in idx)
                for d, part in tc.fiber_partials(poly):
                    fiber[(b_tuple, d)] = part
            else:
                b_tuple = tuple(pos_to_frame[i] for i in idx if i in pos_to_frame)
                mixed[(b_tuple, base_part[0])] = tc.at_zero(poly) * sign
        return cls(algebroid, p.degree, fiber, mixed)


@dataclass(frozen=True)
class Derivation:
    """Degree-(k-1) derivation of the exterior algebra of sections, stored by
    its action on base coordinates (wedge degree k-1) and on the frame
    (wedge degree k); the action elsewhere follows from the Leibniz rules."""

    algebroid: LieAlgebroid
    k: int
    on_coord: Mapping   # coordinate name -> Section of degree k-1
    on_frame: Mapping   # frame name -> Section of degree k

    def __post_init__(self):
        A = self.algebroid
        missing = [n for n in A.base_chart.names if n not in self.on_coord]
        if missing or set(self.on_coord) != set(A.base_chart.names):
            raise AlgebroidError("need the action on every base coordinate exactly")
        if set(self.on_frame) != set(A.frame_names):
            raise AlgebroidError("need the action on every frame section exactly")
        for s in self.on_coord.values():
            if s.degree != self.k - 1 or s.algebroid != A:
                raise AlgebroidError("coordinate actions must be degree k-1 sections")
        for s in self.on_frame.values():
            if s.degree != self.k or s.algebroid != A:
                raise AlgebroidError("frame actions must be degree k sections")
        object.__setattr__(self, "on_coord", dict(self.on_coord))
        object.__setattr__(self, "on_frame", dict(self.on_frame))

    def coord_action(self, j: int) -> Section:
        return self.on_coord[self.algebroid.base_chart.names[j]]

    def frame_action(self, a: int) -> Section:
        return self.on_frame[self.algebroid.frame_names[a]]


def derivation_from_linear(p: LinearMultivector) -> Derivation:
    """The derivation of a linear multivector: coordinate actions read the
    mixed table, frame actions the negated fiber table."""
    A = p.algebroid
    on_coord = {}
    for j, name in enumerate(A.base_chart.names):
        comps = {b_tuple: poly for (b_tuple, jj), poly in p.mixed.items() if jj == j}
        on_coord[name] = Section(A, p.k - 1, comps)
    on_frame = {}
    for a, name in enumerate(A.frame_names):
        comps = {b_tuple: -poly for (b_tuple, d), poly in p.fiber.items() if d == a}
        on_frame[name] = Section(A, p.k, comps)
    return Derivation(A, p.k, on_coord, on_frame)


def linear_from_derivation(d: Derivation) -> LinearMultivector:
    """Inverse of `derivation_from_linear`; the two are mutually inverse."""
    A = d.algebroid
    fiber = {}
    for a in range(A.rank):
        for b_tuple, poly in d.frame_action(a).coeffs.items():
            fiber[(b_tuple, a)] = -poly
    mixed = {}
    for j in range(A.base_chart.dim):
        for b_tuple, poly in d.coord_action(j).coeffs.items():
            mixed[(b_tuple, j)] = poly
    return LinearMultivector(A, d.k, fiber, mixed)


def check_gerstenhaber_derivation(d: Derivation) -> CheckReport:
    """The reduced generator conditions for being a bracket derivation.

    R1 over base-coordinate pairs i < j, R2 over all (coordinate, frame)
    pairs, R3 over frame pairs a < b; together with the exterior-algebra
    Leibniz rules these imply the derivation property on all wedge sections.
    Includes the axiom gate for unchecked algebroids.

    One side of every bracket is a generator, so each is a case of
    `forms.graded_bracket` (P = sum f_T e_T of degree p, Q = sum g_S e_S,
    positions s and m 1-based, sigma = (-1)^(k-1)):

        [P, x_j] = sum_T sum_s (-1)^(p-s) f_T rho^j_{t_s} e_{T minus t_s}
                 = (-1)^p [x_j, P]
        [x_i, Q] = sum_S sum_m (-1)^m g_S rho^i_{S_m} e_{S minus S_m}
        [P, e_b] = sum_T (f_T sum_s e_t1 ^ .. [e_ts, e_b] .. ^ e_tp - rho_b(f_T) e_T)
        [e_a, Q] = sum_S (rho_a(g_S) e_S + g_S sum_m e_S1 ^ .. [e_a, e_Sm] .. ^ e_Sq)
                 = -[Q, e_a]

    and with delta(f) = sum_j (df/dx_j) delta x_j the residuals are

        R1(i, j) = [delta x_i, x_j] + sigma [x_i, delta x_j]
        R2(i, b) = -delta(rho_b^i) - [delta x_i, e_b] - sigma [x_i, delta e_b]
        R3(a, b) = sum_c (delta(C_ab^c) ^ e_c + C_ab^c delta e_c)
                   - [delta e_a, e_b] - [e_a, delta e_b].

    Only [x_i, Q] and [P, e_b] are built, by the operators of one
    `forms.Calculus` of this call: [x_i, Q] is minus the contraction of Q by
    the anchor column i, and [P, e_b] the derivation of P with coefficient
    action -rho_b and rows [e_t, e_b] (`LieAlgebroid.frame_derivation`).
    The other two follow by graded antisymmetry.  Every term is a product
    of two base polynomials, so each residual is one `collect` over
    (polynomial, weight) pairs grouped by output index, and each polynomial
    is differentiated and negated at most once per call.
    """
    A = d.algebroid
    violations = list(axiom_gate(A))
    notes = []
    if violations:
        notes.append("algebroid axioms fail; derivation verdicts reported on non-Lie data")
    chart = A.base_chart
    names = chart.names
    k = d.k
    sign = -1 if (k - 1) % 2 else 1
    coord = [d.coord_action(j).coeffs for j in range(chart.dim)]
    frame = [d.frame_action(a).coeffs for a in range(A.rank)]
    ops = Calculus(chart)
    columns = A.anchor_columns
    right = [A.frame_derivation(b, ops) for b in range(A.rank)]

    def scalar(groups: dict, f: Polynomial, s: int, tail: tuple = ()) -> None:
        """Add s * delta(f) ^ e_tail."""
        for j in range(chart.dim):
            df = ops.partial(f, j)
            if not df.is_zero():
                add_wedge(groups, coord[j], ops.pm(df), s, tail=tail)

    def report(tag: str, witness: tuple, degree: int, groups: dict) -> None:
        table = collect(groups)
        if table:
            res = Section.zero(A, degree)._like(table)
            violations.extend(component_violations(tag, witness, res))

    # [delta x_i, x_j] = sigma [x_j, delta x_i], degree k-1 into k-2
    for i in range(chart.dim):
        for j in range(i + 1, chart.dim):
            groups: dict = {}
            ops.add_contract(groups, columns[j], coord[i], -sign)
            ops.add_contract(groups, columns[i], coord[j], -sign)
            report("R1", (names[i], names[j]), max(k - 2, 0), groups)

    for i in range(chart.dim):
        for b in range(A.rank):
            # delta[x_i, e_b] = -delta(rho_b^i), by the scalar action rule
            groups = {}
            scalar(groups, A.anchor[b][i], -1)
            ops.add_derivation(groups, coord[i], *right[b], -1)
            ops.add_contract(groups, columns[i], frame[b], sign)
            report("R2", (names[i], A.frame_names[b]), k - 1, groups)

    # [e_a, delta e_b] = -[delta e_b, e_a]
    for a in range(A.rank):
        for b in range(a + 1, A.rank):
            groups = {}
            for c, w in A.bracket_frame_row(a, b):
                scalar(groups, w, 1, (c,))
                add_scaled(groups, frame[c], w)
            ops.add_derivation(groups, frame[a], *right[b], -1)
            ops.add_derivation(groups, frame[b], *right[a], 1)
            report("R3", (A.frame_names[a], A.frame_names[b]), k, groups)
    return CheckReport.collect(violations, notes)


# ---------------------------------------------------------------------------
# frame values on the cotangent prolongation
# ---------------------------------------------------------------------------

def multivector_frame_functional(p: LinearMultivector) -> tuple:
    """(prolongation, values): the k-fold cotangent prolongation, which
    this builds, and the values of the induced fiberwise functional on its
    frame, in frame order.

    Core value (coordinate j, copy m): (-1)^(k-m) times the pairing of the
    mixed coefficients along the j-th base direction (the coordinate action
    of the derivation) with the dual copies omitting the m-th; linear value
    a: the pairing of the fiber coefficients of fiber coordinate a (minus
    the frame action) with all dual copies.  Cross-checked by
    `cross_check_frame_values`, which contracts the multivector with the
    explicit frame covectors; disagreement raises CrossCheckError.
    """
    A, k = p.algebroid, p.k
    prol = cotangent_prolongation(A, k)
    chart = prol.base_chart
    base = A.base_chart

    # the dual copies as rows over frame indices, in a table of this call
    xi = Minors([dict(enumerate(y)) for y in prol._copy_layout.variables(chart)], chart)
    # each coefficient promoted once, by the index its values are read by
    mixed = [{} for _ in range(base.dim)]
    for (b_tuple, j), poly in p.mixed.items():
        mixed[j][b_tuple] = poly.promote(chart)
    fiber = [{} for _ in range(A.rank)]
    for (b_tuple, a), poly in p.fiber.items():
        fiber[a][b_tuple] = poly.promote(chart)

    # copy by copy the cores, one per base coordinate, then the linear sections
    values = []
    for m in range(1, k + 1):
        ids = tuple(l for l in range(k) if l != m - 1)
        for j in range(base.dim):
            val = xi.contract(mixed[j], ids)
            values.append(val if (k - m) % 2 == 0 else -val)
    values += [xi.contract(fiber[a], tuple(range(k))) for a in range(A.rank)]

    tc = total_chart_of(A)
    cross_check_frame_values(p.to_multivector(tc), tc, prol,
                             tc.fiber_positions(), range(base.dim), values)
    return prol, tuple(values)


def derivation_routes(p: LinearMultivector) -> dict:
    """The two routes of the dual equivalence, for `run_oracle`.

    Route one checks the reduced generator conditions of the derivation;
    route two checks the morphism condition of the induced functional on the
    cotangent prolongation.
    """
    return {"derivation": lambda: check_gerstenhaber_derivation(derivation_from_linear(p)),
            "morphism": lambda: check_morphism_to_line(*multivector_frame_functional(p))}


def oracle_equivalence_dual(p: LinearMultivector) -> tuple:
    """Both verdicts of the dual equivalence: (bracket derivation, morphism).

    The routes are those of `derivation_routes`, both gated on the algebroid
    axioms; they must agree, and disagreement raises OracleDisagreement.
    """
    verdicts = run_oracle(p.algebroid, derivation_routes(p)).verdicts
    return verdicts["derivation"], verdicts["morphism"]
