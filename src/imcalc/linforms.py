"""Linear differential forms on the total space of a vector bundle.

The total space of a bundle with frame e_1..e_r over a base chart is the
chart extended by one fiber coordinate per frame section.  A k-form on it is
*linear* when every term either has a coefficient that is homogeneous of
degree one in the fiber coordinates and no fiber differentials, or a
fiber-independent coefficient and exactly one fiber differential.  (The
definitional source is the bundle-morphism property of the induced contraction
map; the coordinate shape above is the equivalent test implemented here.)

Every linear k-form splits uniquely as

    L  =  d(fiber_pairing_form(mu))  +  fiber_pairing_form(nu)

for bundle maps mu (into (k-1)-forms) and nu (into k-forms) on the base;
`decompose` inverts this exactly.  The same machinery provides the frame
values of the induced fiberwise-linear functional on the tangent
prolongation, computed by closed formulas and cross-checked against direct
contraction with the explicit frame tangent vectors.  That cross-check,
`cross_check_frame_values`, is the one for both prolongations: the
multivector functional on the cotangent prolongation calls it with the base
and fiber positions transposed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .algebroid import LieAlgebroid, tangent_prolongation
from .errors import AlgebroidError, CrossCheckError
from .forms import (
    Alternating,
    DifferentialForm,
    Minors,
    add_scaled,
    collect,
    exterior_derivative,
)
from .poly import Chart, ChartError, Coord, Polynomial

if TYPE_CHECKING:  # imforms imports this module
    from .imforms import IMForm


class NotLinearError(ValueError):
    """Input form does not have the linear coordinate shape."""


@dataclass(frozen=True)
class TotalChart:
    """Chart of a bundle total space, with its base/fiber bookkeeping."""

    chart: Chart
    base_chart: Chart
    frame_names: tuple
    fiber_names: tuple

    @property
    def rank(self) -> int:
        return len(self.frame_names)

    def fiber_positions(self) -> tuple:
        return tuple(self.chart.index(n) for n in self.fiber_names)

    def at_zero(self, poly: Polynomial) -> Polynomial:
        """`poly` on the zero section, as a polynomial on the base chart."""
        return poly.partial_eval(dict.fromkeys(self.fiber_names, 0), self.base_chart)

    def fiber_partials(self, poly: Polynomial):
        """(d, the u_d-partial of `poly` on the zero section) for each
        fiber coordinate u_d with a nonzero partial."""
        for d, name in enumerate(self.fiber_names):
            part = poly.diff(name)
            if not part.is_zero():
                yield d, self.at_zero(part)


def total_chart(base: Chart, frame_names: Sequence[str]) -> TotalChart:
    """Total-space chart with fiber coordinates u1..uR."""
    frame_names = tuple(frame_names)
    fiber = tuple(f"u{d + 1}" for d in range(len(frame_names)))
    chart = Chart(f"{base.name}|u",
                  base.coords + tuple(Coord(n, base=False) for n in fiber))
    return TotalChart(chart, base, frame_names, fiber)


def total_chart_of(algebroid: LieAlgebroid) -> TotalChart:
    return total_chart(algebroid.base_chart, algebroid.frame_names)


@dataclass(frozen=True)
class BundleForms:
    """The (mu, nu) data of a linear k-form: one (k-1)-form and one k-form
    on the base per frame section."""

    k: int
    mu: tuple
    nu: tuple

    def __post_init__(self):
        if len(self.mu) != len(self.nu):
            raise AlgebroidError("mu and nu need one entry per frame section")
        for f in self.mu:
            if f.degree != self.k - 1:
                raise AlgebroidError(f"mu entries must have degree {self.k - 1}")
        for f in self.nu:
            if f.degree != self.k:
                raise AlgebroidError(f"nu entries must have degree {self.k}")
        charts = {f.chart for f in self.mu} | {f.chart for f in self.nu}
        if len(charts) > 1:
            raise ChartError("all bundle forms must live on one base chart")

    @property
    def rank(self) -> int:
        return len(self.mu)


def fiber_pairing_form(maps: Sequence[DifferentialForm], tc: TotalChart,
                       degree: int) -> DifferentialForm:
    """The degree-`degree` form sum_d u^d * maps[d], pairing a bundle map into
    forms with the tautological fiber point; no fiber differentials.  `maps`
    is empty at rank 0, so the caller, who knows k, gives the degree.

    Every coefficient is one `collect`ed sum over the frame sections, so no
    partial total is copied once per section."""
    if len(maps) != tc.rank:
        raise AlgebroidError("need one form per frame section")
    groups: dict = {}
    for name, form in zip(tc.fiber_names, maps):
        if form.degree != degree:
            raise AlgebroidError("all maps must have one common degree")
        add_scaled(groups, form.promote(tc.chart).coeffs, Polynomial.variable(tc.chart, name))
    return DifferentialForm(tc.chart, degree)._like(collect(groups))


def linear_form(bundle_forms: BundleForms, tc: TotalChart) -> DifferentialForm:
    """The linear k-form d(pairing of mu) + pairing of nu."""
    mu, nu, k = bundle_forms.mu, bundle_forms.nu, bundle_forms.k
    return exterior_derivative(fiber_pairing_form(mu, tc, k - 1)) + fiber_pairing_form(nu, tc, k)


def linear_shape(table: Alternating, tc: TotalChart, once) -> bool:
    """The coordinate shape of linearity, shared by forms and multivectors.

    Each stored term must carry no index in `once` and a coefficient
    homogeneous of fiber-degree one, or exactly one index in `once` and a
    fiber-independent coefficient.  For a form `once` is the fiber positions
    (its fiber differentials), for a multivector the base positions.
    """
    once = set(once)
    fiber_pos = tc.fiber_positions()
    for idx, poly in table.coeffs.items():
        hits = sum(1 for i in idx if i in once)
        if hits >= 2:
            return False
        for exps in poly.terms:
            if sum(exps[i] for i in fiber_pos) != 1 - hits:
                return False
    return True


def is_linear(form: DifferentialForm, tc: TotalChart) -> bool:
    """Coordinate-shape test for linearity: each stored term is
    fiber-differential-free with a coefficient homogeneous of fiber-degree
    one, or carries exactly one fiber differential with a fiber-independent
    coefficient."""
    if form.chart != tc.chart:
        raise ChartError("form does not live on the given total chart")
    return linear_shape(form, tc, tc.fiber_positions())


def decompose(form: DifferentialForm, tc: TotalChart) -> BundleForms:
    """Invert L = d(pairing mu) + pairing nu for a linear form, exactly.

    mu carries the sign (-1)^(k-1) relative to the raw fiber-differential
    coefficients, so that the roundtrip with `linear_form` is the identity;
    the sign never escapes this module.  d(pairing mu) is built once: nu is
    read from `form` minus it, and the roundtrip adds pairing nu back to it
    and compares with `form` as polynomials.  So a returned (mu, nu) has
    `linear_form` equal to `form` exactly, and a caller holding `form` need
    not build that linear form again.
    """
    if not is_linear(form, tc):
        raise NotLinearError("decompose needs a linear form")
    k = form.degree
    base = tc.base_chart
    pos_to_frame = {p: d for d, p in enumerate(tc.fiber_positions())}
    sign = 1 if (k - 1) % 2 == 0 else -1

    mu_tables: list = [dict() for _ in range(tc.rank)]
    for idx, poly in form.coeffs.items():
        du = [i for i in idx if i in pos_to_frame]
        if len(du) != 1:
            continue
        base_idx = tuple(i for i in idx if i not in pos_to_frame)
        # fiber coordinates sort after base ones, so no reordering sign
        mu_tables[pos_to_frame[du[0]]][base_idx] = tc.at_zero(poly) * sign
    mu = tuple(DifferentialForm(base, k - 1, t) for t in mu_tables)

    d_pairing = exterior_derivative(fiber_pairing_form(mu, tc, k - 1))
    remainder = form - d_pairing
    nu_tables: list = [dict() for _ in range(tc.rank)]
    for idx, poly in remainder.coeffs.items():
        if any(i in pos_to_frame for i in idx):
            raise CrossCheckError("decompose remainder is not a pure pairing form")
        for d, part in tc.fiber_partials(poly):
            nu_tables[d][idx] = part
    nu = tuple(DifferentialForm(base, k, t) for t in nu_tables)

    if d_pairing + fiber_pairing_form(nu, tc, k) != form:
        raise CrossCheckError("decompose roundtrip failed")
    return BundleForms(k, mu, nu)


# ---------------------------------------------------------------------------
# frame values on the tangent prolongation
# ---------------------------------------------------------------------------

def form_frame_functional(im: IMForm, linear: DifferentialForm | None = None) -> tuple:
    """(prolongation, values): the k-fold tangent prolongation, which this
    builds, and the values of the induced fiberwise-linear functional of the
    candidate `im` on its frame, in frame order.

    With (mu, nu) = `im.forms` and U_1..U_k the tautological dotted fields
    U_m = sum_i y_m^i d/dx_i, every value is read from the minors of the
    dotted rows {i: y_m^i}, in one table of this call:

        core (a, n):  F(a, n) = (-1)^(n-1) mu_a(U_1, .., U_n omitted, .., U_k)
        linear a:     sum_{n, i} y_n^i dF(a, n)/dx_i + nu_a(U_1, .., U_k)

    The linear value is (d mu_a + nu_a)(U_1, .., U_k) by the invariant
    formula for d, whose bracket terms vanish because the U_m commute, so
    this route takes no d.  `cross_check_frame_values` recomputes the same
    values by contracting the linear form of `im.forms` directly against the
    explicit coordinate tangent vectors of the frame sections; disagreement
    raises CrossCheckError.  That linear form is `linear` when the caller
    holds it, as Weil mode does: `decompose` returned `im.forms` only after
    checking that their linear form equals the candidate as polynomials, so
    contracting the candidate is exact.  Otherwise this call builds it once.
    """
    algebroid, bundle_forms, k = im.algebroid, im.forms, im.k
    prol = tangent_prolongation(algebroid, k)
    chart = prol.base_chart
    # the base coordinates come first on the chart, so a base form's indices
    # count chart coordinates too
    dotted = prol._copy_layout.variables(chart)
    rows = Minors([dict(enumerate(y)) for y in dotted], chart)
    copies = tuple(range(k))

    # core a of copy n at (n-1)*r + a, linear a at k*r + a (`CopyLayout`)
    r = algebroid.rank
    values = [None] * prol.rank
    for a in range(r):
        mu_a = bundle_forms.mu[a].promote(chart).coeffs
        pairs = []
        for n in range(1, k + 1):
            core = rows.contract(mu_a, copies[:n - 1] + copies[n:])
            if (n - 1) % 2:
                core = -core
            values[(n - 1) * r + a] = core
            for y, name in zip(dotted[n - 1], algebroid.base_chart.names):
                part = core.diff(name)
                if not part.is_zero():
                    pairs.append((y, part))
        pairs += [(coeff, rows.minors(copies, idx))
                  for idx, coeff in bundle_forms.nu[a].promote(chart).coeffs.items()]
        values[k * r + a] = Polynomial.sum_of_products(chart, pairs)

    tc = total_chart_of(algebroid)
    if linear is None:
        linear = linear_form(bundle_forms, tc)
    cross_check_frame_values(linear, tc, prol,
                             range(tc.base_chart.dim), tc.fiber_positions(), values)
    return prol, tuple(values)


def cross_check_frame_values(table: Alternating, tc: TotalChart, prol: LieAlgebroid,
                             rows_at: Sequence[int], units_at: Sequence[int],
                             values: Sequence[Polynomial]) -> None:
    """Contract a linear form or multivector on `tc` directly against the
    explicit frame vectors of its prolongation `prol`, and raise
    CrossCheckError, naming the frame section, on the first frame value
    that differs from `values`, which are in frame order.

    Copy m's row holds its coordinate y_m^l at position rows_at[l] of `tc`.
    The frame of `prol` is walked in the order `_prolongation` placed it:
    first the cores copy by copy, core c of copy m reading the rows
    with a unit added at (m, units_at[c]), which `Minors.contract` takes by
    linearity, against the coefficients at the zero fiber point; then the
    linear sections, the a-th reading the plain rows against the
    coefficients at u_a = 1.  A form passes (base positions, fiber
    positions), a multivector the transpose.  Each coefficient is split into
    its values at all of these points in one walk over its terms
    (`Polynomial.unit_restrictions`).
    """
    chart = prol.base_chart
    layout = prol._copy_layout
    rows = Minors([dict(zip(rows_at, y)) for y in layout.variables(chart)], chart)
    ids = tuple(range(layout.k))
    points = [{} for _ in range(tc.rank + 1)]
    for idx, poly in table.coeffs.items():
        for coeffs, coeff in zip(points, poly.unit_restrictions(tc.fiber_names, chart)):
            if not coeff.is_zero():
                coeffs[idx] = coeff
    at_zero, *at_units = points
    reads = [(at_zero, (m, i)) for m in ids for i in units_at]
    reads += [(coeffs, None) for coeffs in at_units]
    for name, value, (coeffs, unit) in zip(prol.frame_names, values, reads):
        if rows.contract(coeffs, ids, unit) != value:
            raise CrossCheckError(f"frame value mismatch on {name}")
