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
`decompose` inverts this exactly.  The same machinery provides the tangent
lift of base forms and the frame values of the induced fiberwise-linear
functional on the tangent prolongation, computed by closed formulas and
cross-checked against direct contraction with the explicit frame tangent
vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .algebroid import (
    FiberFunctional,
    LieAlgebroid,
    core_frame_name,
    linear_frame_name,
    tangent_copy_name,
    tangent_prolongation,
)
from .errors import AlgebroidError, CrossCheckError
from .forms import (
    Alternating,
    DifferentialForm,
    Minors,
    VectorField,
    contract,
    exterior_derivative,
    iterated_contract,
)
from .poly import Chart, ChartError, Coord, Polynomial, ROLE_FIBER


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


def total_chart(base: Chart, frame_names: Sequence[str], prefix: str = "u") -> TotalChart:
    """Total-space chart with fiber coordinates prefix1..prefixR."""
    frame_names = tuple(frame_names)
    fiber = tuple(f"{prefix}{d + 1}" for d in range(len(frame_names)))
    chart = Chart(f"{base.name}|{prefix}",
                  base.coords + tuple(Coord(n, ROLE_FIBER) for n in fiber))
    return TotalChart(chart, base, frame_names, fiber)


def total_chart_of(algebroid: LieAlgebroid) -> TotalChart:
    return total_chart(algebroid.base_chart, algebroid.frame_names)


def tangent_total_chart(base: Chart) -> TotalChart:
    """Total space of the tangent bundle; the frame is the coordinate frame."""
    fiber = tuple(f"{n}_dot" for n in base.names)
    chart = Chart(f"{base.name}|tan",
                  base.coords + tuple(Coord(n, ROLE_FIBER) for n in fiber))
    return TotalChart(chart, base, tuple(f"@{n}" for n in base.names), fiber)


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
    is empty at rank 0, so the caller, who knows k, gives the degree."""
    if len(maps) != tc.rank:
        raise AlgebroidError("need one form per frame section")
    total = DifferentialForm(tc.chart, degree)
    for name, form in zip(tc.fiber_names, maps):
        if form.degree != degree:
            raise AlgebroidError("all maps must have one common degree")
        u = Polynomial.variable(tc.chart, name)
        total = total + form.promote(tc.chart).scale(u)
    return total


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
    the sign never escapes this module.
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

    remainder = form - exterior_derivative(fiber_pairing_form(mu, tc, k - 1))
    nu_tables: list = [dict() for _ in range(tc.rank)]
    for idx, poly in remainder.coeffs.items():
        if any(i in pos_to_frame for i in idx):
            raise CrossCheckError("decompose remainder is not a pure pairing form")
        for d, part in tc.fiber_partials(poly):
            nu_tables[d][idx] = part
    nu = tuple(DifferentialForm(base, k, t) for t in nu_tables)

    result = BundleForms(k, mu, nu)
    if linear_form(result, tc) != form:
        raise CrossCheckError("decompose roundtrip failed")
    return result


# ---------------------------------------------------------------------------
# tangent lifts
# ---------------------------------------------------------------------------

def fiber_contraction(beta: DifferentialForm, base: Chart) -> DifferentialForm:
    """The (l-1)-form on the tangent total space pairing a point with a base
    l-form: at the tangent vector X it is the pullback of i_X beta.

    Concretely the pairing form of the bundle map X -> i_X beta.
    """
    if beta.degree < 1:
        raise ValueError("fiber_contraction needs a form of degree >= 1")
    if beta.chart != base:
        raise ChartError("form does not live on the given base chart")
    tc = tangent_total_chart(base)
    maps = [contract(VectorField.coordinate(base, n), beta) for n in base.names]
    return fiber_pairing_form(maps, tc, beta.degree - 1)


def tangent_lift(alpha: DifferentialForm, base: Chart) -> DifferentialForm:
    """Tangent lift to the tangent total space via the Cartan-like formula
    d(fiber_contraction(alpha)) + fiber_contraction(d alpha)."""
    if alpha.chart != base:
        raise ChartError("form does not live on the given base chart")
    d_alpha = exterior_derivative(alpha)
    lifted = fiber_contraction(d_alpha, base) if d_alpha.degree >= 1 else None
    if alpha.degree >= 1:
        part = exterior_derivative(fiber_contraction(alpha, base))
        return part + lifted if lifted is not None else part
    return lifted if lifted is not None else DifferentialForm(tangent_total_chart(base).chart, 0)


def tangent_lift_involution_residual(alpha: DifferentialForm, base: Chart,
                                     sample: Mapping) -> Fraction:
    """Difference of the two characterizations of the tangent lift at a point.

    Side one contracts the lifted form with k tangent vectors of the tangent
    space; side two differentiates the induced function of the base form on
    the k-fold tangent sum and precomposes with the canonical involution
    swap (x, xdot, dx, dxdot) -> (x, dx, xdot, dxdot).  `sample` assigns
    rationals to x[name], xdot[name], dx[l][name], dxdot[l][name].

    Both sides are polynomials of total degree at most deg(alpha
    coefficients) + k + 1 in the sampled values, so by the Schwartz-Zippel
    bound a random rational sample from an N-point set per coordinate catches
    a nonzero difference with probability at least 1 - degree/N; the suite
    draws 20 independent samples with N about 2e6, making the miss
    probability below (degree/N)^20 per case.
    """
    k = alpha.degree
    names = base.names
    x = {n: Fraction(sample["x"][n]) for n in names}
    xdot = {n: Fraction(sample["xdot"][n]) for n in names}
    dx = [dict(sample["dx"][l]) for l in range(k)]
    dxdot = [dict(sample["dxdot"][l]) for l in range(k)]

    tc = tangent_total_chart(base)
    lifted = tangent_lift(alpha, base)
    point = dict(x)
    point.update({f"{n}_dot": xdot[n] for n in names})
    # the l-th tangent vector of the tangent space has components dx[l]
    # along the base and dxdot[l] along the dotted coordinates
    rows = [{i: Polynomial.const(tc.chart, dxdot[l][name[:-4]] if name.endswith("_dot")
                                 else dx[l][name])
             for i, name in enumerate(tc.chart.names)} for l in range(k)]
    lhs = Minors(rows, tc.chart).contract(lifted.coeffs, tuple(range(k))).eval(point)

    sum_chart = Chart(f"{base.name}|sum{k}", tuple(
        list(base.coords)
        + [Coord(tangent_copy_name(n, l + 1), ROLE_FIBER) for l in range(k) for n in names]))
    taut = [VectorField(sum_chart, {
        (sum_chart.index(n),): Polynomial.variable(sum_chart, tangent_copy_name(n, l + 1))
        for n in names})
        for l in range(k)]
    induced = iterated_contract(taut, alpha.promote(sum_chart)).scalar()
    base_point = dict(x)
    for l in range(k):
        for n in names:
            base_point[tangent_copy_name(n, l + 1)] = Fraction(dx[l][n])
    rhs = Fraction(0)
    for n in names:
        rhs += induced.diff(n).eval(base_point) * xdot[n]
    for l in range(k):
        for n in names:
            rhs += induced.diff(tangent_copy_name(n, l + 1)).eval(base_point) \
                * Fraction(dxdot[l][n])
    return lhs - rhs


# ---------------------------------------------------------------------------
# frame values on the tangent prolongation
# ---------------------------------------------------------------------------

def form_frame_functional(form: DifferentialForm, algebroid: LieAlgebroid, k: int,
                          bundle_forms: BundleForms | None = None) -> FiberFunctional:
    """Values of the induced fiberwise-linear functional on the distinguished
    frame of the k-fold tangent prolongation, which it builds and attaches.

    Core value (a, n): (-1)^(n-1) times mu(e_a) contracted with every
    tautological dotted field except the n-th; linear value a: d mu(e_a) +
    nu(e_a) contracted with all of them.  (mu, nu) is `bundle_forms` when
    the caller already holds the decomposition of `form`, else
    `decompose(form)`.  The same values are recomputed by contracting the
    form directly against the explicit coordinate tangent vectors of the
    frame sections; disagreement raises CrossCheckError, also when
    `bundle_forms` is not the decomposition of `form`.
    """
    tc = total_chart_of(algebroid)
    if form.chart != tc.chart:
        raise ChartError("form must live on the algebroid's total chart")
    if form.degree != k:
        raise AlgebroidError(f"form degree {form.degree} does not match k={k}")
    if bundle_forms is None:
        bundle_forms = decompose(form, tc)
    prol = tangent_prolongation(algebroid, k)
    chart = prol.base_chart

    # the dotted coordinates of each copy, along the base coordinates, which
    # come first on the chart
    taut = [VectorField(chart, {(i,): x for i, x in enumerate(dotted)})
            for dotted in prol._copy_layout.variables(chart)]

    values: dict = {}
    for a, frame in enumerate(algebroid.frame_names):
        mu_a = bundle_forms.mu[a].promote(chart)
        for n in range(1, k + 1):
            fields = taut[:n - 1] + taut[n:]
            val = iterated_contract(fields, mu_a).scalar()
            if (n - 1) % 2:
                val = -val
            values[core_frame_name(frame, n)] = val
        full = exterior_derivative(bundle_forms.mu[a]) + bundle_forms.nu[a]
        values[linear_frame_name(frame)] = iterated_contract(taut, full.promote(chart)).scalar()

    _cross_check_form_values(form, algebroid, k, tc, prol, values)
    return FiberFunctional(prol, values)


def _cross_check_form_values(form, algebroid, k, tc, prol, values) -> None:
    """Contract the form against the explicit frame tangent vectors: the
    dotted rows, the n-th of them also moving one unit along the fiber of
    e_a for the core value (a, n)."""
    fiber_pos = tc.fiber_positions()
    chart = prol.base_chart
    dotted = Minors([{tc.chart.index(n): y[i] for i, n in enumerate(algebroid.base_chart.names)}
                     for y in prol._copy_layout.variables(chart)], chart)
    cores = [(core_frame_name(frame, n), (n - 1, fiber_pos[a]))
             for a, frame in enumerate(algebroid.frame_names) for n in range(1, k + 1)]
    cross_check_frame_values(form, tc, dotted, cores,
                             [linear_frame_name(f) for f in algebroid.frame_names], values)


def cross_check_frame_values(table: Alternating, tc: TotalChart, rows: Minors,
                             cores, linears, values: Mapping) -> None:
    """Contract a linear form or multivector on `tc` directly against the
    frame vectors `rows`, and raise CrossCheckError on the first frame value
    that differs from `values`.

    A core value (name, unit) reads the rows with `unit` = (row, column)
    added, which `Minors.contract` takes by linearity, against the
    coefficients at the zero fiber point; the a-th name of `linears` reads
    the plain rows against the coefficients at u_a = 1.  Each coefficient is
    restricted to each of these points once.
    """
    ids = tuple(range(len(rows.rows)))
    zero = dict.fromkeys(tc.fiber_names, 0)

    def restrict(point: dict) -> dict:
        out = {}
        for idx, poly in table.coeffs.items():
            coeff = poly.partial_eval(point, tc.base_chart).promote(rows.chart)
            if not coeff.is_zero():
                out[idx] = coeff
        return out

    def check(name: str, coeffs: dict, unit=None) -> None:
        if rows.contract(coeffs, ids, unit) != values[name]:
            raise CrossCheckError(f"frame value mismatch on {name}")

    at_zero = restrict(zero)
    for name, unit in cores:
        check(name, at_zero, unit)
    for name, u in zip(linears, tc.fiber_names):
        check(name, restrict({**zero, u: 1}))
