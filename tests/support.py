"""Named examples and test batteries that check the library from the outside.

The named examples are the algebroids and candidates the suite builds on:
the rotation algebra over a point, the tangent and trivial cotangent
algebroids of the plane, Koszul algebroids of bivectors (built by
`imcalc.fixtures.koszul_algebroid`), two deliberately broken variants and
the IM forms on them.  Each battery is a second route to a fact the library
computes, or a consequence of one: the tangent lift against the canonical
involution, the relative family of IM forms, the Weil-cochain
correspondence of linear forms and its vertical differential, the twisted
bracket and the span closure of graph-of-bivector Dirac candidates, the
pairing form of a bundle map by one sum per frame section, the frame values
of an IM form by iterated contraction, the full evaluation of a multivector
on covectors, and the extension of a derivation to all wedge sections.
The operations `substitute`, `scale`, `wedge`, `scalar`, `component`,
`coordinate_field`, `apply_field` and `section_from_components`, and the
`DiracCandidate` that the twisted-bracket batteries read, serve the tests
alone.  The library does not call any of these, so they live with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from imcalc.algebroid import (
    CheckReport, LieAlgebroid, Section, component_violations, run_oracle, tangent_copy_name,
    tangent_prolongation,
)
from imcalc.errors import AlgebroidError, CrossCheckError
from imcalc.fixtures import koszul_algebroid
from imcalc.forms import (
    Alternating,
    Calculus,
    DifferentialForm,
    Minors,
    Multivector,
    VectorField,
    add_wedge,
    collect,
    contract,
    exterior_derivative,
    iterated_contract,
    lie_derivative,
)
from imcalc.imforms import IMForm, _Residuals, check_im_form, im_form_from_base_form
from imcalc.multivec import Derivation
from imcalc.linforms import (
    BundleForms, TotalChart, decompose, fiber_pairing_form, total_chart_of,
)
from imcalc.poly import Chart, ChartError, Coord, Polynomial, base_chart, parse
from imcalc.weil import WeilCochain1, cochain_from_bundle_forms, horizontal_vanishing_report


# -- named examples -------------------------------------------------------------

def point_chart(name: str = "pt") -> Chart:
    return base_chart(name, [])


def so3_algebroid() -> LieAlgebroid:
    """Rotation Lie algebra as an algebroid over a point (F1)."""
    chart = point_chart()
    one = Polynomial.const(chart, 1)
    structure = {(0, 1): {2: one}, (1, 2): {0: one}, (0, 2): {1: -one}}
    return LieAlgebroid(chart, 3, ("e1", "e2", "e3"), [(), (), ()], structure)


def tangent_algebroid(coord_names=("x1", "x2"), chart_name="R") -> LieAlgebroid:
    """Tangent algebroid with the coordinate frame (F2 for the plane)."""
    chart = base_chart(chart_name, coord_names)
    n = chart.dim
    zero = Polynomial.zero(chart)
    one = Polynomial.const(chart, 1)
    anchor = [[one if i == j else zero for j in range(n)] for i in range(n)]
    return LieAlgebroid(chart, n, tuple(f"e{i + 1}" for i in range(n)), anchor, {})


def trivial_cotangent_algebroid() -> LieAlgebroid:
    """Cotangent bundle of the plane with zero anchor and bracket (F4)."""
    chart = base_chart("R", ("x1", "x2"))
    zero = Polynomial.zero(chart)
    return LieAlgebroid(chart, 2, ("e1", "e2"), [[zero, zero], [zero, zero]], {})


def broken_jacobi_algebroid() -> LieAlgebroid:
    """Structure constants over a point failing Jacobi at (1,2,3) (F5)."""
    chart = point_chart()
    one = Polynomial.const(chart, 1)
    structure = {(0, 1): {0: one}, (1, 2): {1: one}}
    return LieAlgebroid(chart, 3, ("e1", "e2", "e3"), [(), (), ()], structure,
                        unchecked=True)


def bivector(chart: Chart, entries) -> Multivector:
    """Bivector from {(i, j): expression} with i < j zero-based."""
    table = {key: parse(expr, chart) for key, expr in entries.items()}
    return Multivector(chart, 2, table)


def so3_dual_bivector(chart: Chart | None = None) -> Multivector:
    """The rotation-coalgebra bivector x3 d1^d2 + x1 d2^d3 + x2 d3^d1."""
    chart = chart or base_chart("R", ("x1", "x2", "x3"))
    return bivector(chart, {(0, 1): "x3", (0, 2): "-1*x2", (1, 2): "x1"})


def broken_so3_dual_bivector(chart: Chart | None = None) -> Multivector:
    """A perturbation of the rotation-coalgebra bivector that fails Jacobi.

    The middle coefficient is squared: x3 d1^d2 + x3^2 d2^d3 + x2 d3^d1.
    (Squaring the first coefficient instead would stay Poisson: the Jacobi
    defect of f(x3) d1^d2 + x1 d2^d3 + x2 d3^d1 vanishes for every f.)
    """
    chart = chart or base_chart("R", ("x1", "x2", "x3"))
    return bivector(chart, {(0, 1): "x3", (0, 2): "-1*x2", (1, 2): "x3^2"})


def koszul_so3_algebroid() -> LieAlgebroid:
    """Koszul algebroid of the rotation-coalgebra bivector (F3)."""
    return koszul_algebroid(so3_dual_bivector())


def broken_koszul_algebroid() -> LieAlgebroid:
    """Koszul data of the broken bivector; fails check_axioms (part of F8)."""
    return koszul_algebroid(broken_so3_dual_bivector(), unchecked=True)


def identity_im2_data(algebroid: LieAlgebroid) -> IMForm:
    """The (identity, zero) IM 2-form candidate on a rank-n Koszul algebroid:
    mu sends the a-th frame section to the a-th coordinate differential."""
    chart = algebroid.base_chart
    one = Polynomial.const(chart, 1)
    mu = tuple(DifferentialForm(chart, 1, {(a,): one}) for a in range(algebroid.rank))
    nu = tuple(DifferentialForm(chart, 2) for _ in range(algebroid.rank))
    return IMForm(algebroid, BundleForms(2, mu, nu))


def poisson_im_form() -> IMForm:
    """(identity, 0) on the rotation-coalgebra Koszul algebroid (F6)."""
    return identity_im2_data(koszul_so3_algebroid())


def broken_poisson_im_form() -> IMForm:
    """(identity, 0) on the broken Koszul data (F8)."""
    return identity_im2_data(broken_koszul_algebroid())


def exact_im_form() -> IMForm:
    """The exact IM 2-form of x1 dx1^dx2 on the tangent algebroid of the
    plane (F7)."""
    algebroid = tangent_algebroid()
    chart = algebroid.base_chart
    eta = DifferentialForm(chart, 2, {(0, 1): parse("x1", chart)})
    return im_form_from_base_form(algebroid, eta)


# -- substitution, scaling, wedges and fields -----------------------------------

def substitute(p: Polynomial, mapping: Mapping, new_chart: Chart) -> Polynomial:
    """Composite of `p` with a polynomial chart map: `mapping` sends a
    coordinate name of p's chart to a Polynomial on `new_chart`; unmapped
    names must exist on `new_chart` and map to themselves."""
    images = []
    for name in p.chart.names:
        img = mapping[name] if name in mapping else Polynomial.variable(new_chart, name)
        if img.chart != new_chart:
            raise ChartError("substitute images must live on the target chart")
        images.append(img)
    total = Polynomial.zero(new_chart)
    for exps, coeff in p.terms.items():
        term = Polynomial.const(new_chart, coeff)
        for img, k in zip(images, exps):
            if k:
                term = term * img ** k
        total = total + term
    return total


def scale(x: Alternating, factor) -> Alternating:
    """`x` with every coefficient multiplied by a Polynomial or rational."""
    if isinstance(factor, Polynomial) and factor.chart != x.chart:
        raise ChartError("scale factor lives on the wrong chart")
    return x._like({k: q for k, p in x.coeffs.items() if not (q := p * factor).is_zero()})


def wedge(a: Alternating, b: Alternating) -> Alternating:
    """Wedge product of two forms, two multivectors or two sections."""
    if type(a) is VectorField:
        a = Multivector(a.chart, 1, a.coeffs)
    if type(b) is VectorField:
        b = Multivector(b.chart, 1, b.coeffs)
    a._check_mate(b)
    groups: dict = {}
    for i1, p1 in a.coeffs.items():
        add_wedge(groups, b.coeffs, (p1, -p1), head=i1)
    return a._like(collect(groups), a.degree + b.degree)


def scalar(x: Alternating) -> Polynomial:
    """The underlying Polynomial of a degree-0 value."""
    if x.degree != 0:
        raise ValueError("scalar is only defined in degree 0")
    return x.coeffs.get((), Polynomial.zero(x.chart))


def component(x: VectorField, i: int) -> Polynomial:
    """The coefficient of the i-th coordinate direction of `x`."""
    return x.coeffs.get((i,), Polynomial.zero(x.chart))


def form_function(poly: Polynomial) -> DifferentialForm:
    """`poly` as a 0-form."""
    return DifferentialForm(poly.chart, 0, {(): poly})


def coordinate_field(chart: Chart, name: str) -> VectorField:
    """The coordinate vector field d/d name."""
    return VectorField(chart, {(chart.index(name),): Polynomial.const(chart, 1)})


def apply_field(x: VectorField, f: Polynomial) -> Polynomial:
    """Directional derivative of a scalar along `x`."""
    if f.chart != x.chart:
        raise ChartError("chart mismatch")
    return Polynomial.sum_of_products(
        x.chart, ((comp, f.diff(x.chart.names[i])) for (i,), comp in x.coeffs.items()))


def section_from_components(algebroid: LieAlgebroid, comps: Sequence[Polynomial]) -> Section:
    """The degree-1 section sum comps[a] e_a."""
    if len(comps) != algebroid.rank:
        raise AlgebroidError("need one component per frame section")
    return Section(algebroid, 1, {(a,): p for a, p in enumerate(comps) if not p.is_zero()})


# -- degree-1 multivectors and covector contraction ------------------------------


def as_vector_field(mv: Multivector) -> VectorField:
    """View a degree-1 multivector as a VectorField."""
    if mv.degree != 1:
        raise ValueError("only degree-1 multivectors are vector fields")
    return mv._like(dict(mv.coeffs), kind=VectorField)


def contract_covector(alpha: DifferentialForm, p: Multivector) -> Multivector:
    """Interior product of a 1-form into a multivector, i_alpha p."""
    if alpha.chart != p.chart:
        raise ChartError("chart mismatch")
    if alpha.degree != 1:
        raise ValueError("contract_covector needs a 1-form")
    if p.degree == 0:
        return Multivector(p.chart, 0)
    groups: dict = {}
    Calculus(p.chart).add_contract(groups, {i: c for (i,), c in alpha.coeffs.items()},
                                   p.coeffs, 1)
    return p._like(collect(groups), p.degree - 1, Multivector)


# -- the tangent lift ----------------------------------------------------------

def tangent_total_chart(base: Chart) -> TotalChart:
    """Total space of the tangent bundle; the frame is the coordinate frame."""
    fiber = tuple(f"{n}_dot" for n in base.names)
    chart = Chart(f"{base.name}|tan",
                  base.coords + tuple(Coord(n, base=False) for n in fiber))
    return TotalChart(chart, base, tuple(f"@{n}" for n in base.names), fiber)


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
    maps = [contract(coordinate_field(base, n), beta) for n in base.names]
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
        + [Coord(tangent_copy_name(n, l + 1), base=False) for l in range(k) for n in names]))
    taut = [VectorField(sum_chart, {
        (sum_chart.index(n),): Polynomial.variable(sum_chart, tangent_copy_name(n, l + 1))
        for n in names})
        for l in range(k)]
    induced = scalar(iterated_contract(taut, alpha.promote(sum_chart)))
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


# -- IM forms: the relative family ----------------------------------------------

def im_form_relative(algebroid: LieAlgebroid, mu: Sequence[DifferentialForm],
                     phi: DifferentialForm) -> IMForm:
    """The relative family: nu = -(anchor contraction of phi).

    Requires the anchor contractions of d phi to vanish; under that hypothesis
    the third IM condition holds by construction (re-verified here), while the
    first two are genuinely candidate conditions left to `check_im_form`.
    """
    if phi.chart != algebroid.base_chart:
        raise AlgebroidError("phi must live on the algebroid base chart")
    k = phi.degree - 1
    d_phi = exterior_derivative(phi)
    nu = []
    for a in range(algebroid.rank):
        rho = algebroid.anchor_field(a)
        if not contract(rho, d_phi).is_zero():
            raise AlgebroidError(
                f"hypothesis violated: anchor contraction of d phi is nonzero "
                f"for frame section {algebroid.frame_names[a]}")
        nu.append(-contract(rho, phi))
    im = IMForm(algebroid, BundleForms(k, tuple(mu), tuple(nu)))
    residuals = _Residuals(im)
    for a in range(algebroid.rank):
        for b in range(a + 1, algebroid.rank):
            if not residuals.bracket("nu", a, b).is_zero():
                raise CrossCheckError("relative construction failed its own IM3 guarantee")
    return im


# -- Weil cochains: the correspondence and the vertical differential --------------

def linear_form_to_cochain(form: DifferentialForm, algebroid: LieAlgebroid) -> WeilCochain1:
    """The isomorphism from linear k-forms onto degree-(1,k) cochains.

    With (mu, nu) the decomposition of the form, comp0 is d mu + nu and comp1
    is -mu.  Injective: the inverse reads mu = -comp1 and nu = comp0 - d mu.
    """
    tc = total_chart_of(algebroid)
    bundle_forms = decompose(form, tc)
    return cochain_from_bundle_forms(algebroid, bundle_forms)


def cochain_to_bundle_forms(w: WeilCochain1) -> BundleForms:
    """Invert `cochain_from_bundle_forms`: mu = -comp1, nu = comp0 - d mu."""
    mu = tuple(-f for f in w.comp1)
    nu = tuple(f - exterior_derivative(m) for f, m in zip(w.comp0, mu))
    return BundleForms(w.k, mu, nu)


def vertical_differential(mu: Sequence[DifferentialForm],
                          algebroid: LieAlgebroid) -> WeilCochain1:
    """Vertical differential of a bundle map into k-forms, as a (1, k+1)
    cochain: comp0 = -d mu, comp1 = mu.

    Only bundle maps (plain form lists) are accepted; feeding a cochain back
    in is a degree-bookkeeping error by construction.
    """
    mu = tuple(mu)
    if len(mu) != algebroid.rank:
        raise AlgebroidError("need one form per frame section")
    degrees = {f.degree for f in mu}
    if len(degrees) != 1:
        raise AlgebroidError("all forms must share one degree")
    comp0 = tuple(-exterior_derivative(f) for f in mu)
    return WeilCochain1(algebroid, degrees.pop() + 1, comp0, mu)


def check_weil_correspondence(form: DifferentialForm, algebroid: LieAlgebroid) -> CheckReport:
    """The two structural properties of the cochain correspondence.

    (a) Mapping the exterior derivative of a linear form equals minus the
    vertical differential of the form's pure-pairing part, unconditionally;
    (b) the IM verdict of the decomposition agrees with vanishing of the
    horizontal differential of the image.  Since (b) compares two
    independently computed booleans whose equality is a theorem, `run_oracle`
    raises OracleDisagreement on a mismatch (always a library defect); the
    report carries the violations of (a).
    """
    A = algebroid
    tc = total_chart_of(A)
    bf = decompose(form, tc)
    violations = []

    lhs = linear_form_to_cochain(exterior_derivative(form), A)
    rhs = negated_cochain(vertical_differential(bf.nu, A))
    for a, name in enumerate(A.frame_names):
        diff0 = lhs.comp0[a] - rhs.comp0[a]
        diff1 = lhs.comp1[a] - rhs.comp1[a]
        violations.extend(component_violations("PSI_D0", (name,), diff0))
        violations.extend(component_violations("PSI_D1", (name,), diff1))

    run_oracle(A, {
        "im_conditions": lambda: check_im_form(IMForm(A, bf)),
        "dh_vanishing": lambda: horizontal_vanishing_report(cochain_from_bundle_forms(A, bf)),
    })
    return CheckReport.collect(violations)


def value0_scaled(w: WeilCochain1, f: Polynomial, a: int) -> DifferentialForm:
    """comp0 of `w` on the section f e_a via the compatibility rule."""
    df = exterior_derivative(form_function(f))
    return scale(w.comp0[a], f) - wedge(df, w.comp1[a])


def negated_cochain(w: WeilCochain1) -> WeilCochain1:
    return WeilCochain1(w.algebroid, w.k, tuple(-f for f in w.comp0),
                        tuple(-f for f in w.comp1))


def cochain_is_zero(w: WeilCochain1) -> bool:
    return all(f.is_zero() for f in w.comp0 + w.comp1)


# -- k = 2: Dirac candidates ---------------------------------------------------

@dataclass(frozen=True)
class DiracCandidate:
    """Generators (vector, covector) of a candidate lagrangian subbundle of
    the sum of tangent and cotangent directions, with a twisting 2-form per
    generator (zeros when untwisted)."""

    algebroid: LieAlgebroid
    vectors: tuple       # VectorField per frame section
    covectors: tuple     # 1-form per frame section
    twists: tuple        # 2-form per frame section

    @property
    def rank(self) -> int:
        return len(self.vectors)


def twisted_bracket(candidate: DiracCandidate, u_coeffs: Sequence[Polynomial],
                    v_coeffs: Sequence[Polynomial]) -> tuple:
    """Bracket of two sections of the generator span, given by coefficients.

    Returns the pair (vector part, covector part) of
    ([X, Y], L_X beta - i_Y d alpha - i_Y twist(X, alpha)) where (X, alpha)
    and (Y, beta) are the coefficient combinations of the generators and the
    twist is extended by linearity over the coefficients.
    """
    A = candidate.algebroid
    chart = A.base_chart

    def combine(coeffs):
        vec = VectorField(chart)
        cov = DifferentialForm(chart, 1)
        twist = DifferentialForm(chart, 2)
        for g, x, al, tw in zip(coeffs, candidate.vectors, candidate.covectors,
                                candidate.twists):
            vec = vec + scale(x, g)
            cov = cov + scale(al, g)
            twist = twist + scale(tw, g)
        return vec, cov, twist

    x_vec, alpha, twist_u = combine(u_coeffs)
    y_vec, beta, _ = combine(v_coeffs)
    bracket_vec = lie_derivative(x_vec, y_vec)
    bracket_cov = (lie_derivative(x_vec, beta)
                   - contract(y_vec, exterior_derivative(alpha))
                   - contract(y_vec, twist_u))
    return bracket_vec, bracket_cov


def graph_closure_residuals(candidate: DiracCandidate):
    """Span-closure defects for graph-of-bivector candidates, symbolically.

    Requires the covector generators to be exactly the coordinate 1-forms (so
    membership coefficients are read off the covector part); yields, per frame
    pair, the vector field by which the bracket pair leaves the span.  The
    residuals vanish for all pairs iff the span is closed.
    """
    A = candidate.algebroid
    chart = A.base_chart
    n = chart.dim
    if candidate.rank != n:
        raise AlgebroidError("graph closure needs rank = dim")
    one = Polynomial.const(chart, 1)
    for a in range(n):
        expected = DifferentialForm(chart, 1, {(a,): one})
        if candidate.covectors[a] != expected:
            raise AlgebroidError("graph closure needs coordinate-form covector generators")
    zero = Polynomial.zero(chart)
    for a in range(n):
        for b in range(a + 1, n):
            coeffs_a = [one if c == a else zero for c in range(n)]
            coeffs_b = [one if c == b else zero for c in range(n)]
            z_vec, gamma = twisted_bracket(candidate, coeffs_a, coeffs_b)
            # membership forces the coefficients gamma_c; subtract their span
            residual = z_vec
            for c in range(n):
                residual = residual - scale(candidate.vectors[c], gamma.coeff((c,)))
            yield (a, b), as_vector_field(residual)


# -- pairing forms ---------------------------------------------------------------

def reference_fiber_pairing_form(maps: Sequence[DifferentialForm], tc: TotalChart,
                                 degree: int) -> DifferentialForm:
    """`linforms.fiber_pairing_form` by adding u^d * maps[d] to a running
    total, one `DifferentialForm` sum per frame section."""
    if len(maps) != tc.rank:
        raise AlgebroidError("need one form per frame section")
    total = DifferentialForm(tc.chart, degree)
    for name, form in zip(tc.fiber_names, maps):
        if form.degree != degree:
            raise AlgebroidError("all maps must have one common degree")
        u = Polynomial.variable(tc.chart, name)
        total = total + scale(form.promote(tc.chart), u)
    return total


# -- frame values on the tangent prolongation ---------------------------------

def reference_form_frame_values(im) -> tuple:
    """The frame values of `linforms.form_frame_functional`, by contracting
    forms with the tautological dotted fields U_1..U_k one field at a time:
    core (a, n) is (-1)^(n-1) i_{U_k} .. i_{U_1} mu_a with U_n left out, and
    linear a is i_{U_k} .. i_{U_1} (d mu_a + nu_a).  Each value is keyed by
    the frame name the prolongation gives it, and put in frame order by
    those names."""
    algebroid, bundle_forms, k = im.algebroid, im.forms, im.k
    prol = tangent_prolongation(algebroid, k)
    chart = prol.base_chart
    taut = [VectorField(chart, {(i,): x for i, x in enumerate(dotted)})
            for dotted in prol._copy_layout.variables(chart)]
    values = {}
    for a, frame in enumerate(algebroid.frame_names):
        mu_a = bundle_forms.mu[a].promote(chart)
        for n in range(1, k + 1):
            val = scalar(iterated_contract(taut[:n - 1] + taut[n:], mu_a))
            values[f"{frame}_hat{n}"] = -val if (n - 1) % 2 else val
        full = exterior_derivative(bundle_forms.mu[a]) + bundle_forms.nu[a]
        values[f"T{frame}"] = scalar(iterated_contract(taut, full.promote(chart)))
    return tuple(values[name] for name in prol.frame_names)


# -- multivectors ---------------------------------------------------------------

def evaluate_multivector(p: Multivector, covectors: Sequence[DifferentialForm]) -> Polynomial:
    """Full contraction p(a_1, ..., a_k) as a Polynomial (i_{a_k}...i_{a_1} p)."""
    if len(covectors) != p.degree:
        raise ValueError("need exactly degree-many covectors")
    for alpha in covectors:
        p = contract_covector(alpha, p)
    return scalar(p)


# -- derivations ------------------------------------------------------------------

def scalar_action(d: Derivation, f: Polynomial) -> Section:
    """delta f = sum_j (df/dx_j) (delta x_j), the derivation on scalars."""
    A = d.algebroid
    out = Section.zero(A, d.k - 1)
    for j, name in enumerate(A.base_chart.names):
        df = f.diff(name)
        if not df.is_zero():
            out = out + scale(d.coord_action(j), df)
    return out


def apply_derivation(d: Derivation, w: Section) -> Section:
    """Extension to arbitrary wedge sections by the graded Leibniz rule."""
    A = d.algebroid
    out = Section.zero(A, w.degree + d.k - 1)
    for idx, poly in w.coeffs.items():
        pure = Section(A, len(idx), {idx: Polynomial.const(A.base_chart, 1)})
        out = out + scale(_apply_pure(d, idx), poly)
        out = out + wedge(scalar_action(d, poly), pure)
    return out


def _apply_pure(d: Derivation, idx) -> Section:
    A = d.algebroid
    if len(idx) == 0:
        return Section.zero(A, d.k - 1)
    head = d.frame_action(idx[0])
    if len(idx) == 1:
        return head
    rest = Section(A, len(idx) - 1,
                   {idx[1:]: Polynomial.const(A.base_chart, 1)})
    tail = _apply_pure(d, idx[1:])
    e_head = Section.frame(A, idx[0])
    sign = -1 if (d.k - 1) % 2 else 1
    out = wedge(head, rest) + scale(wedge(e_head, tail), sign)
    return out
