"""Low-degree Weil cochains: the third independent route to the IM conditions.

A degree-(1,k) cochain is a pair (comp0, comp1) of frame-value tables, a
k-form and a (k-1)-form per frame section, with comp0 extended off the frame
by the compatibility rule comp0(f u) = f comp0(u) - df ^ comp1(u).  Linear
k-forms map isomorphically onto these cochains; the horizontal differential
of the image has three displayed components whose vanishing reproduces the
three IM conditions, giving a verdict independent of both the direct checker
and the prolongation morphism route.

The degree-(2,k) target is represented only through its three component
tables; the full compatibility conditions of the bigraded algebra are not
axiomatized (nothing here consumes them).  The symmetric-square component is
stored on the frame diagonal; the vanishing report also polarizes it over
frame pairs, since vanishing of the underlying symmetric tensor is what the
kernel condition means.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .algebroid import CheckReport, LieAlgebroid, axiom_gate, component_violations, run_oracle
from .errors import AlgebroidError
from .forms import (
    Calculus, DifferentialForm, add_scaled, add_wedge, collect, exterior_derivative, wedge,
)
from .imforms import IMForm, check_im_form
from .linforms import BundleForms, decompose, total_chart_of
from .poly import ChartError, Polynomial


@dataclass(frozen=True)
class WeilCochain1:
    """Degree-(1,k) cochain: per frame section a k-form and a (k-1)-form."""

    algebroid: LieAlgebroid
    k: int
    comp0: Mapping  # frame name -> k-form on the base
    comp1: Mapping  # frame name -> (k-1)-form on the base

    def __post_init__(self):
        A = self.algebroid
        for table, degree, tag in ((self.comp0, self.k, "comp0"),
                                   (self.comp1, self.k - 1, "comp1")):
            if set(table) != set(A.frame_names):
                raise AlgebroidError(f"{tag} must cover the frame exactly")
            for f in table.values():
                if f.degree != degree:
                    raise AlgebroidError(f"{tag} entries must have degree {degree}")
                if f.chart != A.base_chart:
                    raise ChartError(f"{tag} entries must live on the base chart")
        object.__setattr__(self, "comp0", dict(self.comp0))
        object.__setattr__(self, "comp1", dict(self.comp1))

    def value0(self, a: int) -> DifferentialForm:
        return self.comp0[self.algebroid.frame_names[a]]

    def value1(self, a: int) -> DifferentialForm:
        return self.comp1[self.algebroid.frame_names[a]]

    def value0_scaled(self, f: Polynomial, a: int) -> DifferentialForm:
        """comp0 on the section f e_a via the compatibility rule."""
        df = exterior_derivative(DifferentialForm.function(f))
        return self.value0(a).scale(f) - wedge(df, self.value1(a))

    def __neg__(self) -> "WeilCochain1":
        return WeilCochain1(self.algebroid, self.k,
                            {n: -f for n, f in self.comp0.items()},
                            {n: -f for n, f in self.comp1.items()})

    def is_zero(self) -> bool:
        return (all(f.is_zero() for f in self.comp0.values())
                and all(f.is_zero() for f in self.comp1.values()))


@dataclass(frozen=True)
class WeilCochain2Parts:
    """The three displayed components of a degree-(2,k) cochain.

    comp0 over frame pairs a < b (antisymmetric part), comp1 over ordered
    frame pairs, comp2 on the frame diagonal of the symmetric square.
    """

    algebroid: LieAlgebroid
    k: int
    comp0: Mapping  # (a, b) a < b -> k-form
    comp1: Mapping  # (a, b) ordered -> (k-1)-form
    comp2: Mapping  # a -> (k-1)-form


def linear_form_to_cochain(form: DifferentialForm, algebroid: LieAlgebroid) -> WeilCochain1:
    """The isomorphism from linear k-forms onto degree-(1,k) cochains.

    With (mu, nu) the decomposition of the form, comp0 is d mu + nu and comp1
    is -mu.  Injective: the inverse reads mu = -comp1 and nu = comp0 - d mu.
    """
    tc = total_chart_of(algebroid)
    bundle_forms = decompose(form, tc)
    return cochain_from_bundle_forms(algebroid, bundle_forms)


def cochain_from_bundle_forms(algebroid: LieAlgebroid, bf: BundleForms) -> WeilCochain1:
    comp0 = {}
    comp1 = {}
    for a, name in enumerate(algebroid.frame_names):
        comp0[name] = exterior_derivative(bf.mu[a]) + bf.nu[a]
        comp1[name] = -bf.mu[a]
    return WeilCochain1(algebroid, bf.k, comp0, comp1)


def cochain_to_bundle_forms(w: WeilCochain1) -> BundleForms:
    """Invert `cochain_from_bundle_forms`: mu = -comp1, nu = comp0 - d mu."""
    mu = []
    nu = []
    for a in range(w.algebroid.rank):
        m = -w.value1(a)
        mu.append(m)
        nu.append(w.value0(a) - exterior_derivative(m))
    return BundleForms(w.k, tuple(mu), tuple(nu))


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
    comp0 = {}
    comp1 = {}
    for a, name in enumerate(algebroid.frame_names):
        comp0[name] = -exterior_derivative(mu[a])
        comp1[name] = mu[a]
    return WeilCochain1(algebroid, degrees.pop() + 1, comp0, comp1)


def horizontal_differential(w: WeilCochain1) -> WeilCochain2Parts:
    """The three displayed components of the horizontal differential.

    comp0(a, b): -comp0([e_a, e_b]) + L_{rho_a} comp0(e_b) - L_{rho_b}
    comp0(e_a), with the bracket image expanded through the compatibility
    rule; comp1(a)(b): L_{rho_a} comp1(e_b) - comp1([e_a, e_b]) + i_{rho_b}
    comp0(e_a); comp2(a): -i_{rho_a} comp1(e_a).

    One `forms.Calculus` serves the whole differential.  d of each frame
    value and i_{rho_a} of each (a, frame value) is one table, collected
    once, and each L_{rho_a} enters its sum as the terms of Cartan's formula
    L = i d + d i: the contraction of a d table plus d of a contraction
    table (empty on functions).  Each component is one `collect` over these
    pairs, the bracket image's and those of its -d(coeff) ^ comp1 terms.
    """
    return _horizontal_differential(w)[0]


def _horizontal_differential(w: WeilCochain1) -> tuple:
    """`horizontal_differential` and its table {(a, b): i_{rho_a} comp1(e_b)}
    over ordered frame pairs, which the DH2 polarization reads too."""
    A, k = w.algebroid, w.k
    chart, r = A.base_chart, A.rank
    ops = Calculus(chart)
    rho = [{i: p for i, p in enumerate(A.anchor[a]) if not p.is_zero()} for a in range(r)]

    def form(groups: dict, degree: int) -> DifferentialForm:
        # a contraction of a function is the zero function
        return DifferentialForm(chart, max(degree, 0))._like(collect(groups))

    def contracted(a: int, x: DifferentialForm) -> DifferentialForm:
        groups: dict = {}
        ops.add_contract(groups, rho[a], x.coeffs, 1)
        return form(groups, x.degree - 1)

    def derived(x: DifferentialForm) -> DifferentialForm:
        groups: dict = {}
        ops.add_d(groups, x.coeffs, 1)
        return form(groups, x.degree + 1)

    def add_lie(groups: dict, a: int, d_form: DifferentialForm, i_form: DifferentialForm,
                s: int) -> None:
        # s * L_{rho_a} of the form whose d is d_form and whose i_{rho_a}
        # is i_form
        ops.add_contract(groups, rho[a], d_form.coeffs, s)
        ops.add_d(groups, i_form.coeffs, s)

    pairs = [(a, b) for a in range(r) for b in range(r)]
    i0 = {(a, b): contracted(a, w.value0(b)) for a, b in pairs}
    i1 = {(a, b): contracted(a, w.value1(b)) for a, b in pairs}
    d0 = [derived(w.value0(b)) for b in range(r)]
    d1 = [derived(w.value1(b)) for b in range(r)]

    # minus the image of [e_a, e_b] is the image of [e_b, e_a]
    comp0 = {}
    for a in range(r):
        for b in range(a + 1, r):
            groups: dict = {}
            for c, (coeff, _) in A.bracket_row(b, a, ops):
                # comp0(coeff e_c) = coeff comp0(e_c) - d(coeff) ^ comp1(e_c)
                add_scaled(groups, w.value0(c).coeffs, coeff)
                for j in range(chart.dim):
                    dc = ops.partial(coeff, j)
                    if not dc.is_zero():
                        add_wedge(groups, w.value1(c).coeffs, ops.pm(dc), -1, head=(j,))
            add_lie(groups, a, d0[b], i0[a, b], 1)
            add_lie(groups, b, d0[a], i0[b, a], -1)
            comp0[(a, b)] = form(groups, k)
    comp1 = {}
    for a in range(r):
        for b in range(r):
            groups = {}
            for c, (coeff, _) in A.bracket_row(b, a, ops):
                add_scaled(groups, w.value1(c).coeffs, coeff)
            add_lie(groups, a, d1[b], i1[a, b], 1)
            add_scaled(groups, i0[b, a].coeffs, 1)
            comp1[(a, b)] = form(groups, k - 1)
    comp2 = {}
    for a in range(r):
        comp2[a] = -i1[a, a]
    return WeilCochain2Parts(A, w.k, comp0, comp1, comp2), i1


def horizontal_vanishing_report(w: WeilCochain1) -> CheckReport:
    """Does the horizontal differential vanish as a degree-(2,k) cochain?

    DH0 over frame pairs, DH1 over ordered frame pairs, DH2 over unordered
    pairs via polarization of the symmetric-square component (the diagonal
    alone does not determine the tensor); the pair residual is stored without
    the polarization half, which does not affect vanishing.  The polarization
    reads the anchor contractions the differential was built from.  Includes
    the axiom gate for unchecked algebroids.
    """
    A = w.algebroid
    dh, i1 = _horizontal_differential(w)
    violations = list(axiom_gate(A))
    notes = []
    if violations:
        notes.append("algebroid axioms fail; cochain verdicts reported on non-Lie data")
    names = A.frame_names
    for (a, b), form in sorted(dh.comp0.items()):
        if not form.is_zero():
            violations.extend(component_violations("DH0", (names[a], names[b]), form))
    for (a, b), form in sorted(dh.comp1.items()):
        if not form.is_zero():
            violations.extend(component_violations("DH1", (names[a], names[b]), form))
    for a in range(A.rank):
        for b in range(a, A.rank):
            if a == b:
                res = dh.comp2[a]
            else:
                res = -(i1[a, b] + i1[b, a])
            if not res.is_zero():
                violations.extend(component_violations("DH2", (names[a], names[b]), res))
    return CheckReport.collect(violations, notes)


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
    rhs = -vertical_differential(bf.nu, A)
    for a, name in enumerate(A.frame_names):
        diff0 = lhs.value0(a) - rhs.value0(a)
        diff1 = lhs.value1(a) - rhs.value1(a)
        violations.extend(component_violations("PSI_D0", (name,), diff0))
        violations.extend(component_violations("PSI_D1", (name,), diff1))

    run_oracle(A, {
        "im_conditions": lambda: check_im_form(IMForm(A, bf)),
        "dh_vanishing": lambda: horizontal_vanishing_report(cochain_from_bundle_forms(A, bf)),
    })
    return CheckReport.collect(violations)
