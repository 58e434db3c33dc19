"""Low-degree Weil cochains: the third independent route to the IM conditions.

A degree-(1,k) cochain is a pair (comp0, comp1) of frame-value tuples, a
k-form and a (k-1)-form per frame section in frame order, with comp0 extended off the frame
by the compatibility rule comp0(f u) = f comp0(u) - df ^ comp1(u).  Linear
k-forms map isomorphically onto these cochains; the horizontal differential
of the image has three displayed components whose vanishing reproduces the
three IM conditions, giving a verdict independent of both the direct checker
and the prolongation morphism route.

The horizontal differential is never built as a degree-(2,k) cochain:
`horizontal_vanishing_report` computes its three displayed components one
frame pair at a time and reports the nonzero ones (the full compatibility
conditions of the bigraded algebra are not axiomatized, as nothing here
consumes them).  The symmetric-square component lives on the frame diagonal;
the report also polarizes it over frame pairs, since vanishing of the
underlying symmetric tensor is what the kernel condition means.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebroid import CheckReport, LieAlgebroid, axiom_gate, component_violations
from .errors import AlgebroidError
from .forms import Calculus, DifferentialForm, add_scaled, add_wedge, collect, exterior_derivative
from .linforms import BundleForms
from .poly import ChartError


@dataclass(frozen=True)
class WeilCochain1:
    """Degree-(1,k) cochain: per frame section a k-form and a (k-1)-form."""

    algebroid: LieAlgebroid
    k: int
    comp0: tuple  # k-forms on the base, in frame order
    comp1: tuple  # (k-1)-forms on the base, in frame order

    def __post_init__(self):
        A = self.algebroid
        for values, degree, tag in ((self.comp0, self.k, "comp0"),
                                    (self.comp1, self.k - 1, "comp1")):
            if len(values) != A.rank:
                raise AlgebroidError(f"{tag} needs one entry per frame section")
            for f in values:
                if f.degree != degree:
                    raise AlgebroidError(f"{tag} entries must have degree {degree}")
                if f.chart != A.base_chart:
                    raise ChartError(f"{tag} entries must live on the base chart")


def cochain_from_bundle_forms(algebroid: LieAlgebroid, bf: BundleForms) -> WeilCochain1:
    """The image of the linear form with data (mu, nu): comp0 is d mu + nu
    and comp1 is -mu."""
    comp0 = tuple(exterior_derivative(mu) + nu for mu, nu in zip(bf.mu, bf.nu))
    return WeilCochain1(algebroid, bf.k, comp0, tuple(-mu for mu in bf.mu))


def horizontal_vanishing_report(w: WeilCochain1) -> CheckReport:
    """Does the horizontal differential of `w` vanish as a degree-(2,k)
    cochain?  Its three displayed components, each reported where nonzero:

    - DH0(a, b), a < b: -comp0([e_a, e_b]) + L_{rho_a} comp0(e_b)
      - L_{rho_b} comp0(e_a), with the bracket image expanded through the
      compatibility rule;
    - DH1(a, b), ordered: L_{rho_a} comp1(e_b) - comp1([e_a, e_b])
      + i_{rho_b} comp0(e_a);
    - DH2(a, b), a <= b: the symmetric-square component -i_{rho_a}
      comp1(e_a) on the diagonal, polarized off it as -(i_{rho_a} comp1(e_b)
      + i_{rho_b} comp1(e_a)), since the diagonal alone does not determine
      the tensor; the pair residual is stored without the polarization
      half, which does not affect vanishing.

    One `forms.Calculus` serves the whole report.  d of each frame value
    and i_{rho_a} of each (a, frame value) is one table, collected once, and
    each L_{rho_a} enters its sum as the terms of Cartan's formula
    L = i d + d i: the contraction of a d table plus d of a contraction
    table (empty on functions).  Each DH0 and DH1 residual is one `collect`
    over these pairs, the bracket image's and those of its -d(coeff) ^ comp1
    terms.  Includes the axiom gate for unchecked algebroids.
    """
    A, k = w.algebroid, w.k
    chart, r, names = A.base_chart, A.rank, A.frame_names
    ops = Calculus(chart)
    rho = A.anchor_rows

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
    i0 = {(a, b): contracted(a, w.comp0[b]) for a, b in pairs}
    i1 = {(a, b): contracted(a, w.comp1[b]) for a, b in pairs}
    d0 = [derived(f) for f in w.comp0]
    d1 = [derived(f) for f in w.comp1]

    violations = list(axiom_gate(A))
    notes = []
    if violations:
        notes.append("algebroid axioms fail; cochain verdicts reported on non-Lie data")
    # minus the image of [e_a, e_b] is the image of [e_b, e_a]
    for a in range(r):
        for b in range(a + 1, r):
            groups: dict = {}
            for c, (coeff, _) in A.bracket_row(b, a, ops):
                # comp0(coeff e_c) = coeff comp0(e_c) - d(coeff) ^ comp1(e_c)
                add_scaled(groups, w.comp0[c].coeffs, coeff)
                for j in range(chart.dim):
                    dc = ops.partial(coeff, j)
                    if not dc.is_zero():
                        add_wedge(groups, w.comp1[c].coeffs, ops.pm(dc), -1, head=(j,))
            add_lie(groups, a, d0[b], i0[a, b], 1)
            add_lie(groups, b, d0[a], i0[b, a], -1)
            violations.extend(component_violations("DH0", (names[a], names[b]),
                                                   form(groups, k)))
    for a, b in pairs:
        groups = {}
        for c, (coeff, _) in A.bracket_row(b, a, ops):
            add_scaled(groups, w.comp1[c].coeffs, coeff)
        add_lie(groups, a, d1[b], i1[a, b], 1)
        add_scaled(groups, i0[b, a].coeffs, 1)
        violations.extend(component_violations("DH1", (names[a], names[b]),
                                               form(groups, k - 1)))
    for a in range(r):
        for b in range(a, r):
            res = -i1[a, a] if a == b else -(i1[a, b] + i1[b, a])
            violations.extend(component_violations("DH2", (names[a], names[b]), res))
    return CheckReport.collect(violations, notes)
