"""IM k-form verification, the exact constructor, the main equivalence oracle,
and the k = 2 lagrangian check.

An IM ("infinitesimally multiplicative") k-form on a Lie algebroid is a pair
of bundle maps (mu into (k-1)-forms, nu into k-forms) satisfying three
compatibility conditions with the anchor and bracket.  `check_im_form`
verifies them on frame pairs; `oracle_equivalence` compares the verdict with
an independent computation, the morphism condition of the induced fiberwise
functional on the tangent prolongation.  The two verdicts provably agree, so
any disagreement is raised as a library defect rather than returned.

`check_im_form` builds its residuals from the operators of `forms.Calculus`,
which holds the conventions for d, contraction and the Lie derivative.  It
takes L as a derivation (the coordinate formula), while `weil` keeps
Cartan's L = i d + d i, so the two routes that check a Weil document compute
L by different formulas.

At k = 2, `check_lagrangian` asks whether the generators (rho(e_a), mu(e_a))
span a lagrangian subbundle of the sum of tangent and cotangent directions.
It reads the IM form itself: isotropy is IM1's residual, collected the same
way, and the rank is decided at the sample points the caller passes.

Checkers enforce the documented axiom precondition by reporting: handed an
algebroid built with `unchecked=True`, they fold the axiom violations into
the returned report (for construction-validated algebroids this is free).
Without that gate no frame-level condition distinguishes broken structure
data of Koszul type, whose IM residuals vanish identically for every
bivector.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebroid import (
    CheckReport,
    LieAlgebroid,
    Violation,
    axiom_gate,
    check_morphism_to_line,
    component_violations,
    run_oracle,
)
from .errors import AlgebroidError, CrossCheckError
from .forms import (
    Calculus, DifferentialForm, add_scaled, collect, contract, exterior_derivative,
)
from .linforms import BundleForms, form_frame_functional
from .poly import Polynomial


@dataclass(frozen=True)
class IMForm:
    """Candidate IM k-form data attached to an algebroid."""

    algebroid: LieAlgebroid
    forms: BundleForms

    def __post_init__(self):
        if self.forms.rank != self.algebroid.rank:
            raise AlgebroidError("need one (mu, nu) pair per frame section")
        for f in self.forms.mu + self.forms.nu:
            if f.chart != self.algebroid.base_chart:
                raise AlgebroidError("bundle forms must live on the algebroid base chart")

    @property
    def k(self) -> int:
        return self.forms.k


class _Residuals:
    """The IM residuals and the nu identities of one candidate, each one
    `collect` over (polynomial, weight) pairs grouped by output index.

    Each IM formula is written once, for a bundle map kappa named by its
    kind: `anchor_sum` is IM1 for mu and the derived antisymmetry for nu,
    `bracket` is IM2 for mu and IM3 for nu.

    The pairs come from the operators of one `forms.Calculus` of this call,
    which differentiates and negates each polynomial at most once: d, the
    contraction i_{rho(a)} and the Lie derivative L_{rho(a)}, the derivation
    with rows d rho_a^t.  Two more tables of this call hold d of each frame
    image (for mu, d mu(b) + nu(b), the form IM2 contracts) and, for the
    cyclic identity, L_{rho(v)} nu(u) - L_{rho(u)} nu(v); they are dropped
    with the call.
    """

    def __init__(self, im: IMForm):
        A = im.algebroid
        self.algebroid = A
        self.maps = {"mu": [f.coeffs for f in im.forms.mu],
                     "nu": [f.coeffs for f in im.forms.nu]}
        self.degree = {"mu": im.k - 1, "nu": im.k}
        self.ops = Calculus(A.base_chart)
        # rho_a, the components i_{rho(a)} contracts by, and L_{rho(a)} as (field, rows)
        self.rho = A.anchor_rows
        self.lies = [self.ops.lie(rho.items()) for rho in self.rho]
        self.d_tables: dict = {}        # (kind, b) -> d of the image of e_b, + nu(b) for mu
        self.lie_tables: dict = {}      # (u, v) -> L_{rho(v)} nu(u) - L_{rho(u)} nu(v)

    def d(self, kind: str, b: int) -> dict:
        """d of the image of e_b, plus nu(b) for mu: the form i_{rho(a)}
        takes in IM2 (mu) or IM3 (nu)."""
        table = self.d_tables.get((kind, b))
        if table is None:
            groups: dict = {}
            self.ops.add_d(groups, self.maps[kind][b], 1)
            if kind == "mu":
                add_scaled(groups, self.maps["nu"][b], 1)
            table = self.d_tables[kind, b] = collect(groups)
        return table

    def lie(self, u: int, v: int) -> dict:
        """L_{rho(v)} nu(u) - L_{rho(u)} nu(v), for u < v."""
        table = self.lie_tables.get((u, v))
        if table is None:
            nu = self.maps["nu"]
            groups: dict = {}
            self.ops.add_derivation(groups, nu[u], *self.lies[v], 1)
            self.ops.add_derivation(groups, nu[v], *self.lies[u], -1)
            table = self.lie_tables[u, v] = collect(groups)
        return table

    def form(self, groups: dict, degree: int) -> DifferentialForm:
        return DifferentialForm(self.algebroid.base_chart, max(degree, 0))._like(collect(groups))

    def anchor_sum(self, kind: str, a: int, b: int) -> DifferentialForm:
        """i_{rho a} kappa(b) + i_{rho b} kappa(a), kappa the bundle map
        `kind`: IM1 for mu, the derived antisymmetry for nu."""
        kappa = self.maps[kind]
        groups: dict = {}
        self.ops.add_contract(groups, self.rho[a], kappa[b], 1)
        self.ops.add_contract(groups, self.rho[b], kappa[a], 1)
        return self.form(groups, self.degree[kind] - 1)

    def bracket(self, kind: str, a: int, b: int) -> DifferentialForm:
        """sum_c C_ab^c kappa(c) - L_{rho a} kappa(b) + i_{rho b} (d kappa(a),
        plus nu(a) when kappa is mu), kappa the bundle map `kind`: IM2 for
        mu, IM3 for nu."""
        kappa = self.maps[kind]
        groups: dict = {}
        for c, w in self.algebroid.bracket_row(a, b, self.ops):
            add_scaled(groups, kappa[c], w[0])
        self.ops.add_derivation(groups, kappa[b], *self.lies[a], -1)
        self.ops.add_contract(groups, self.rho[b], self.d(kind, a), 1)
        return self.form(groups, self.degree[kind])

    def cyclic(self, a: int, b: int, c: int) -> DifferentialForm:
        groups: dict = {}
        self.ops.add_contract(groups, self.rho[c], self.lie(a, b), 1)
        self.ops.add_contract(groups, self.rho[a], self.lie(b, c), 1)
        self.ops.add_contract(groups, self.rho[b], self.lie(a, c), -1)
        inner: dict = {}
        self.ops.add_contract(inner, self.rho[b], self.maps["nu"][a], 1)
        triple: dict = {}
        self.ops.add_contract(triple, self.rho[c], collect(inner), 1)
        # empty for k = 1: the double contraction of a 1-form
        self.ops.add_d(groups, collect(triple), 2)
        return self.form(groups, self.degree["nu"] - 1)


def check_im_form(im: IMForm) -> CheckReport:
    """Verify the three IM conditions on frame pairs.

    IM1 runs over unordered pairs (diagonal included), IM2 over all ordered
    pairs, IM3 over unordered off-diagonal pairs; this matches exactly the
    frame conditions produced by the core/core, core/linear and linear/linear
    cases of the morphism computation.  The frame reduction of IM2/IM3 to
    general sections is only valid once IM1 holds, so IM2/IM3 violations are
    flagged when IM1 failed.  When all three pass, the two derived identities
    for nu (antisymmetry under the anchor and the cyclic Lie-derivative
    identity) are asserted as consistency checks.

    With C_ab^c the structure functions, the residuals are

        IM1(a, b) = i_{rho a} mu(b) + i_{rho b} mu(a)
        IM2(a, b) = sum_c C_ab^c mu(c) - L_{rho a} mu(b)
                    + i_{rho b} d mu(a) + i_{rho b} nu(a)
        IM3(a, b) = sum_c C_ab^c nu(c) - L_{rho a} nu(b) + i_{rho b} d nu(a)

    in the conventions of `forms.Calculus`, L_X being the derivation that
    acts as X on coefficients and sends dx_t to d X^t (the coordinate
    formula, not Cartan's i d + d i).  Every term is a product of two base
    polynomials, so each residual is one `collect`; IM2 contracts
    d mu(a) + nu(a) as one table.
    """
    A = im.algebroid
    r = A.rank
    violations = list(axiom_gate(A))
    notes = []
    if violations:
        notes.append("algebroid axioms fail; IM verdicts reported on non-Lie data")
    residuals = _Residuals(im)

    im1 = []
    for a in range(r):
        for b in range(a, r):
            res = residuals.anchor_sum("mu", a, b)
            if not res.is_zero():
                im1.extend(component_violations(
                    "IM1", (A.frame_names[a], A.frame_names[b]), res))
    caveat = None
    if im1:
        caveat = "frame-reduction not certified (IM1 fails)"
        notes.append("IM1 fails: IM2/IM3 frame checks are not certified for general sections")
    violations.extend(im1)

    for a in range(r):
        for b in range(r):
            res = residuals.bracket("mu", a, b)
            if not res.is_zero():
                violations.extend(component_violations(
                    "IM2", (A.frame_names[a], A.frame_names[b]), res, caveat))
    for a in range(r):
        for b in range(a + 1, r):
            res = residuals.bracket("nu", a, b)
            if not res.is_zero():
                violations.extend(component_violations(
                    "IM3", (A.frame_names[a], A.frame_names[b]), res, caveat))

    if not violations:
        _assert_nu_identities(residuals)
    return CheckReport.collect(violations, notes)


def _assert_nu_identities(residuals: _Residuals) -> None:
    """The nu identities implied by IM1-IM3; failure is a library defect.

    Antisymmetry of nu under the anchor, i_{rho a} nu(b) + i_{rho b} nu(a)
    = 0, holds on pairs.  The cyclic Lie-derivative identity needs an exact
    correction term in degrees k >= 2:

        sum_cyc i_{rho(w)}(L_{rho(v)} nu(u) - L_{rho(u)} nu(v))
            = -2 d( i_{rho(w)} i_{rho(v)} nu(u) ),

    whose right side vanishes identically for k = 1 (double contraction of a
    1-form).  Without the correction the identity is false: on the tangent
    algebroid of 3-space with nu(u) = -(contraction of u in d eta),
    eta = x1^2 dx2^dx3, the uncorrected cyclic sum equals 4 dx1.
    """
    r = residuals.algebroid.rank
    for a in range(r):
        for b in range(a, r):
            if not residuals.anchor_sum("nu", a, b).is_zero():
                raise CrossCheckError(f"derived nu antisymmetry fails on pair {(a, b)}")
    for a in range(r):
        for b in range(a + 1, r):
            for c in range(b + 1, r):
                if not residuals.cyclic(a, b, c).is_zero():
                    raise CrossCheckError(f"derived cyclic nu identity fails on {(a, b, c)}")


def im_form_from_base_form(algebroid: LieAlgebroid, eta: DifferentialForm) -> IMForm:
    """The exact family: mu = -(anchor contraction of eta), nu likewise of
    d eta.  Always satisfies the IM conditions."""
    k = eta.degree
    if eta.chart != algebroid.base_chart:
        raise AlgebroidError("base form must live on the algebroid base chart")
    d_eta = exterior_derivative(eta)
    mu = []
    nu = []
    for a in range(algebroid.rank):
        rho = algebroid.anchor_field(a)
        mu.append(-contract(rho, eta))
        nu.append(-contract(rho, d_eta))
    return IMForm(algebroid, BundleForms(k, tuple(mu), tuple(nu)))


def im_routes(im: IMForm, linear: DifferentialForm | None = None) -> dict:
    """The two routes of the main equivalence, for `run_oracle`.

    Route one is `check_im_form`; route two evaluates the fiberwise
    functional of the candidate's linear form on the tangent prolongation
    frame and checks the morphism condition there.  `linear` is that linear
    form when the caller already holds it (Weil mode passes the candidate
    that `decompose` proved equal to it), so `form_frame_functional`
    cross-checks against it instead of building it again.
    """
    return {"im_conditions": lambda: check_im_form(im),
            "morphism": lambda: check_morphism_to_line(*form_frame_functional(im, linear))}


def oracle_equivalence(im: IMForm) -> tuple:
    """Both verdicts of the main equivalence: (IM conditions, morphism).

    The routes are those of `im_routes`, both gated on the algebroid axioms.
    The theorem makes the booleans equal; inequality raises
    OracleDisagreement (a defect in one of two independent paths).
    """
    verdicts = run_oracle(im.algebroid, im_routes(im)).verdicts
    return verdicts["im_conditions"], verdicts["morphism"]


# ---------------------------------------------------------------------------
# k = 2: the lagrangian span of the generators (rho(e_a), mu(e_a))
# ---------------------------------------------------------------------------

def _rational_rank(rows) -> int:
    """Exact rank of a matrix of Fractions by Gaussian elimination."""
    m = [list(map(Fraction, row)) for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = m[rank][col]
        m[rank] = [v / inv for v in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [v - f * w for v, w in zip(m[i], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def check_lagrangian(im: IMForm, sample_points) -> CheckReport:
    """Isotropy symbolically; the lagrangian rank condition at sample points.

    At k = 2 the generators (rho(e_a), mu(e_a)) span a subbundle of the sum
    of tangent and cotangent directions.  Its isotropy under the sum pairing
    is the polynomial identity i_{rho a} mu(b) + i_{rho b} mu(a) = 0, the
    residual IM1 collects.  Being lagrangian additionally needs rank dim(M)
    at a point, which is not a polynomial identity, so it is decided at each
    of `sample_points` by exact rank of the rows (rho_a^j, mu(a)_j).
    """
    if im.k != 2:
        raise AlgebroidError("the lagrangian check needs k = 2")
    A = im.algebroid
    chart = A.base_chart
    n = chart.dim
    ops = Calculus(chart)
    rho = A.anchor_rows
    mu = [f.coeffs for f in im.forms.mu]
    violations = []
    for a in range(A.rank):
        for b in range(a, A.rank):
            groups: dict = {}
            ops.add_contract(groups, rho[a], mu[b], 1)
            ops.add_contract(groups, rho[b], mu[a], 1)
            val = collect(groups).get(())
            if val is not None:
                violations.append(Violation(
                    "ISOTROPY", (A.frame_names[a], A.frame_names[b]), val))
    rows = [[rho[a].get(j) for j in range(n)] + [mu[a].get((j,)) for j in range(n)]
            for a in range(A.rank)]
    for pt_no, point in enumerate(sample_points):
        rank = _rational_rank([[0 if p is None else p.eval(point) for p in row]
                               for row in rows])
        if rank != n:
            label = ",".join(f"{k}={v}" for k, v in sorted(point.items()))
            violations.append(Violation(
                "LAGRANGIAN", (f"point#{pt_no}", label),
                Polynomial.const(chart, rank - n)))
    notes = [f"rank checked at {len(sample_points)} sample points"]
    return CheckReport.collect(violations, notes)
