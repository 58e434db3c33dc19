"""IM k-form verification, constructors, the main equivalence oracle, and the
k=2 Dirac/Poisson specializations.

An IM ("infinitesimally multiplicative") k-form on a Lie algebroid is a pair
of bundle maps (mu into (k-1)-forms, nu into k-forms) satisfying three
compatibility conditions with the anchor and bracket.  `check_im_form`
verifies them on frame pairs; `oracle_equivalence` compares the verdict with
an independent computation, the morphism condition of the induced fiberwise
functional on the tangent prolongation.  The two verdicts provably agree, so
any disagreement is raised as a library defect rather than returned.

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
from itertools import product
import random
from typing import Sequence

from .algebroid import (
    CheckReport,
    LieAlgebroid,
    Violation,
    axiom_gate,
    check_morphism_to_line,
    component_violations,
    run_oracle,
    tangent_prolongation,
)
from .errors import AlgebroidError, CrossCheckError
from .forms import (
    DifferentialForm,
    VectorField,
    as_vector_field,
    contract,
    exterior_derivative,
    lie_derivative,
)
from .linforms import BundleForms, form_frame_functional, linear_form, total_chart_of
from .poly import Chart, Polynomial


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


def _bracket_image(im: IMForm, maps: Sequence[DifferentialForm], a: int, b: int,
                   degree: int) -> DifferentialForm:
    """maps([e_a, e_b]) for a bundle map given by frame values."""
    out = DifferentialForm(im.algebroid.base_chart, degree)
    for c, w in im.algebroid.bracket_frame_row(a, b):
        out = out + maps[c].scale(w)
    return out


def im_residual_1(im: IMForm, a: int, b: int) -> DifferentialForm:
    rho_a = im.algebroid.anchor_field(a)
    rho_b = im.algebroid.anchor_field(b)
    return contract(rho_a, im.forms.mu[b]) + contract(rho_b, im.forms.mu[a])


def im_residual_2(im: IMForm, a: int, b: int) -> DifferentialForm:
    rho_a = im.algebroid.anchor_field(a)
    rho_b = im.algebroid.anchor_field(b)
    return (_bracket_image(im, im.forms.mu, a, b, im.k - 1)
            - lie_derivative(rho_a, im.forms.mu[b])
            + contract(rho_b, exterior_derivative(im.forms.mu[a]))
            + contract(rho_b, im.forms.nu[a]))


def im_residual_3(im: IMForm, a: int, b: int) -> DifferentialForm:
    rho_a = im.algebroid.anchor_field(a)
    rho_b = im.algebroid.anchor_field(b)
    return (_bracket_image(im, im.forms.nu, a, b, im.k)
            - lie_derivative(rho_a, im.forms.nu[b])
            + contract(rho_b, exterior_derivative(im.forms.nu[a])))


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
    """
    A = im.algebroid
    r = A.rank
    violations = list(axiom_gate(A))
    notes = []
    if violations:
        notes.append("algebroid axioms fail; IM verdicts reported on non-Lie data")

    im1 = []
    for a in range(r):
        for b in range(a, r):
            res = im_residual_1(im, a, b)
            if not res.is_zero():
                im1.extend(component_violations(
                    "IM1", (A.frame_names[a], A.frame_names[b]), res))
    caveat = None
    if im1:
        caveat = "frame-reduction not certified (IM1 fails)"
        notes.append("IM1 fails: IM2/IM3 frame checks are not certified for general sections")
    violations.extend(im1)

    im23_clean = True
    for a in range(r):
        for b in range(r):
            res = im_residual_2(im, a, b)
            if not res.is_zero():
                im23_clean = False
                violations.extend(component_violations(
                    "IM2", (A.frame_names[a], A.frame_names[b]), res, caveat))
    for a in range(r):
        for b in range(a + 1, r):
            res = im_residual_3(im, a, b)
            if not res.is_zero():
                im23_clean = False
                violations.extend(component_violations(
                    "IM3", (A.frame_names[a], A.frame_names[b]), res, caveat))

    if not violations and im23_clean:
        _assert_nu_identities(im)
    return CheckReport.collect(violations, notes)


def _assert_nu_identities(im: IMForm) -> None:
    """The nu identities implied by IM1-IM3; failure is a library defect.

    Antisymmetry of nu under the anchor holds on pairs.  The cyclic
    Lie-derivative identity needs an exact correction term in degrees k >= 2:

        sum_cyc i_{rho(w)}(L_{rho(v)} nu(u) - L_{rho(u)} nu(v))
            = -2 d( i_{rho(w)} i_{rho(v)} nu(u) ),

    whose right side vanishes identically for k = 1 (double contraction of a
    1-form).  Without the correction the identity is false: on the tangent
    algebroid of 3-space with nu(u) = -(contraction of u in d eta),
    eta = x1^2 dx2^dx3, the uncorrected cyclic sum equals 4 dx1.
    """
    A = im.algebroid
    r = A.rank
    rho = [A.anchor_field(a) for a in range(r)]
    for a in range(r):
        for b in range(a, r):
            res = contract(rho[a], im.forms.nu[b]) + contract(rho[b], im.forms.nu[a])
            if not res.is_zero():
                raise CrossCheckError(f"derived nu antisymmetry fails on pair {(a, b)}")
    for a in range(r):
        for b in range(a + 1, r):
            for c in range(b + 1, r):
                total = DifferentialForm(A.base_chart, im.k - 1)
                for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
                    inner = (lie_derivative(rho[v], im.forms.nu[u])
                             - lie_derivative(rho[u], im.forms.nu[v]))
                    total = total + contract(rho[w], inner)
                triple = contract(rho[c], contract(rho[b], im.forms.nu[a]))
                if im.k >= 2:
                    total = total + exterior_derivative(triple).scale(Fraction(2))
                elif not triple.is_zero():
                    raise CrossCheckError("degree bookkeeping broke in the nu identity")
                if not total.is_zero():
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
    for a in range(algebroid.rank):
        for b in range(a + 1, algebroid.rank):
            if not im_residual_3(im, a, b).is_zero():
                raise CrossCheckError("relative construction failed its own IM3 guarantee")
    return im


def im_routes(im: IMForm, k: int, prolongation: LieAlgebroid | None = None) -> dict:
    """The two routes of the main equivalence, for `run_oracle`.

    Route one is `check_im_form`; route two builds the linear form of the
    candidate, evaluates its fiberwise functional on the tangent prolongation
    frame and checks the morphism condition there.
    """
    if k != im.k:
        raise AlgebroidError(f"candidate has k={im.k}, oracle called with k={k}")
    A = im.algebroid

    def morphism() -> CheckReport:
        form = linear_form(im.forms, total_chart_of(A))
        prol = prolongation if prolongation is not None else tangent_prolongation(A, k)
        return check_morphism_to_line(prol, form_frame_functional(form, A, k, prol))

    return {"im_conditions": lambda: check_im_form(im), "morphism": morphism}


def oracle_equivalence(im: IMForm, k: int,
                       prolongation: LieAlgebroid | None = None) -> tuple:
    """Both verdicts of the main equivalence: (IM conditions, morphism).

    The routes are those of `im_routes`, both gated on the algebroid axioms.
    The theorem makes the booleans equal; inequality raises
    OracleDisagreement (a defect in one of two independent paths).
    """
    verdicts = run_oracle(im.algebroid, im_routes(im, k, prolongation)).verdicts
    return verdicts["im_conditions"], verdicts["morphism"]


# ---------------------------------------------------------------------------
# k = 2: Dirac candidates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiracCandidate:
    """Generators (anchor image, mu value) of a candidate lagrangian subbundle
    of the direct sum of tangent and cotangent directions, with the optional
    twisting 2-forms on generators."""

    algebroid: LieAlgebroid
    vectors: tuple       # VectorField per frame section
    covectors: tuple     # 1-form per frame section
    twists: tuple        # 2-form per frame section (the nu data), may be zeros

    @property
    def rank(self) -> int:
        return len(self.vectors)


def dirac_candidate(im: IMForm) -> DiracCandidate:
    if im.k != 2:
        raise AlgebroidError("Dirac candidates require k = 2")
    A = im.algebroid
    return DiracCandidate(
        A,
        tuple(A.anchor_field(a) for a in range(A.rank)),
        tuple(im.forms.mu),
        tuple(im.forms.nu),
    )


def default_sample_points(chart: Chart, extra: int = 10, seed: int = 2024):
    """The integer grid {-1,0,1}^dim plus `extra` seeded random rational points."""
    names = chart.names
    points = [dict(zip(names, combo)) for combo in product((-1, 0, 1), repeat=len(names))]
    rng = random.Random(seed)
    for _ in range(extra):
        points.append({n: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for n in names})
    return points


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


def check_lagrangian(candidate: DiracCandidate, sample_points=None) -> CheckReport:
    """Isotropy symbolically; the lagrangian rank condition at sample points.

    Isotropy of the generator span under the sum pairing is the polynomial
    identity mu_b(rho_a) + mu_a(rho_b) = 0 (the first IM condition).  Being
    lagrangian additionally needs rank dim(M) at a point, which is not a
    polynomial identity, so it is decided per sample point by exact rank.
    """
    A = candidate.algebroid
    chart = A.base_chart
    n = chart.dim
    violations = []
    for a in range(candidate.rank):
        for b in range(a, candidate.rank):
            val = (contract(candidate.vectors[a], candidate.covectors[b])
                   + contract(candidate.vectors[b], candidate.covectors[a])).scalar()
            if not val.is_zero():
                violations.append(Violation(
                    "ISOTROPY", (A.frame_names[a], A.frame_names[b]), val))
    points = sample_points if sample_points is not None else default_sample_points(chart)
    notes = []
    for pt_no, point in enumerate(points):
        rows = []
        for a in range(candidate.rank):
            row = [candidate.vectors[a].component(j).eval(point) for j in range(n)]
            row += [candidate.covectors[a].coeff((j,)).eval(point) for j in range(n)]
            rows.append(row)
        rank = _rational_rank(rows)
        if rank != n:
            label = ",".join(f"{k}={v}" for k, v in sorted(point.items()))
            violations.append(Violation(
                "LAGRANGIAN", (f"point#{pt_no}", label),
                Polynomial.const(chart, rank - n)))
    notes.append(f"rank checked at {len(points)} sample points")
    return CheckReport.collect(violations, notes)


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
            vec = vec + x.scale(g)
            cov = cov + al.scale(g)
            twist = twist + tw.scale(g)
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
                residual = residual - candidate.vectors[c].scale(gamma.coeff((c,)))
            yield (a, b), as_vector_field(residual)
