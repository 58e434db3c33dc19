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
)
from .errors import AlgebroidError, CrossCheckError
from .forms import (
    DifferentialForm,
    VectorField,
    as_vector_field,
    contract,
    exterior_derivative,
    lie_derivative,
    linear_combination,
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


class _Operators:
    """The Cartan operators on the frame images of one IM candidate, each
    computed at most once while one check runs.

    For kind "mu" or "nu" and frame indices a, b the table holds d of the
    image of e_b, its contraction i_{rho(a)}, the contraction i_{rho(a)} of
    its d, and the d of its contraction.  The Lie derivative L_{rho(a)}
    enters a sum as the two terms of Cartan's formula L = i d + d i (the
    d i term is absent on functions), and each residual is one
    `linear_combination` of table entries.  A table belongs to one call and
    is dropped with it.
    """

    def __init__(self, im: IMForm):
        A = im.algebroid
        self.im = im
        self.rho = [A.anchor_field(a) for a in range(A.rank)]
        self.maps = {"mu": im.forms.mu, "nu": im.forms.nu}
        self.memo: dict = {}

    def _entry(self, key: tuple, compute) -> DifferentialForm:
        value = self.memo.get(key)
        if value is None:
            value = self.memo[key] = compute()
        return value

    def d(self, kind: str, b: int) -> DifferentialForm:
        return self._entry(("d", kind, b), lambda: exterior_derivative(self.maps[kind][b]))

    def i(self, kind: str, a: int, b: int) -> DifferentialForm:
        return self._entry(("i", kind, a, b), lambda: contract(self.rho[a], self.maps[kind][b]))

    def i_d(self, kind: str, a: int, b: int) -> DifferentialForm:
        return self._entry(("i_d", kind, a, b), lambda: contract(self.rho[a], self.d(kind, b)))

    def d_i(self, kind: str, a: int, b: int) -> DifferentialForm:
        return self._entry(("d_i", kind, a, b), lambda: exterior_derivative(self.i(kind, a, b)))

    def lie(self, kind: str, a: int, b: int, weight: int) -> list:
        """weight * L_{rho(a)} of the image of e_b, as (form, weight) terms."""
        terms = [(self.i_d(kind, a, b), weight)]
        if self.maps[kind][b].degree > 0:
            terms.append((self.d_i(kind, a, b), weight))
        return terms

    def drop(self, kind: str) -> None:
        """Forget the entries of one kind once no later condition uses them."""
        self.memo = {key: v for key, v in self.memo.items() if key[1] != kind}

    def bracket_image(self, kind: str, a: int, b: int) -> list:
        """The image of [e_a, e_b] under the bundle map `kind`, as (form,
        weight) terms."""
        maps = self.maps[kind]
        return [(maps[c], w) for c, w in self.im.algebroid.bracket_frame_row(a, b)]


def im_residual_1(ops: _Operators, a: int, b: int) -> DifferentialForm:
    return linear_combination([(ops.i("mu", a, b), 1), (ops.i("mu", b, a), 1)])


def im_residual_2(ops: _Operators, a: int, b: int) -> DifferentialForm:
    return linear_combination(ops.bracket_image("mu", a, b) + ops.lie("mu", a, b, -1)
                              + [(ops.i_d("mu", b, a), 1), (ops.i("nu", b, a), 1)])


def im_residual_3(ops: _Operators, a: int, b: int) -> DifferentialForm:
    return linear_combination(ops.bracket_image("nu", a, b) + ops.lie("nu", a, b, -1)
                              + [(ops.i_d("nu", b, a), 1)])


def check_im_form(im: IMForm) -> CheckReport:
    """Verify the three IM conditions on frame pairs.

    IM1 runs over unordered pairs (diagonal included), IM2 over all ordered
    pairs, IM3 over unordered off-diagonal pairs; this matches exactly the
    frame conditions produced by the core/core, core/linear and linear/linear
    cases of the morphism computation.  The frame reduction of IM2/IM3 to
    general sections is only valid once IM1 holds, so IM2/IM3 violations are
    flagged when IM1 failed.  When all three pass, the two derived identities
    for nu (antisymmetry under the anchor and the cyclic Lie-derivative
    identity) are asserted as consistency checks.  All conditions share one
    operator table; its mu entries are dropped after IM2, their last use.
    """
    A = im.algebroid
    r = A.rank
    violations = list(axiom_gate(A))
    notes = []
    if violations:
        notes.append("algebroid axioms fail; IM verdicts reported on non-Lie data")
    ops = _Operators(im)

    im1 = []
    for a in range(r):
        for b in range(a, r):
            res = im_residual_1(ops, a, b)
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
            res = im_residual_2(ops, a, b)
            if not res.is_zero():
                im23_clean = False
                violations.extend(component_violations(
                    "IM2", (A.frame_names[a], A.frame_names[b]), res, caveat))
    ops.drop("mu")
    for a in range(r):
        for b in range(a + 1, r):
            res = im_residual_3(ops, a, b)
            if not res.is_zero():
                im23_clean = False
                violations.extend(component_violations(
                    "IM3", (A.frame_names[a], A.frame_names[b]), res, caveat))

    if not violations and im23_clean:
        _assert_nu_identities(ops)
    return CheckReport.collect(violations, notes)


def _assert_nu_identities(ops: _Operators) -> None:
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
    im = ops.im
    A = im.algebroid
    r = A.rank
    rho = ops.rho
    for a in range(r):
        for b in range(a, r):
            if not linear_combination([(ops.i("nu", a, b), 1), (ops.i("nu", b, a), 1)]).is_zero():
                raise CrossCheckError(f"derived nu antisymmetry fails on pair {(a, b)}")
    for a in range(r):
        for b in range(a + 1, r):
            for c in range(b + 1, r):
                terms = []
                for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
                    inner = linear_combination(ops.lie("nu", v, u, 1) + ops.lie("nu", u, v, -1))
                    terms.append((contract(rho[w], inner), 1))
                triple = contract(rho[c], ops.i("nu", b, a))
                if im.k >= 2:
                    terms.append((exterior_derivative(triple), 2))
                elif not triple.is_zero():
                    raise CrossCheckError("degree bookkeeping broke in the nu identity")
                total = linear_combination(terms)
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
    ops = _Operators(im)
    for a in range(algebroid.rank):
        for b in range(a + 1, algebroid.rank):
            if not im_residual_3(ops, a, b).is_zero():
                raise CrossCheckError("relative construction failed its own IM3 guarantee")
    return im


def im_routes(im: IMForm, k: int, form: DifferentialForm | None = None) -> dict:
    """The two routes of the main equivalence, for `run_oracle`.

    Route one is `check_im_form`; route two takes the linear form of the
    candidate, evaluates its fiberwise functional on the tangent prolongation
    frame and checks the morphism condition there.  `form` is that linear
    form when the caller already holds it, as Weil mode does (its candidate
    is the linear form and `im.forms` its decomposition); otherwise the
    route builds it from `im.forms`.
    """
    if k != im.k:
        raise AlgebroidError(f"candidate has k={im.k}, oracle called with k={k}")
    A = im.algebroid

    def morphism() -> CheckReport:
        linear = form if form is not None else linear_form(im.forms, total_chart_of(A))
        functional = form_frame_functional(linear, A, k, im.forms)
        return check_morphism_to_line(functional.algebroid, functional)

    return {"im_conditions": lambda: check_im_form(im), "morphism": morphism}


def oracle_equivalence(im: IMForm, k: int) -> tuple:
    """Both verdicts of the main equivalence: (IM conditions, morphism).

    The routes are those of `im_routes`, both gated on the algebroid axioms.
    The theorem makes the booleans equal; inequality raises
    OracleDisagreement (a defect in one of two independent paths).
    """
    verdicts = run_oracle(im.algebroid, im_routes(im, k)).verdicts
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
