"""Test batteries that check the library from the outside.

Each one is a second route to a fact the library computes, or a consequence
of one: the tangent lift against the canonical involution, the twisted
bracket and the span closure of graph-of-bivector Dirac candidates, the
frame values of an IM form by iterated contraction, the full evaluation of a multivector on covectors, and the extension of a
derivation to all wedge sections.  The library does not call
them, so they live with the tests.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from imcalc.algebroid import (
    Section, core_frame_name, linear_frame_name, tangent_copy_name, tangent_prolongation,
)
from imcalc.errors import AlgebroidError
from imcalc.forms import (
    DifferentialForm,
    Minors,
    Multivector,
    VectorField,
    as_vector_field,
    contract,
    contract_covector,
    exterior_derivative,
    iterated_contract,
    lie_derivative,
)
from imcalc.imforms import DiracCandidate
from imcalc.multivec import Derivation
from imcalc.linforms import tangent_lift, tangent_total_chart
from imcalc.poly import Chart, Coord, Polynomial, ROLE_FIBER


# -- the tangent lift ----------------------------------------------------------

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


# -- k = 2: Dirac candidates ---------------------------------------------------

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


# -- frame values on the tangent prolongation ---------------------------------

def reference_form_frame_values(im) -> dict:
    """The frame values of `linforms.form_frame_functional`, by contracting
    forms with the tautological dotted fields U_1..U_k one field at a time:
    core (a, n) is (-1)^(n-1) i_{U_k} .. i_{U_1} mu_a with U_n left out, and
    linear a is i_{U_k} .. i_{U_1} (d mu_a + nu_a)."""
    algebroid, bundle_forms, k = im.algebroid, im.forms, im.k
    prol = tangent_prolongation(algebroid, k)
    chart = prol.base_chart
    taut = [VectorField(chart, {(i,): x for i, x in enumerate(dotted)})
            for dotted in prol._copy_layout.variables(chart)]
    values = {}
    for a, frame in enumerate(algebroid.frame_names):
        mu_a = bundle_forms.mu[a].promote(chart)
        for n in range(1, k + 1):
            val = iterated_contract(taut[:n - 1] + taut[n:], mu_a).scalar()
            values[core_frame_name(frame, n)] = -val if (n - 1) % 2 else val
        full = exterior_derivative(bundle_forms.mu[a]) + bundle_forms.nu[a]
        values[linear_frame_name(frame)] = iterated_contract(taut, full.promote(chart)).scalar()
    return values


# -- multivectors ---------------------------------------------------------------

def evaluate_multivector(p: Multivector, covectors: Sequence[DifferentialForm]) -> Polynomial:
    """Full contraction p(a_1, ..., a_k) as a Polynomial (i_{a_k}...i_{a_1} p)."""
    if len(covectors) != p.degree:
        raise ValueError("need exactly degree-many covectors")
    for alpha in covectors:
        p = contract_covector(alpha, p)
    return p.scalar()


# -- derivations ------------------------------------------------------------------

def scalar_action(d: Derivation, f: Polynomial) -> Section:
    """delta f = sum_j (df/dx_j) (delta x_j), the derivation on scalars."""
    A = d.algebroid
    out = Section.zero(A, d.k - 1)
    for j, name in enumerate(A.base_chart.names):
        df = f.diff(name)
        if not df.is_zero():
            out = out + d.coord_action(j).scale(df)
    return out


def apply_derivation(d: Derivation, w: Section) -> Section:
    """Extension to arbitrary wedge sections by the graded Leibniz rule."""
    A = d.algebroid
    out = Section.zero(A, w.degree + d.k - 1)
    for idx, poly in w.coeffs.items():
        pure = Section(A, len(idx), {idx: Polynomial.const(A.base_chart, 1)})
        out = out + _apply_pure(d, idx).scale(poly)
        out = out + scalar_action(d, poly).wedge(pure)
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
    out = head.wedge(rest) + e_head.wedge(tail).scale(sign)
    return out
