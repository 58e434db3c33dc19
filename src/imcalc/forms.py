"""Differential forms and multivector fields with exact polynomial coefficients.

Both kinds of object are stored the same way: a degree-k alternating tensor on
a chart is a map from strictly increasing k-tuples of coordinate indices to
Polynomial coefficients.  Degrees exceeding the chart dimension are legal and
simply have an empty table (identically zero); intermediate expressions in the
operator identities legitimately produce them.

The module provides wedge (`add_wedge`), exterior derivative, (iterated)
contraction, Lie derivative, and the Schouten bracket.  The Schouten bracket and the
algebroid layer's Gerstenhaber bracket on wedge powers of sections are one
closed form, `graded_bracket`, built from the operators of `Calculus`: the
derivations [g_t, .] of the generators, the contractions by the anchor
columns, and `add_wedge`.

One accumulation rule builds every output coefficient: an operation groups
(Polynomial, weight) pairs by output key and `collect`s each key with one
`Polynomial.sum_of_products`, not one product and one add per term.  A
weight is a Polynomial factor or an int such as a sign, which scales the
terms of the pair's polynomial in the same term map, so a signed sum makes
no negated copy.  `linear_combination` applies the rule to whole values, and
the operators of `Calculus` hold the sign and sort rules of d, contraction
and derivations for the bracket and the checkers that build residuals from
pairs.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .poly import Chart, ChartError, Polynomial


def sort_indices(indices: Sequence[int]):
    """Sort a tuple of indices; return (sorted_tuple, sign) or None if repeated."""
    idx = list(indices)
    if len(set(idx)) != len(idx):
        return None
    sign = 1
    # insertion sort; chart degrees are tiny
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    return tuple(idx), sign


def collect(groups: Mapping) -> dict:
    """The table {key: the sum of the products in groups[key]}, one
    `Polynomial.sum_of_products` per key, with zero sums dropped.

    Each group is a nonempty list of (Polynomial, weight) pairs, the weight
    a Polynomial on the same chart or an int such as a sign.
    """
    out = {}
    for key, pairs in groups.items():
        p = Polynomial.sum_of_products(pairs[0][0].chart, pairs)
        if not p.is_zero():
            out[key] = p
    return out


class Alternating:
    """Shared canonical storage for forms, multivectors and wedge sections.

    Indices count chart coordinates here; `algebroid.Section` counts frame
    sections instead and carries its algebroid.
    """

    __slots__ = ("chart", "degree", "coeffs")

    def __init__(self, chart: Chart, degree: int, coeffs=None):
        if degree < 0:
            raise ValueError("degree must be non-negative")
        bound = self._index_bound(chart)
        table = {}
        if coeffs:
            for idx, poly in coeffs.items():
                idx = tuple(idx)
                if len(idx) != degree:
                    raise ValueError(f"index tuple {idx} has wrong length for degree {degree}")
                if any(i < 0 or i >= bound for i in idx):
                    raise ChartError(f"index tuple {idx} out of range on chart {chart.name!r}")
                if any(a >= b for a, b in zip(idx, idx[1:])):
                    raise ValueError(f"index tuple {idx} is not strictly increasing")
                if poly.chart != chart:
                    raise ChartError("coefficient lives on the wrong chart")
                if not poly.is_zero():
                    table[idx] = poly
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", table)

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _index_bound(self, chart: Chart) -> int:
        return chart.dim

    def _index_names(self) -> tuple:
        return self.chart.names

    def _like(self, coeffs: dict, degree: int | None = None, kind=None,
              chart: Chart | None = None):
        """A value of this type (or `kind`) over this chart (or `chart`) and
        degree (or `degree`) whose table `coeffs` is already canonical."""
        kind = kind or type(self)
        out = kind.__new__(kind)
        object.__setattr__(out, "chart", self.chart if chart is None else chart)
        object.__setattr__(out, "degree", self.degree if degree is None else degree)
        object.__setattr__(out, "coeffs", coeffs)
        return out

    @classmethod
    def zero(cls, chart: Chart, degree: int):
        return cls(chart, degree)

    @classmethod
    def from_terms(cls, chart: Chart, degree: int, items: Iterable):
        """Build from (index_tuple, Polynomial) pairs in any index order."""
        groups: dict = {}
        for idx, poly in items:
            srt = sort_indices(tuple(idx))
            if srt is not None:
                groups.setdefault(srt[0], []).append((poly, srt[1]))
        return cls.zero(chart, degree)._like(collect(groups))

    def _check_mate(self, other):
        # forms combine with forms, multivectors with multivectors; a
        # VectorField is just a degree-1 multivector here
        if not isinstance(other, Alternating) or self._family() is not other._family():
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if other.chart != self.chart:
            raise ChartError("chart mismatch")

    def _family(self):
        return DifferentialForm if isinstance(self, DifferentialForm) else Multivector

    def __add__(self, other):
        self._check_mate(other)
        if other.degree != self.degree:
            raise ValueError("degree mismatch in sum")
        table = dict(self.coeffs)
        for k, p in other.coeffs.items():
            cur = table.pop(k, None)
            s = p if cur is None else cur + p
            if not s.is_zero():
                table[k] = s
        return self._like(table)

    def __neg__(self):
        return self._like({k: -p for k, p in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def coeff(self, idx) -> Polynomial:
        srt = sort_indices(tuple(idx))
        if srt is None:
            return Polynomial.zero(self.chart)
        key, sign = srt
        p = self.coeffs.get(key)
        if p is None:
            return Polynomial.zero(self.chart)
        return p if sign == 1 else -p

    def scalar(self) -> Polynomial:
        """The underlying Polynomial of a degree-0 value."""
        if self.degree != 0:
            raise ValueError("scalar() is only defined in degree 0")
        return self.coeffs.get((), Polynomial.zero(self.chart))

    def is_zero(self) -> bool:
        return not self.coeffs

    def promote(self, new_chart: Chart):
        """Reinterpret on a larger chart (indices remapped by coordinate name)."""
        remap = [new_chart.index(c.name) for c in self.chart.coords]
        table: dict = {}
        for idx, p in self.coeffs.items():
            # distinct names have distinct indices, so keys stay distinct
            key, sign = sort_indices(tuple(remap[i] for i in idx))
            q = p.promote(new_chart)
            table[key] = q if sign == 1 else -q
        return self._like(table, chart=new_chart)

    def label(self, idx) -> str:
        """The wedge of the glyphs of a component index, e.g. dx1^dx2."""
        names = self._index_names()
        return "^".join(self._GLYPH.format(names[i]) for i in idx)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.chart == other.chart
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.chart, self.degree, frozenset(self.coeffs)))

    def __str__(self):
        if not self.coeffs:
            return "0"
        pieces = []
        for idx in sorted(self.coeffs):
            names = self.label(idx)
            pieces.append(f"({self.coeffs[idx]}) {names}" if names else f"({self.coeffs[idx]})")
        return " + ".join(pieces)

    def __repr__(self):
        return f"{type(self).__name__}(deg {self.degree} on {self.chart.name!r}: {self})"


class DifferentialForm(Alternating):
    _GLYPH = "d{}"


class Multivector(Alternating):
    _GLYPH = "@{}"


class VectorField(Multivector):
    """Degree-1 multivector; components indexed by chart coordinate."""

    def __init__(self, chart: Chart, coeffs=None):
        super().__init__(chart, 1, coeffs)

    @classmethod
    def from_components(cls, chart: Chart, comps: Sequence[Polynomial]) -> "VectorField":
        if len(comps) != chart.dim:
            raise ChartError("need one component per chart coordinate")
        return cls(chart, {(i,): p for i, p in enumerate(comps) if not p.is_zero()})

    def component(self, i: int) -> Polynomial:
        return self.coeffs.get((i,), Polynomial.zero(self.chart))


def linear_combination(terms: Sequence):
    """The sum of w * x over a nonempty list of (x, w) pairs: x values of
    one type, chart and degree, w Polynomial or int weights.  Every output
    coefficient is one `collect`ed sum.
    """
    like = terms[0][0]
    groups: dict = {}
    for x, w in terms:
        like._check_mate(x)
        if x.degree != like.degree:
            raise ValueError("degree mismatch in sum")
        add_scaled(groups, x.coeffs, w)
    return like._like(collect(groups))


# ---------------------------------------------------------------------------
# the operators on tables: each adds (polynomial, weight) pairs into a
# caller's groups, for the caller to `collect`
# ---------------------------------------------------------------------------

def add_scaled(groups: dict, table: Mapping, weight) -> None:
    """Add weight * table, the weight a Polynomial or an int."""
    for key, p in table.items():
        groups.setdefault(key, []).append((p, weight))


def add_wedge(groups: dict, table: Mapping, weight: tuple, s: int = 1,
              head: tuple = (), tail: tuple = ()) -> None:
    """Add s * w * (g_head ^ table ^ g_tail) for a weight pair (w, -w) of
    Polynomials or ints, g the generators the indices count."""
    odd = s < 0
    for key, p in table.items():
        merged = sort_indices(head + key + tail)
        if merged is not None:
            groups.setdefault(merged[0], []).append((p, weight[odd ^ (merged[1] < 0)]))


class Calculus:
    """One call's partials and negations, and the operators that read them.

    `partial(f, j)` is df/dx_j, kept under (id(f), j), and `pm(p)` is
    (p, -p), kept under id(p); an entry holds its polynomial, which keeps
    the id in its key unique while the table lives, and the table is dropped
    with the call that built it.  Each operator adds s * its value to a
    caller's groups as (polynomial, weight) pairs keyed by output index.  A
    sign scales an int weight or picks a member of a (w, -w) pair (the
    fields and rows of derivations, built once per call by `field` and
    `lie`); a contraction takes plain components and negates one through
    `pm` only where a position needs it.  On a table w over generators g_t
    (dx_t, or e_t for sections), p 0-based:

        d:            (dw)_{sort(j, I)} += (sign of the sort) dw_I/dx_j
        contraction:  (i_X w)_{I minus I_p} += (-1)^p X^{I_p} w_I
        derivation:   D(f g_I) = X(f) g_I + f sum_p g_I1 ^ .. D(g_Ip) .. ^ g_Iq

    X a field acting on coefficients and D(g_t) = sum_l w_tl g_l, the term
    l = t kept in place.  `lie` gives L_X of forms, D(dx_t) = d X^t, and
    `LieAlgebroid.frame_derivation` the bracket P -> [P, e_b]; with the
    contraction and `add_wedge`, these are all `graded_bracket` is made of.
    """

    def __init__(self, chart: Chart):
        self.names = chart.names
        self.partials: dict = {}    # (id(f), j) -> (f, df/dx_j)
        self.negations: dict = {}   # id(p) -> (p, -p)

    def partial(self, f: Polynomial, j: int) -> Polynomial:
        entry = self.partials.get((id(f), j))
        if entry is None:
            entry = self.partials[id(f), j] = (f, f.diff(self.names[j]))
        return entry[1]

    def pm(self, p: Polynomial) -> tuple:
        entry = self.negations.get(id(p))
        if entry is None:
            entry = self.negations[id(p)] = (p, -p)
        return entry

    def field(self, components: Iterable, s: int = 1) -> dict:
        """{j: (Y^j, -Y^j)} over the nonzero components of Y = s * X, X
        given by (j, X^j) pairs."""
        out = {}
        for j, p in components:
            if not p.is_zero():
                out[j] = self.pm(p) if s > 0 else self.pm(p)[::-1]
        return out

    def lie(self, components: Iterable) -> tuple:
        """(field, rows) of the Lie derivative L_X of forms, X given by
        (j, X^j) pairs: rows[t] holds (l, (dX^t/dx_l, negation))."""
        field = self.field(components)
        rows = {t: tuple((l, self.pm(dp)) for l in range(len(self.names))
                         if not (dp := self.partial(comp[0], l)).is_zero())
                for t, comp in field.items()}
        return field, rows

    def add_d(self, groups: dict, table: Mapping, s: int) -> None:
        """Add s * d of a form table, s an int."""
        for idx, f in table.items():
            for j in range(len(self.names)):
                if j not in idx:
                    df = self.partial(f, j)
                    if not df.is_zero():
                        key, sign = sort_indices((j,) + idx)
                        groups.setdefault(key, []).append((df, s * sign))

    def add_contract(self, groups: dict, components: Mapping, table: Mapping, s: int) -> None:
        """Add s * the contraction of a table by the field with `components`
        {i: X^i}, s = 1 or -1, each negated only where a position needs it."""
        odd = s < 0
        for idx, f in table.items():
            for pos, i in enumerate(idx):
                comp = components.get(i)
                if comp is not None:
                    if (pos + odd) & 1:
                        comp = self.pm(comp)[1]
                    groups.setdefault(idx[:pos] + idx[pos + 1:], []).append((comp, f))

    def add_derivation(self, groups: dict, table: Mapping, field: Mapping, rows: Mapping,
                       s: int) -> None:
        """Add s * D of a table, s = 1 or -1, for the derivation D acting as
        the `field` on coefficients and by `rows` on generators, rows[t]
        holding (l, (w_tl, -w_tl)) pairs."""
        odd = s < 0
        for idx, f in table.items():
            for j, comp in field.items():
                df = self.partial(f, j)
                if not df.is_zero():
                    groups.setdefault(idx, []).append((df, comp[odd]))
            for pos, t in enumerate(idx):
                for l, w in rows.get(t, ()):
                    if l == t:
                        groups.setdefault(idx, []).append((f, w[odd]))
                        continue
                    merged = sort_indices(idx[:pos] + (l,) + idx[pos + 1:])
                    if merged is not None:
                        groups.setdefault(merged[0], []).append((f, w[odd ^ (merged[1] < 0)]))


def exterior_derivative(a: DifferentialForm) -> DifferentialForm:
    """de Rham differential; satisfies d(d(a)) = 0.  Each partial is asked
    for once, so it comes straight from `diff`, with no `Calculus` table."""
    groups: dict = {}
    for idx, f in a.coeffs.items():
        for j, name in enumerate(a.chart.names):
            if j not in idx:
                df = f.diff(name)
                if not df.is_zero():
                    key, sign = sort_indices((j,) + idx)
                    groups.setdefault(key, []).append((df, sign))
    return a._like(collect(groups), a.degree + 1)


def contract(x: VectorField, a: DifferentialForm) -> DifferentialForm:
    """Interior product i_x a."""
    if x.chart != a.chart:
        raise ChartError("chart mismatch")
    if a.degree == 0:
        return DifferentialForm(a.chart, 0)
    groups: dict = {}
    Calculus(a.chart).add_contract(groups, {i: p for (i,), p in x.coeffs.items()}, a.coeffs, 1)
    return a._like(collect(groups), a.degree - 1)


def iterated_contract(fields: Sequence[VectorField], a: DifferentialForm) -> DifferentialForm:
    """The operator i_{U_m} ... i_{U_1} for fields U_1..U_m (U_1 applied first)."""
    for x in fields:
        a = contract(x, a)
    return a


class Minors:
    """The minors of a fixed list of rows, each expanded at most once.

    A row maps positions to Polynomial components on `chart`; a missing
    position is a zero entry.  `minors(ids, cols)` is the determinant of the
    matrix rows[ids[s]].get(cols[t]), expanded along its first row; its
    sub-minors come from the same table.  A table belongs to the call that
    built it and is dropped with it.
    """

    def __init__(self, rows: Sequence[Mapping], chart: Chart):
        self.rows = rows
        self.chart = chart
        self.table: dict = {}

    def minors(self, ids: tuple, cols: tuple) -> Polynomial:
        """The minor over the ascending row ids `ids` and the columns `cols`."""
        key = (ids, cols)
        value = self.table.get(key)
        if value is None:
            value = self.table[key] = self._expand(ids, cols)
        return value

    def _expand(self, ids: tuple, cols: tuple) -> Polynomial:
        if not ids:
            return Polynomial.const(self.chart, 1)
        row, rest = self.rows[ids[0]], ids[1:]
        pairs = []
        for t, col in enumerate(cols):
            comp = row.get(col)
            if comp is None:
                continue
            sub = self.minors(rest, cols[:t] + cols[t + 1:])
            if not sub.is_zero():
                pairs.append((comp, sub if t % 2 == 0 else -sub))
        return Polynomial.sum_of_products(self.chart, pairs)

    def contract(self, coeffs: Mapping, ids: tuple, unit=None) -> Polynomial:
        """Contract coefficients {index tuple: Polynomial on chart} against
        the rows `ids`: the sum of coeff * minors(ids, index).

        `unit` = (row, col) adds 1 at `col` to that row of `ids`.  By
        linearity in that row, the minor of the augmented rows is the minor
        of the plain ones plus the signed minor without that row and column,
        so every minor stays a minor of the shared rows.
        """
        pairs = []
        for idx, coeff in coeffs.items():
            pairs.append((coeff, self.minors(ids, idx)))
            if unit is not None and unit[1] in idx:
                s, t = ids.index(unit[0]), idx.index(unit[1])
                sub = self.minors(ids[:s] + ids[s + 1:], idx[:t] + idx[t + 1:])
                pairs.append((coeff, sub if (s + t) % 2 == 0 else -sub))
        return Polynomial.sum_of_products(self.chart, pairs)


def lie_derivative(x: VectorField, a):
    """Lie derivative along a vector field.

    Forms use the Cartan magic formula L_x = i_x d + d i_x (flows would leave
    the polynomial setting); multivectors use the Schouten bracket [x, .].
    """
    if isinstance(a, DifferentialForm):
        if x.chart != a.chart:
            raise ChartError("chart mismatch")
        out = contract(x, exterior_derivative(a))
        if a.degree == 0:
            return out
        return linear_combination([(out, 1), (exterior_derivative(contract(x, a)), 1)])
    if isinstance(a, Multivector):
        return schouten(x, a)
    raise TypeError("lie_derivative expects a DifferentialForm or Multivector")


# ---------------------------------------------------------------------------
# the Gerstenhaber bracket
# ---------------------------------------------------------------------------

def graded_bracket(ops: Calculus, p_table: Mapping, p: int, q_table: Mapping, q: int,
                   derivations: Mapping, columns: Sequence[Mapping]) -> dict:
    """The bracket [P, Q] of a degree-p table P = sum f_T g_T and a degree-q
    table Q over generators g_t, a table of degree p + q - 1 (empty for two
    degree-0 inputs), in closed form (s 1-based):

        [P, Q] = sum_T sum_s (-1)^((p-s)(q-1)) f_T g_T1 ^ .. [g_Ts, Q] .. ^ g_Tp
                 - (-1)^(p(q-1)) sum_T sum_i (df_T/dx_i) (i_{X_i} Q) ^ g_T

    the graded Leibniz extension of the brackets of generators and their
    action on coefficients, with graded antisymmetry
    [u, v] = -(-1)^((p-1)(q-1)) [v, u].  `derivations[t]`, for each
    generator t of P, is the (field, rows) of the derivation P -> [P, g_t]
    (`LieAlgebroid.frame_derivation`), so [g_t, Q] is minus it on Q, and
    X_i = `columns[i]` = {t: the i-th anchor component of g_t}.  Each
    [g_t, Q] and each i_{X_i} Q is one table of this call, built by the
    operators of `ops`.
    """
    brackets = {}
    for t, derivation in derivations.items():
        groups: dict = {}
        ops.add_derivation(groups, q_table, *derivation, -1)
        brackets[t] = collect(groups)
    contractions = []
    for i, column in enumerate(columns):
        groups = {}
        ops.add_contract(groups, column, q_table, 1)
        if groups:
            contractions.append((i, collect(groups)))
    sign = 1 if p * (q - 1) % 2 else -1  # -(-1)^(p(q-1))
    groups = {}
    for idx, f in p_table.items():
        w = ops.pm(f)
        for pos, t in enumerate(idx):
            add_wedge(groups, brackets[t], w, -1 if (p - 1 - pos) * (q - 1) % 2 else 1,
                      idx[:pos], idx[pos + 1:])
        for i, table in contractions:
            df = ops.partial(f, i)
            if not df.is_zero():
                add_wedge(groups, table, ops.pm(df), sign, tail=idx)
    return collect(groups)


def schouten(p: Multivector, q: Multivector) -> Multivector:
    """Schouten bracket of multivector fields on a chart.

    Extends the Jacobi-Lie bracket of vector fields and the directional
    derivative on functions; the sign convention is graded antisymmetry
    [u,v] = -(-1)^((p-1)(q-1))[v,u] with the graded Leibniz rule
    [u, v^w] = [u,v]^w + (-1)^((p-1)q) v^[u,w].  It is `graded_bracket`
    on the frame d/dx_t: the anchor is the identity and no two generators
    have a bracket.
    """
    if p.chart != q.chart:
        raise ChartError("chart mismatch")
    ops = Calculus(p.chart)
    one = Polynomial.const(p.chart, 1)
    generators = {t for idx in p.coeffs for t in idx}
    derivations = {t: (ops.field([(t, one)], -1), {}) for t in generators}
    columns = [{i: one} for i in range(p.chart.dim)]
    table = graded_bracket(ops, p.coeffs, p.degree, q.coeffs, q.degree, derivations, columns)
    return p._like(table, max(p.degree + q.degree - 1, 0), Multivector)
