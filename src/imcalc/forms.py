"""Differential forms and multivector fields with exact polynomial coefficients.

Both kinds of object are stored the same way: a degree-k alternating tensor on
a chart is a map from strictly increasing k-tuples of coordinate indices to
Polynomial coefficients.  Degrees exceeding the chart dimension are legal and
simply have an empty table (identically zero); intermediate expressions in the
operator identities legitimately produce them.

The module provides wedge, exterior derivative, (iterated) contraction, Lie
derivative, and the Schouten bracket.  The Schouten bracket is one instance of
a generic graded bracket engine (`graded_bracket`) that extends a frame-level
bracket and a derivation action on coefficients by

    [u, v ^ w] = [u, v] ^ w + (-1)^((p-1) q) v ^ [u, w]
    [u, v]     = -(-1)^((p-1)(q-1)) [v, u]

to arbitrary wedge degrees; the algebroid layer reuses the engine for the
Gerstenhaber bracket on wedge powers of sections.

One accumulation rule builds every output coefficient: an operation groups
(Polynomial, weight) pairs by output key and `collect`s each key with one
`Polynomial.sum_of_products`, not one product and one add per term.  A
weight is a Polynomial factor or an int such as a sign, which scales the
terms of the pair's polynomial in the same term map, so a signed sum makes
no negated copy.  `linear_combination` applies the rule to whole values.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

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

    def scale(self, factor):
        """Multiply every coefficient by a Polynomial or rational."""
        if isinstance(factor, Polynomial) and factor.chart != self.chart:
            raise ChartError("scale factor lives on the wrong chart")
        # distinct keys stay distinct, so each coefficient is one product
        return self._like({k: q for k, p in self.coeffs.items()
                           if not (q := p * factor).is_zero()})

    def wedge(self, other):
        """Wedge product of two forms, two multivectors or two sections."""
        a, b = self, other
        if type(a) is VectorField:
            a = Multivector(a.chart, 1, a.coeffs)
        if type(b) is VectorField:
            b = Multivector(b.chart, 1, b.coeffs)
        a._check_mate(b)
        groups: dict = {}
        for i1, p1 in a.coeffs.items():
            for i2, p2 in b.coeffs.items():
                merged = sort_indices(i1 + i2)
                if merged is not None:
                    groups.setdefault(merged[0], []).append((p1 if merged[1] > 0 else -p1, p2))
        return a._like(collect(groups), a.degree + b.degree)

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

    @classmethod
    def function(cls, poly: Polynomial) -> "DifferentialForm":
        return cls(poly.chart, 0, {(): poly})


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

    @classmethod
    def coordinate(cls, chart: Chart, name: str) -> "VectorField":
        return cls(chart, {(chart.index(name),): Polynomial.const(chart, 1)})

    def component(self, i: int) -> Polynomial:
        return self.coeffs.get((i,), Polynomial.zero(self.chart))

    def apply(self, f: Polynomial) -> Polynomial:
        """Directional derivative of a scalar."""
        if f.chart != self.chart:
            raise ChartError("chart mismatch")
        names = self.chart.names
        return Polynomial.sum_of_products(
            self.chart, ((comp, f.diff(names[i])) for (i,), comp in self.coeffs.items()))


def as_vector_field(mv: Multivector) -> VectorField:
    """View a degree-1 multivector as a VectorField."""
    if mv.degree != 1:
        raise ValueError("only degree-1 multivectors are vector fields")
    return mv._like(dict(mv.coeffs), kind=VectorField)


wedge = Alternating.wedge


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
        for key, p in x.coeffs.items():
            groups.setdefault(key, []).append((p, w))
    return like._like(collect(groups))


def exterior_derivative(a: DifferentialForm) -> DifferentialForm:
    """de Rham differential; satisfies d(d(a)) = 0."""
    groups: dict = {}
    for idx, p in a.coeffs.items():
        for j, name in enumerate(a.chart.names):
            if j in idx:
                continue
            dp = p.diff(name)
            if not dp.is_zero():
                key, sign = sort_indices((j,) + idx)
                groups.setdefault(key, []).append((dp, sign))
    return a._like(collect(groups), a.degree + 1)


def _contract_table(components: dict, table: dict) -> dict:
    """Contract {index: Polynomial} components into an alternating table,
    negating each component at most once."""
    negated: dict = {}
    groups: dict = {}
    for idx, p in table.items():
        for pos, i in enumerate(idx):
            comp = components.get(i)
            if comp is None:
                continue
            if pos % 2:
                comp = negated.get(i)
                if comp is None:
                    comp = negated[i] = -components[i]
            groups.setdefault(idx[:pos] + idx[pos + 1:], []).append((comp, p))
    return collect(groups)


def contract(x: VectorField, a: DifferentialForm) -> DifferentialForm:
    """Interior product i_x a."""
    if x.chart != a.chart:
        raise ChartError("chart mismatch")
    if a.degree == 0:
        return DifferentialForm(a.chart, 0)
    comps = {i: p for (i,), p in x.coeffs.items()}
    return a._like(_contract_table(comps, a.coeffs), a.degree - 1)


def contract_covector(alpha: DifferentialForm, p: Multivector) -> Multivector:
    """Interior product of a 1-form into a multivector, i_alpha p."""
    if alpha.chart != p.chart:
        raise ChartError("chart mismatch")
    if alpha.degree != 1:
        raise ValueError("contract_covector needs a 1-form")
    if p.degree == 0:
        return Multivector(p.chart, 0)
    comps = {i: q for (i,), q in alpha.coeffs.items()}
    return p._like(_contract_table(comps, p.coeffs), p.degree - 1, Multivector)


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
# generic graded bracket engine
# ---------------------------------------------------------------------------

FrameBracket = Callable[[int, int], Iterable]  # (a, b) -> iterable of (c, Polynomial)
CoeffAction = Callable[[int, Polynomial], Polynomial]  # (a, f) -> derivative of f


def _wedge_frame(head: tuple, table: dict, tail: tuple, weight: int, groups: dict) -> None:
    """Add weight * (e_head ^ table ^ e_tail) to the pairs of `groups`."""
    for key, p in table.items():
        merged = sort_indices(head + key + tail)
        if merged is not None:
            groups.setdefault(merged[0], []).append((p, weight * merged[1]))


def _bracket_pure(t_tuple, v_table: dict, q: int, fb: FrameBracket, act: CoeffAction) -> dict:
    """[e_T, V] where V is a degree-q table with Polynomial coefficients."""
    p = len(t_tuple)
    if p == 0:
        return {}
    groups: dict = {}
    if p == 1:
        a = t_tuple[0]
        for s_tuple, g in v_table.items():
            dg = act(a, g)
            if not dg.is_zero():
                groups.setdefault(s_tuple, []).append((dg, 1))
            for pos, s in enumerate(s_tuple):
                for c, w in fb(a, s):
                    srt = sort_indices(s_tuple[:pos] + (c,) + s_tuple[pos + 1:])
                    if srt is not None:
                        groups.setdefault(srt[0], []).append((g if srt[1] > 0 else -g, w))
        return collect(groups)
    head, rest = t_tuple[0], t_tuple[1:]
    sign = -1 if ((p - 1) * (q - 1)) % 2 else 1
    _wedge_frame((head,), _bracket_pure(rest, v_table, q, fb, act), (), 1, groups)
    _wedge_frame((), _bracket_pure((head,), v_table, q, fb, act), rest, sign, groups)
    return collect(groups)


def graded_bracket(p_table: dict, p: int, q_table: dict, q: int,
                   fb: FrameBracket, act: CoeffAction) -> dict:
    """Bracket of two alternating tables under the graded Leibniz extension.

    Base cases are the frame bracket `fb` on single indices and the derivation
    `act` of coefficients; the result table has degree p + q - 1 (empty when
    that is negative, i.e. for two degree-0 inputs).  `schouten` and
    `algebroid.section_bracket` run on it.
    """
    groups: dict = {}
    sign = -1 if ((p - 1) * (q - 1)) % 2 else 1
    for t_tuple, f in p_table.items():
        # [f e_T, Q] = f [e_T, Q] - (-1)^((p-1)(q-1)) [Q, f] ^ e_T, where
        # [g e_S, f] = sum_j (-1)^(q-j) g act(s_j, f) e_{S minus s_j}  (1-based j)
        for key, poly in _bracket_pure(t_tuple, q_table, q, fb, act).items():
            groups.setdefault(key, []).append((f, poly))
        for s_tuple, g in q_table.items():
            for j, s in enumerate(s_tuple, start=1):
                merged = sort_indices(s_tuple[:j - 1] + s_tuple[j:] + t_tuple)
                if merged is None:
                    continue
                df = act(s, f)
                if not df.is_zero():
                    positive = -sign * merged[1] * (-1) ** (q - j) > 0
                    groups.setdefault(merged[0], []).append((df, g if positive else -g))
    return collect(groups)


def schouten(p: Multivector, q: Multivector) -> Multivector:
    """Schouten bracket of multivector fields on a chart.

    Extends the Jacobi-Lie bracket of vector fields and the directional
    derivative on functions; the sign convention is graded antisymmetry
    [u,v] = -(-1)^((p-1)(q-1))[v,u] with the graded Leibniz rule
    [u, v^w] = [u,v]^w + (-1)^((p-1)q) v^[u,w].
    """
    if p.chart != q.chart:
        raise ChartError("chart mismatch")
    chart = p.chart
    names = chart.names

    def fb(a: int, b: int):
        return ()

    def act(a: int, f: Polynomial) -> Polynomial:
        return f.diff(names[a])

    table = graded_bracket(p.coeffs, p.degree, q.coeffs, q.degree, fb, act)
    return p._like(table, max(p.degree + q.degree - 1, 0), Multivector)
