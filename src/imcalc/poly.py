"""Exact multivariate polynomial arithmetic over named coordinate charts.

A chart is an ordered list of named coordinates; a polynomial on a chart is a
dictionary mapping dense exponent tuples (one non-negative integer per chart
coordinate) to nonzero rational coefficients:

    x1^2*x2 - 1/2  on chart (x1, x2)  ->  {(2, 1): 1, (0, 0): Fraction(-1, 2)}

Coefficients are exact rationals, never floats, stored canonically: an `int`
exactly when the value is integral, a `fractions.Fraction` with denominator
above 1 otherwise.  Integer arithmetic is several times cheaper than
`Fraction` arithmetic, and `int` and `Fraction` values compare and hash
alike, so the choice never shows in equality, hashing or printing; `eval`
returns a `Fraction` either way.  Every identity check in this library
reduces to "this polynomial is identically zero", which the canonical term
map certifies exactly.  The zero polynomial is the empty map, and two
polynomials are equal iff chart and term maps are equal.

Sums are collected in place in one term map (`_accumulate`): `+`, `*` and
`Polynomial.sum_of_products` all feed it, so a sum of n products copies no
intermediate term map.

Charts carry a role per coordinate (base / fiber / tangent copy / dual copy)
so that total spaces of bundles and direct-sum prolongation charts can do
their double-vector-bundle bookkeeping by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping

Rational = Fraction
Exponents = tuple  # one int per chart coordinate

#: roles a chart coordinate can play
ROLE_BASE = "base"
ROLE_FIBER = "fiber"
ROLE_TANGENT = "tangent"  # n-th tangent copy of a base coordinate
ROLE_DUAL = "dual"        # n-th dual copy of a fiber direction


class ChartError(ValueError):
    """Chart construction or chart-compatibility failure."""


@dataclass(frozen=True)
class Coord:
    """A named chart coordinate with its double-vector-bundle role."""

    name: str
    role: str = ROLE_BASE
    copy: int = 0  # copy index for tangent/dual roles, 0 otherwise

    def __post_init__(self) -> None:
        if self.role not in (ROLE_BASE, ROLE_FIBER, ROLE_TANGENT, ROLE_DUAL):
            raise ChartError(f"unknown coordinate role {self.role!r}")
        if self.role in (ROLE_TANGENT, ROLE_DUAL) and self.copy < 1:
            raise ChartError(f"{self.role} coordinate needs a copy index >= 1")


@dataclass(frozen=True)
class Chart:
    """An ordered, uniquely named coordinate system.

    Base coordinates must come first; fiber/tangent/dual coordinates follow in
    construction order.  Charts are immutable and compared by value.
    """

    name: str
    coords: tuple = ()

    def __post_init__(self) -> None:
        names = [c.name for c in self.coords]
        if len(set(names)) != len(names):
            raise ChartError(f"duplicate coordinate names in chart {self.name!r}")
        seen_nonbase = False
        for c in self.coords:
            if c.role == ROLE_BASE and seen_nonbase:
                raise ChartError("base coordinates must be listed first")
            if c.role != ROLE_BASE:
                seen_nonbase = True
        object.__setattr__(self, "_index", {c.name: i for i, c in enumerate(self.coords)})

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def names(self) -> tuple:
        return tuple(c.name for c in self.coords)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ChartError(f"unknown coordinate {name!r} on chart {self.name!r}") from None


def base_chart(name: str, coord_names: Iterable[str]) -> Chart:
    """Chart consisting of base coordinates only."""
    return Chart(name, tuple(Coord(n) for n in coord_names))


def _same(a: Chart, b: Chart) -> bool:
    """Chart equality, identity first: the dataclass `==` compares field
    tuples, and nearly every operand pair shares one chart object."""
    return a is b or a == b


def _coeff(value):
    """Canonical coefficient: an int when integral, otherwise a Fraction."""
    if type(value) is int:
        return value
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _accumulate(terms: dict, items) -> None:
    """Add (exponents, nonzero coefficient) pairs into a term map, in place.

    Stored coefficients stay canonical: a Fraction sum whose denominator
    cancels is stored as its numerator, and a sum that cancels is removed.
    """
    get = terms.get
    for e, c in items:
        s = get(e, 0) + c
        if type(s) is not int and s.denominator == 1:
            s = s.numerator
        if s:
            terms[e] = s
        else:
            del terms[e]


def _products(left: dict, right: dict):
    """The term pairs of a product of two term maps, not yet collected."""
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            yield tuple(map(add, e1, e2)), c1 * c2


class Polynomial:
    """Immutable exact polynomial on a fixed chart.

    Supports +, -, *, ** with other polynomials on the same chart and with
    plain ints / Fractions.  `diff`, `eval`, `partial_eval`, `promote` and
    `substitute` cover the calculus and chart-morphism needs of the form and
    algebroid layers; `sum_of_products` collects a sum of products in one
    term map.
    """

    __slots__ = ("chart", "terms")

    def __init__(self, chart: Chart, terms: Mapping | None = None):
        clean = {}
        if terms:
            width = chart.dim
            for exps, coeff in terms.items():
                coeff = _coeff(coeff)
                if not coeff:
                    continue
                exps = tuple(exps)
                if len(exps) != width or any(e < 0 for e in exps):
                    raise ChartError(
                        f"exponent vector {exps} does not fit chart {chart.name!r} (dim {width})"
                    )
                clean[exps] = coeff
        _set_chart(self, chart)
        _set_terms(self, clean)

    def __setattr__(self, *_):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, chart: Chart) -> "Polynomial":
        return cls(chart)

    @classmethod
    def const(cls, chart: Chart, value) -> "Polynomial":
        value = _coeff(value)
        if not value:
            return cls(chart)
        return _make(chart, {(0,) * chart.dim: value})

    @classmethod
    def variable(cls, chart: Chart, name: str) -> "Polynomial":
        i = chart.index(name)
        exps = [0] * chart.dim
        exps[i] = 1
        return _make(chart, {tuple(exps): 1})

    @classmethod
    def sum_of_products(cls, chart: Chart, pairs: Iterable) -> "Polynomial":
        """The sum of p * q over the (p, q) pairs, all polynomials on `chart`."""
        terms: dict = {}
        for p, q in pairs:
            if not (_same(p.chart, chart) and _same(q.chart, chart)):
                raise ChartError(
                    f"chart mismatch: {chart.name!r} vs {p.chart.name!r}, {q.chart.name!r}"
                )
            _accumulate(terms, _products(p.terms, q.terms))
        return _make(chart, terms)

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if not _same(other.chart, self.chart):
                raise ChartError(
                    f"chart mismatch: {self.chart.name!r} vs {other.chart.name!r}"
                )
            return other
        return Polynomial.const(self.chart, other)

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        terms = dict(self.terms)
        _accumulate(terms, other.terms.items())
        return _make(self.chart, terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _make(self.chart, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + self._coerce(other)

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            c = _coeff(other)
            if not c:
                return Polynomial(self.chart)
            terms = {}
            _accumulate(terms, ((e, v * c) for e, v in self.terms.items()))
            return _make(self.chart, terms)
        other = self._coerce(other)
        terms: dict = {}
        _accumulate(terms, _products(self.terms, other.terms))
        return _make(self.chart, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = Polynomial.const(self.chart, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(self.chart, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.chart == other.chart and self.terms == other.terms

    def __hash__(self):
        return hash((self.chart, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    # -- calculus ----------------------------------------------------------

    def diff(self, coord: str) -> "Polynomial":
        """Exact formal partial derivative with respect to a chart coordinate."""
        i = self.chart.index(coord)
        terms: dict = {}
        for e, c in self.terms.items():
            k = e[i]
            if k:
                # distinct terms stay distinct, so nothing collects or cancels
                c = c * k
                if type(c) is not int and c.denominator == 1:
                    c = c.numerator
                terms[e[:i] + (k - 1,) + e[i + 1:]] = c
        return _make(self.chart, terms)

    def eval(self, point: Mapping) -> Fraction:
        """Exact evaluation; `point` must assign a rational to every coordinate."""
        missing = [n for n in self.chart.names if n not in point]
        if missing:
            raise ChartError(f"point is missing coordinates {missing}")
        values = [_coeff(point[n]) for n in self.chart.names]
        total = 0
        for e, c in self.terms.items():
            term = c
            for v, k in zip(values, e):
                if k:
                    term *= v ** k
            total += term
        return Fraction(total)

    def partial_eval(self, assign: Mapping, new_chart: Chart) -> "Polynomial":
        """Evaluate some coordinates at rationals and re-express on `new_chart`.

        Every coordinate of self's chart must either appear in `assign` or
        exist (by name) on `new_chart`.
        """
        pos = {}
        fixed = {}
        for i, c in enumerate(self.chart.coords):
            if c.name in assign:
                fixed[i] = _coeff(assign[c.name])
            else:
                pos[i] = new_chart.index(c.name)

        def images():
            for e, coeff in self.terms.items():
                for i, v in fixed.items():
                    if e[i]:
                        coeff = coeff * v ** e[i]
                if not coeff:
                    continue
                e2 = [0] * new_chart.dim
                for i, j in pos.items():
                    e2[j] = e[i]
                yield tuple(e2), coeff

        terms: dict = {}
        _accumulate(terms, images())
        return _make(new_chart, terms)

    def promote(self, new_chart: Chart) -> "Polynomial":
        """Reinterpret on a larger chart containing all of this chart's names."""
        if new_chart == self.chart:
            return self
        return self.partial_eval({}, new_chart)

    def substitute(self, mapping: Mapping, new_chart: Chart) -> "Polynomial":
        """Composite with a polynomial chart map.

        `mapping` sends a coordinate name of self's chart to a Polynomial on
        `new_chart`; unmapped names must exist on `new_chart` and map to
        themselves.
        """
        images = []
        for c in self.chart.coords:
            if c.name in mapping:
                img = mapping[c.name]
                if img.chart != new_chart:
                    raise ChartError("substitute images must live on the target chart")
                images.append(img)
            else:
                images.append(Polynomial.variable(new_chart, c.name))
        total = Polynomial.zero(new_chart)
        for e, coeff in self.terms.items():
            term = Polynomial.const(new_chart, coeff)
            for img, k in zip(images, e):
                if k:
                    term = term * img ** k
            total = total + term
        return total

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({self.chart.name!r}, {format_polynomial(self)!r})"


_set_chart = Polynomial.chart.__set__
_set_terms = Polynomial.terms.__set__


def _make(chart: Chart, terms: dict) -> Polynomial:
    """A Polynomial over a term map that is already canonical, not copied."""
    out = object.__new__(Polynomial)
    _set_chart(out, chart)
    _set_terms(out, terms)
    return out


def _format_monomial(chart: Chart, exps: Exponents) -> str:
    parts = []
    for name, k in zip(chart.names, exps):
        if k == 1:
            parts.append(name)
        elif k > 1:
            parts.append(f"{name}^{k}")
    return "*".join(parts)


def format_polynomial(p: Polynomial) -> str:
    """Canonical expanded string; `parse(format_polynomial(p), chart) == p`.

    Terms are ordered by descending total degree, then descending exponent
    tuple, so identical polynomials always print identically.
    """
    if not p.terms:
        return "0"
    order = sorted(p.terms, key=lambda e: (-sum(e), tuple(-x for x in e)))
    pieces = []
    for pos, e in enumerate(order):
        c = p.terms[e]
        mono = _format_monomial(p.chart, e)
        mag = abs(c)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        if pos == 0:
            # a leading negative folds the sign into an explicit rational
            # factor so the printed form stays inside the expression grammar
            if c < 0:
                body = f"-{mag}*{mono}" if mono else f"-{mag}"
            pieces.append(body)
        else:
            pieces.append(f"{'-' if c < 0 else '+'} {body}")
    return " ".join(pieces)


class ParseError(ValueError):
    """Expression rejected; `offset` is the byte position of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class _Parser:
    """Recursive-descent parser for the expression grammar:

        expr     := term (('+'|'-') term)*
        term     := factor ('*' factor)*
        factor   := atom ('^' uint)?
        atom     := rational | coordname | '(' expr ')'
        rational := int ('/' uint)?

    Whitespace is insignificant.  Coordinate names are [A-Za-z_][A-Za-z0-9_]*.
    """

    def __init__(self, text: str, chart: Chart):
        self.text = text
        self.chart = chart
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> Polynomial:
        result = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise ParseError(f"unexpected {self.text[self.pos]!r}", self.pos)
        return result

    def expr(self) -> Polynomial:
        result = self.term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                result = result + self.term()
            elif ch == "-":
                self.pos += 1
                result = result - self.term()
            else:
                return result

    def term(self) -> Polynomial:
        result = self.factor()
        while self.peek() == "*":
            self.pos += 1
            result = result * self.factor()
        return result

    def factor(self) -> Polynomial:
        result = self.atom()
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            start = self.pos
            digits = self._digits()
            if digits is None:
                raise ParseError("expected unsigned integer exponent", start)
            return result ** int(digits)
        return result

    def _digits(self) -> str | None:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        return self.text[start:self.pos] if self.pos > start else None

    def atom(self) -> Polynomial:
        ch = self.peek()
        start = self.pos
        if ch == "(":
            self.pos += 1
            inner = self.expr()
            if self.peek() != ")":
                raise ParseError("expected ')'", self.pos)
            self.pos += 1
            return inner
        if ch == "-" or ch.isdigit():
            negative = ch == "-"
            if negative:
                self.pos += 1
                self.skip_ws()
            num = self._digits()
            if num is None:
                raise ParseError("expected digits after '-'", self.pos)
            value = Fraction(int(num))
            if self.peek() == "/":
                self.pos += 1
                self.skip_ws()
                den_start = self.pos
                den = self._digits()
                if den is None or int(den) == 0:
                    raise ParseError("expected positive denominator", den_start)
                value = Fraction(int(num), int(den))
            if negative:
                value = -value
            return Polynomial.const(self.chart, value)
        if ch.isalpha() or ch == "_":
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
            name = self.text[start:self.pos]
            if name not in self.chart.names:
                raise ParseError(f"unknown coordinate {name!r}", start)
            return Polynomial.variable(self.chart, name)
        raise ParseError("expected rational, coordinate or '('", self.pos)


def parse(text: str, chart: Chart) -> Polynomial:
    """Parse an expression into a canonical Polynomial on `chart`."""
    return _Parser(text, chart).parse()
