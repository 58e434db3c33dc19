"""Exact multivariate polynomial arithmetic over named coordinate charts.

A chart is an ordered list of named coordinates; a polynomial on a chart is a
dictionary from monomials to nonzero rational coefficients.  A monomial is
stored as one packed int: the exponent of coordinate i sits in bits
[16*i, 16*i + 16) (`SLOT_BITS`), so on chart (x1, x2)

    x1^2*x2 - 1/2  ->  {2 + (1 << 16): 1, 0: Fraction(-1, 2)}

The product of two monomials is then the sum of their keys, and a key hashes
and compares as one int instead of a tuple.  This is the packed layout of
fast sparse polynomial arithmetic (M. Monagan and R. Pearce, "Sparse
polynomial multiplication and division in Maple 14", 2009; "POLY: a new
polynomial data structure for Maple 17", 2013).  The top bit of every slot is
a guard bit, so an exponent is at most `EXPONENT_LIMIT` = 2^15 - 1.  Every
stored key has its guard bits clear, so the sum of two stored keys never
carries into a neighbouring slot; a product whose result has a guard bit set
raises `ChartError` instead of storing a monomial of the wrong coordinate.
The parser checks a power against that limit, and against a budget on the
number of terms it can expand to (`POWER_TERM_BUDGET`), before expanding it.
It refuses a product whose factors have more term pairs than
`PRODUCT_PAIR_BUDGET` before multiplying them; a power of a sum, which it
expands by N - 1 products by the base, when those products would multiply
more term pairs than that in all; an expression whose products and power
expansions together would multiply more term pairs than that, at the
operator where the total passes it; and an integer literal of more than
`LITERAL_DIGIT_LIMIT` digits before converting it.  A power ^N, N >= 2, is
refused when its coefficients could get a numerator or denominator of more
than `LITERAL_DIGIT_LIMIT` digits (`_power_fits`).  It reads each
expression as one list of tokens, and a term that is a rational times powers
of coordinates becomes one (coefficient, packed key) pair, added straight
into the expression's term map.

`Polynomial(chart, terms)` takes the readable form, a map from exponent
tuples (one non-negative int per chart coordinate) to coefficients, and
`Polynomial.terms` is a read-only view in that form: `{(2, 1): 1, (0, 0):
Fraction(-1, 2)}` above.  Code in this module works on the packed map.

Coefficients are exact rationals, never floats, stored canonically: an `int`
exactly when the value is integral, a `fractions.Fraction` with denominator
above 1 otherwise.  Integer arithmetic is several times cheaper than
`Fraction` arithmetic, and `int` and `Fraction` values compare and hash
alike, so the choice never shows in equality, hashing or printing; `eval`
returns a `Fraction` either way.  Every identity check in this library
reduces to "this polynomial is identically zero", which the canonical term
map certifies exactly.  The zero polynomial is the empty map, and two
polynomials are equal iff chart and term maps are equal.

Products are collected in one flat loop (`Polynomial.sum_of_products`, which
`*` also calls): each term pair adds its coefficient product into one term
map, and the map is made canonical once per call, not once per pair, so a
sum of n products copies no intermediate term map.  A pair's second member
may be an int weight, as in `(p, -1)`: it adds c * w per term of p into the
same map, so signed sums need no negated copy and no constant factor.  Most
calls multiply a few short factors, so the loop keeps its fixed costs low: a
pair with an empty factor is skipped once its charts are checked, the
shorter factor is the outer loop, and the guard bits are scanned only when
a polynomial pair was multiplied (int-weight pairs add stored keys only).

The pairs whose factors both have at least `KRONECKER_TERMS` terms are
multiplied as big ints instead (Kronecker substitution: D. Harvey, "Faster
polynomial multiplication via multipoint Kronecker substitution", J.
Symbolic Comput. 44, 2009), so that CPython's C multiply does the work of
their term pairs.  `_kronecker` maps the exponents of the leading base
coordinates to one mixed-radix index, injective because each radix is one
above the largest degree sum in its coordinate, and splits each factor into
groups by its other (copy and fiber) exponents.  Each distinct factor of
the call is laid out once (its base-exponent columns and their maxima, its
higher keys and groups), scaled once by den, the lcm of the denominators
(a call whose coefficients are all ints skips the lcm and the rescale), and
measured once: W is chosen so that the exact bound sum ||p||_1 * ||q||_inf
* den^2 on every coefficient of the sum stays below half a slot.  Every
scaled coefficient becomes one W-byte cell with a balanced bias, the cells
are placed in a list of zero cells per group, and each group becomes one
int by `int.from_bytes` of the joined cells.  The group products add up per
summed higher key; the slots of a nonzero total are cut in one pass, and
those that differ from the zero cell are decoded into the same term map,
which is then made canonical and guard-checked like the loop's.  The loop
multiplies the pairs instead on a chart with no base coordinate, when a
degree sum passes `EXPONENT_LIMIT`, when the slot count times the group
pairs exceeds the term pairs, and when W exceeds `KRONECKER_SLOT_BYTES`.

`partial_eval` collects into one term map the same way; `+` cleans only
the keys of its right operand in place, since `total = total + term` adds a
short map into a long one.  `unit_restrictions` gives a polynomial at the
zero point and at each unit point of some coordinates in one walk over its
terms, where one `partial_eval` per point would walk them once per point.
`eval` brings every term over one integer denominator, the product of
q_i^D_i over the coordinates (p_i/q_i the value of coordinate i, D_i the top
degree in it), so it sums ints and builds one `Fraction`; its power tables
hold one entry per exponent that occurs.

`format_polynomial` prints terms by descending total degree, then
descending exponent tuple.  It renders each monomial's text and sort key
once per packed key into a table, a dict per chart from packed key to
((total degree, exponent list), monomial text); it then sorts the terms by
their keys' entries and renders each coefficient.  A caller that prints
several polynomials passes one table to all of them: `verify` keeps a
report's residuals as polynomials and prints them after merging its
reports, with one table per report, so each distinct monomial of the report
is rendered once.  The table lives for that one report; `str(p)` passes
none, and its entries last for the one call.

Each chart coordinate is a base coordinate or not (`Coord.base`): fiber
coordinates of a total space and the copy coordinates of a prolongation are
not.  Base coordinates come first, and `_kronecker` counts them: their
exponents make the mixed-radix index, the others the groups.  Where the
copies of a prolongation sit is recorded by `algebroid.CopyLayout`, not by
the chart.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import comb, lcm, prod
from operator import or_
from typing import Iterable, Sequence

#: bits per coordinate in a packed monomial; the top one is the guard bit
SLOT_BITS = 16
SLOT_MASK = (1 << SLOT_BITS) - 1
#: the largest exponent of one coordinate
EXPONENT_LIMIT = (1 << (SLOT_BITS - 1)) - 1
#: the most terms a parsed power `base^N` may expand to, by the multinomial
#: bound C(N + t - 1, t - 1) on a base of t terms
POWER_TERM_BUDGET = 20_000
#: the most term pairs (t1 * t2 for factors of t1 and t2 terms) one parsed
#: product may multiply
PRODUCT_PAIR_BUDGET = 250_000
#: the most digits of an integer literal; CPython's default limit on
#: converting a decimal string to an int, held on every interpreter
LITERAL_DIGIT_LIMIT = 4300
#: the fewest terms both factors of a pair need for `sum_of_products` to
#: multiply the pair as one big int (`_kronecker`)
KRONECKER_TERMS = 16
#: the widest coefficient slot, in bytes, of a big-int product; wider slots
#: make the big-int product slower than the loop (a dense product of
#: degrees 7 and 11 in two coordinates breaks even near 27 bytes)
KRONECKER_SLOT_BYTES = 24


class ChartError(ValueError):
    """Chart construction or chart-compatibility failure."""


@dataclass(frozen=True)
class Coord:
    """A named chart coordinate; `base` is False for the fiber and copy
    coordinates that follow the base ones."""

    name: str
    base: bool = True


@dataclass(frozen=True)
class Chart:
    """An ordered, uniquely named coordinate system.

    Base coordinates must come first; fiber and copy coordinates follow in
    construction order.  Charts are immutable and compared by value.
    """

    name: str
    coords: tuple = ()

    def __post_init__(self) -> None:
        names = [c.name for c in self.coords]
        if len(set(names)) != len(names):
            dups = sorted({n for n in names if names.count(n) > 1})
            raise ChartError(f"duplicate coordinate names in chart {self.name!r}: "
                             + ", ".join(map(repr, dups)))
        nbase = sum(c.base for c in self.coords)
        if not all(c.base for c in self.coords[:nbase]):
            raise ChartError("base coordinates must be listed first")
        shifts = tuple(SLOT_BITS * i for i in range(len(names)))
        object.__setattr__(self, "_names", tuple(names))
        object.__setattr__(self, "_base", nbase)
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})
        object.__setattr__(self, "_shifts", shifts)
        object.__setattr__(self, "_guard", sum(1 << (s + SLOT_BITS - 1) for s in shifts))

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def names(self) -> tuple:
        return self._names

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ChartError(f"unknown coordinate {name!r} on chart {self.name!r}") from None

    def pack(self, exps) -> int:
        """The packed monomial key of an exponent vector on this chart."""
        exps = tuple(exps)
        if len(exps) != len(self._shifts) or not all(
                isinstance(k, int) and 0 <= k <= EXPONENT_LIMIT for k in exps):
            raise ChartError(
                f"exponent vector {exps} does not fit chart {self.name!r} "
                f"(dim {self.dim}, exponents 0..{EXPONENT_LIMIT})"
            )
        return sum(k << s for k, s in zip(exps, self._shifts))

    def unpack(self, key: int) -> tuple:
        """The exponent vector of a packed monomial key."""
        return tuple((key >> s) & SLOT_MASK for s in self._shifts)


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


def _canonical(terms: dict) -> dict:
    """A collected term map made canonical: zero sums dropped, and an
    integral Fraction stored as its numerator.  Maps are collected with a
    flat `terms[e] = get(e, 0) + c` loop and cleaned once here, not once per
    added term."""
    return {e: c if type(c) is int or c.denominator != 1 else c.numerator
            for e, c in terms.items() if c}


def _check_guard(chart: Chart, terms: dict) -> None:
    """Raise if a key of a product's term map has a guard bit set.

    The keys of both factors have their guard bits clear, so each slot of a
    sum of two keys holds the exact exponent sum without carrying; a set
    guard bit marks an exponent above the limit.
    """
    over = reduce(or_, terms, 0) & chart._guard
    if over:
        name = chart.names[(over & -over).bit_length() // SLOT_BITS - 1]
        raise ChartError(
            f"exponent of {name} above {EXPONENT_LIMIT} in a product on chart {chart.name!r}"
        )


class TermsView(Mapping):
    """Read-only view of a packed term map, keyed by exponent tuples."""

    __slots__ = ("_packed", "_chart")

    def __init__(self, packed: dict, chart: Chart):
        self._packed = packed
        self._chart = chart

    def __len__(self) -> int:
        return len(self._packed)

    def __iter__(self):
        return map(self._chart.unpack, self._packed)

    def __getitem__(self, exps):
        try:
            key = self._chart.pack(exps)
        except (ChartError, TypeError):
            raise KeyError(exps) from None
        return self._packed[key]

    def items(self):
        return dict(zip(self, self._packed.values())).items()

    def values(self):
        return self._packed.values()

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class Polynomial:
    """Immutable exact polynomial on a fixed chart.

    Supports +, -, *, ** with other polynomials on the same chart and with
    plain ints / Fractions.  `diff`, `eval`, `partial_eval` and `promote`
    cover the calculus and chart-morphism needs of the form and algebroid
    layers; `sum_of_products` collects a sum of products in one term map.
    `terms` maps exponent tuples to coefficients.
    """

    __slots__ = ("chart", "_terms")

    def __init__(self, chart: Chart, terms: Mapping | None = None):
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                coeff = _coeff(coeff)
                if coeff:
                    clean[chart.pack(exps)] = coeff
        _set_chart(self, chart)
        _set_terms(self, clean)

    def __setattr__(self, *_):
        raise AttributeError("Polynomial is immutable")

    @property
    def terms(self) -> TermsView:
        return TermsView(self._terms, self.chart)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, chart: Chart) -> "Polynomial":
        return cls(chart)

    @classmethod
    def const(cls, chart: Chart, value) -> "Polynomial":
        value = _coeff(value)
        if not value:
            return cls(chart)
        return _make(chart, {0: value})

    @classmethod
    def variable(cls, chart: Chart, name: str) -> "Polynomial":
        return _make(chart, {1 << chart._shifts[chart.index(name)]: 1})

    @classmethod
    def sum_of_products(cls, chart: Chart, pairs: Iterable) -> "Polynomial":
        """The sum of p * q over the (p, q) pairs: p a polynomial on `chart`,
        q one too or an int weight, whose pair adds c * q per term of p.
        A pair whose factors both have `KRONECKER_TERMS` terms or more is
        multiplied as one big int (`_kronecker`) where that is cheaper."""
        terms: dict = {}
        large, multiplied = _collect(chart, pairs, terms, KRONECKER_TERMS)
        if large:
            multiplied = True
            if not _kronecker(chart, large, terms):
                _collect(chart, large, terms, 0)
        # made canonical and wrapped as `_canonical` and `_make` do, inline:
        # most calls collect a handful of terms, so call overhead would show;
        # a map of nonzero ints is canonical already and is kept as it is
        values = terms.values()
        if 0 in values or not {int}.issuperset(map(type, values)):
            terms = {e: c if type(c) is int or c.denominator != 1 else c.numerator
                     for e, c in terms.items() if c}
        if multiplied:
            # an int-weight pair adds stored keys only, which have their
            # guard bits clear
            _check_guard(chart, terms)
        out = object.__new__(Polynomial)
        _set_chart(out, chart)
        _set_terms(out, terms)
        return out

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
        terms = dict(self._terms)
        get = terms.get
        # only the keys of `other` can change, so they are cleaned in place;
        # `_canonical` would copy all of self, the long map of
        # `total = total + term`
        for e, c in other._terms.items():
            s = get(e, 0) + c
            if type(s) is not int and s.denominator == 1:
                s = s.numerator
            if s:
                terms[e] = s
            else:
                del terms[e]
        return _make(self.chart, terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _make(self.chart, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + self._coerce(other)

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            c = _coeff(other)
            if not c:
                return Polynomial(self.chart)
            return _make(self.chart, _canonical({e: v * c for e, v in self._terms.items()}))
        return Polynomial.sum_of_products(self.chart, ((self, self._coerce(other)),))

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
        return self.chart == other.chart and self._terms == other._terms

    def __hash__(self):
        return hash((self.chart, frozenset(self._terms.items())))

    def is_zero(self) -> bool:
        return not self._terms

    # -- calculus ----------------------------------------------------------

    def diff(self, coord: str) -> "Polynomial":
        """Exact formal partial derivative with respect to a chart coordinate."""
        s = self.chart._shifts[self.chart.index(coord)]
        one = 1 << s
        terms: dict = {}
        for e, c in self._terms.items():
            k = (e >> s) & SLOT_MASK
            if k:
                # distinct terms stay distinct, so nothing collects or cancels
                c = c * k
                if type(c) is not int and c.denominator == 1:
                    c = c.numerator
                terms[e - one] = c
        return _make(self.chart, terms)

    def eval(self, point: Mapping) -> Fraction:
        """Exact evaluation; `point` must assign a rational to every coordinate."""
        missing = [n for n in self.chart.names if n not in point]
        if missing:
            raise ChartError(f"point is missing coordinates {missing}")
        terms = self._terms
        # every coefficient times `scale` is an int
        scale = lcm(*(c.denominator for c in terms.values()))
        den = scale
        # (shift, {k: p^k * q^(D-k)}) per coordinate of degree D > 0, over the
        # exponents k that occur, so a sparse x1^D costs one entry, not D + 1
        tables = []
        for n, s in zip(self.chart.names, self.chart._shifts):
            used = {(e >> s) & SLOT_MASK for e in terms}
            top = max(used, default=0)
            if top:
                v = Fraction(point[n])
                p, q = v.numerator, v.denominator
                tables.append((s, {k: p ** k * q ** (top - k) for k in used}))
                den *= q ** top
        total = 0
        for e, c in terms.items():
            term = c if scale == 1 else c.numerator * (scale // c.denominator)
            for s, table in tables:
                term *= table[(e >> s) & SLOT_MASK]
            total += term
        return Fraction(total, den)

    def partial_eval(self, assign: Mapping, new_chart: Chart) -> "Polynomial":
        """Evaluate some coordinates at rationals and re-express on `new_chart`.

        Every coordinate of self's chart must either appear in `assign` or
        exist (by name) on `new_chart`.
        """
        moves = []   # (shift on self's chart, shift on new_chart)
        fixed = []   # (shift on self's chart, value)
        for c, s in zip(self.chart.coords, self.chart._shifts):
            if c.name in assign:
                fixed.append((s, _coeff(assign[c.name])))
            else:
                moves.append((s, new_chart._shifts[new_chart.index(c.name)]))

        terms: dict = {}
        get = terms.get
        for e, coeff in self._terms.items():
            for s, v in fixed:
                k = (e >> s) & SLOT_MASK
                if k:
                    coeff = coeff * v ** k
            if coeff:
                e = sum(((e >> s) & SLOT_MASK) << t for s, t in moves)
                terms[e] = get(e, 0) + coeff
        return _make(new_chart, _canonical(terms))

    def unit_restrictions(self, names: Sequence, chart: Chart) -> list:
        """This polynomial at the zero point and at each unit point of the
        coordinates `names`, as len(names) + 1 polynomials on `chart`.

        Entry 0 sets every coordinate in `names` to 0; entry d + 1 sets
        names[d] to 1 and the others to 0.  One walk over the terms splits
        them: a term in none of `names` goes to every point, a term in
        names[d] alone, at any power, to point d + 1 only, and a term in two
        or more of them to none.  Every other coordinate must sit in the
        same slot on `chart`, so a kept key is the term's key with the slots
        of `names` masked off.
        """
        src = self.chart
        point = {src.index(n): d for d, n in enumerate(names)}
        for i, n in enumerate(src.names):
            if i not in point and chart.index(n) != i:
                raise ChartError(f"coordinate {n!r} of chart {src.name!r} "
                                 f"is not in the same slot on chart {chart.name!r}")
        masked = sum(SLOT_MASK << src._shifts[i] for i in point)
        common: dict = {}
        alone = [{} for _ in names]
        for e, c in self._terms.items():
            f = e & masked
            if not f:
                common[e] = c
                continue
            # the slots of the highest and the lowest set bit of f
            top = (f.bit_length() - 1) // SLOT_BITS
            if ((f & -f).bit_length() - 1) // SLOT_BITS == top:
                terms = alone[point[top]]
                e -= f
                terms[e] = terms.get(e, 0) + c
        zero = _make(chart, common)
        return [zero] + [zero + _make(chart, _canonical(t)) if t else zero for t in alone]

    def promote(self, new_chart: Chart) -> "Polynomial":
        """Reinterpret on a larger chart containing all of this chart's names."""
        if _same(new_chart, self.chart):
            return self
        names = self.chart.names
        if new_chart.names[:len(names)] == names:
            # same slots for every coordinate, so the same keys; term maps
            # are never mutated once built, so the map is shared
            return _make(new_chart, self._terms)
        return self.partial_eval({}, new_chart)

    def permute_blocks(self, start: int, width: int, perm: tuple, sign: int = 1) -> "Polynomial":
        """`sign` (1 or -1) times this polynomial with its coordinate blocks
        moved.

        Block m holds the `width` coordinates from position start + m*width
        on; its exponents move to block perm[m].  A block is a contiguous
        run of packed slots, so each moved block costs one shift and one
        mask per key, and blocks with perm[m] == m stay in place.
        """
        bits = SLOT_BITS * width
        mask = (1 << bits) - 1
        moves = [(SLOT_BITS * start + bits * m, SLOT_BITS * start + bits * t)
                 for m, t in enumerate(perm) if m != t]
        keep = ~reduce(or_, (mask << s for s, _ in moves), 0)
        terms = {}
        for e, c in self._terms.items():
            out = e & keep
            for s, t in moves:
                out |= ((e >> s) & mask) << t
            terms[out] = c if sign == 1 else -c
        return _make(self.chart, terms)

    def split(self, start: int) -> dict:
        """This polynomial grouped by its monomial in the coordinates from
        position `start` on: {key: polynomial}, with self the sum of
        key * polynomial.

        A key is the packed key of one such monomial, on this chart, with
        every slot below `start` clear; its polynomial, on this chart too,
        holds the terms of self with that monomial, the monomial taken out,
        so it is a polynomial in the coordinates below `start`.  Every term
        goes to exactly one group with its coefficient: distinct terms of a
        group differ below `start`, so nothing collects or cancels.
        """
        low = (1 << (SLOT_BITS * start)) - 1
        groups: dict = {}
        for e, c in self._terms.items():
            high = e & ~low
            terms = groups.get(high)
            if terms is None:
                terms = groups[high] = {}
            terms[e & low] = c
        return {high: _make(self.chart, terms) for high, terms in groups.items()}

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({self.chart.name!r}, {format_polynomial(self)!r})"


_set_chart = Polynomial.chart.__set__
_set_terms = Polynomial._terms.__set__


def has_big_int_pair(pairs: Iterable) -> bool:
    """Whether `sum_of_products` would hand one of the (p, q) pairs to
    `_kronecker`: q a polynomial and both factors of `KRONECKER_TERMS`
    terms or more."""
    return any(type(q) is not int and len(p._terms) >= KRONECKER_TERMS
               and len(q._terms) >= KRONECKER_TERMS for p, q in pairs)


def _make(chart: Chart, terms: dict) -> Polynomial:
    """A Polynomial over a packed term map that is already canonical, not
    copied."""
    out = object.__new__(Polynomial)
    _set_chart(out, chart)
    _set_terms(out, terms)
    return out


def _collect(chart: Chart, pairs: Iterable, terms: dict, large: int) -> tuple:
    """Add p * q (or c * q per term of p, for an int q) over the pairs into
    the term map one term pair at a time, after checking their charts.  A
    pair with an empty factor adds nothing, and the smaller factor is the
    outer loop.  Returns the polynomial pairs whose factors both have at
    least `large` terms (never, for 0), which it leaves unmultiplied, and
    whether it multiplied a polynomial pair."""
    get = terms.get
    deferred = []
    multiplied = False
    for p, q in pairs:
        pc = p.chart
        if type(q) is int:
            if not (pc is chart or pc == chart):
                raise ChartError(f"chart mismatch: {chart.name!r} vs {pc.name!r}")
            for e, c in p._terms.items():
                terms[e] = get(e, 0) + c * q
            continue
        qc = q.chart
        if not ((pc is chart or pc == chart) and (qc is chart or qc == chart)):
            raise ChartError(f"chart mismatch: {chart.name!r} vs {pc.name!r}, {qc.name!r}")
        left, right = p._terms, q._terms
        if not (left and right):
            continue
        if len(left) > len(right):
            left, right = right, left
        if large and len(left) >= large:
            deferred.append((p, q))
            continue
        multiplied = True
        if len(left) == 1:
            (e1, c1), = left.items()
            for e2, c2 in right.items():
                e = e1 + e2
                terms[e] = get(e, 0) + c1 * c2
            continue
        right = tuple(right.items())
        for e1, c1 in left.items():
            for e2, c2 in right:
                e = e1 + e2
                terms[e] = get(e, 0) + c1 * c2
    return deferred, multiplied


def _kronecker(chart: Chart, pairs: list, terms: dict) -> bool:
    """Add the sum of p * q over the polynomial pairs into the term map by
    big-int products, as the module docstring describes; False, adding
    nothing, when the loop of `_collect` is to multiply them instead.

    Base exponents (a_1..a_B) have the index I = a_1 + R_1*(a_2 + R_2*(...)),
    R_i one above the largest degree sum in coordinate i over the pairs, so
    every index of a product is below L = R_1*...*R_B.  Each slot of a
    total holds den^2 times one coefficient of the sum, at most the sum over
    the pairs of ||p||_1 * ||q||_inf * den^2 < 2^(8W-1) in absolute value.
    """
    nbase = chart._base
    if not nbase:
        return False
    shifts = chart._shifts[:nbase]
    high = -1 << (SLOT_BITS * nbase)
    # once per distinct factor: its coefficients, the column of exponents of
    # each base coordinate, the column maxima, the higher key of each term
    # (all 0 on a chart of base coordinates only) and its distinct values
    layout = {}
    for pair in pairs:
        for f in pair:
            if id(f) not in layout:
                keys = list(f._terms)
                cols = [[(e >> s) & SLOT_MASK for e in keys] for s in shifts]
                highs = [e & high for e in keys] if nbase < chart.dim else [0] * len(keys)
                layout[id(f)] = (f._terms.values(), cols, list(map(max, cols)),
                                 highs, list(dict.fromkeys(highs)))
    radix = [1] * nbase
    group_pairs = term_pairs = 0
    for p, q in pairs:
        left, _, tops_p, _, gp = layout[id(p)]
        right, _, tops_q, _, gq = layout[id(q)]
        for b, (tp, tq) in enumerate(zip(tops_p, tops_q)):
            top = tp + tq
            if top > EXPONENT_LIMIT:
                return False
            if top >= radix[b]:
                radix[b] = top + 1
        group_pairs += len(gp) * len(gq)
        term_pairs += len(left) * len(right)
    slots = prod(radix)
    if slots * group_pairs > term_pairs:
        return False

    # scaled once per factor by den, the lcm of the call's denominators; the
    # lcm skips factors of int coefficients, and a call of them keeps its own
    den = lcm(*(c.denominator for coeffs, *_ in layout.values()
                if Fraction in set(map(type, coeffs)) for c in coeffs))
    scaled = {i: coeffs if den == 1 else
              [c * den if type(c) is int else c.numerator * (den // c.denominator)
               for c in coeffs]
              for i, (coeffs, *_) in layout.items()}
    norms = {}
    for i, a in scaled.items():
        mags = list(map(abs, a))
        norms[i] = (sum(mags), max(mags))
    bound = sum(norms[id(p)][0] * norms[id(q)][1] for p, q in pairs)
    width = (bound.bit_length() + 8) // 8
    if width > KRONECKER_SLOT_BYTES:
        return False

    # every cell holds coefficient + half, so the cell of a coefficient 0 is
    # `zero`, and `offset` takes the halves away again
    half = 1 << (8 * width - 1)
    zero = half.to_bytes(width, "little")
    from_bytes = int.from_bytes  # the lookup on `int` builds a bound method
    packed = {}
    for i, (_, cols, _, highs, groups) in layout.items():
        # the slot of each term in its group's row, by Horner's rule over
        # the columns, then in the factor's rows laid end to end
        at = cols[-1]
        for col, r in zip(cols[-2::-1], radix[-2::-1]):
            at = [k + r * o for k, o in zip(col, at)]
        length = max(at) + 1
        if len(groups) > 1:
            start = {g: n * length for n, g in enumerate(groups)}
            at = [o + start[g] for o, g in zip(at, highs)]
        row = [zero] * (length * len(groups))
        for o, cell in zip(at, [(a + half).to_bytes(width, "little") for a in scaled[i]]):
            row[o] = cell
        offset = from_bytes(zero * length, "little")
        packed[i] = [(g, from_bytes(b"".join(row[o:o + length]), "little") - offset)
                     for g, o in zip(groups, range(0, len(row), length))]
    totals: dict = {}
    for p, q in pairs:
        right = packed[id(q)]
        for g1, a in packed[id(p)]:
            for g2, b in right:
                g = g1 + g2
                totals[g] = totals.get(g, 0) + a * b

    nonzero = [(g, t) for g, t in totals.items() if t]
    if not nonzero:
        return True
    size = slots * width
    offset = from_bytes(zero * slots, "little")
    keys = [0]
    for r, s in zip(radix, shifts):
        keys = [k + (a << s) for a in range(r) for k in keys]
    scale = den * den
    get = terms.get
    for g, total in nonzero:
        raw = (total + offset).to_bytes(size, "little")
        for key, cell in zip(keys, [raw[o:o + width] for o in range(0, size, width)]):
            if cell != zero:
                c = from_bytes(cell, "little") - half
                e = g + key
                terms[e] = get(e, 0) + (c if scale == 1 else Fraction(c, scale))
    return True


def format_polynomial(p: Polynomial, table: dict | None = None) -> str:
    """Canonical expanded string; `parse(format_polynomial(p), chart) == p`
    when every coefficient's numerator and denominator have at most
    `LITERAL_DIGIT_LIMIT` digits, the most the parser reads.

    Terms are ordered by descending total degree, then descending exponent
    tuple, so identical polynomials always print identically.  Coefficients
    of any size print in full (`_decimal`).

    `table` maps a chart to a dict from packed key to ((total degree,
    exponent list), monomial text), the sort key and text of the monomial.
    An entry is made the first time its key is printed, so the calls that
    share one table render each distinct monomial once; without a table the
    entries last for this call only.
    """
    terms = p._terms
    if not terms:
        return "0"
    chart = p.chart
    if table is None:
        monomials = {}
    elif (monomials := table.get(chart)) is None:
        monomials = table[chart] = {}
    names, shifts = chart.names, chart._shifts
    for e in terms.keys() - monomials.keys():
        exps = [(e >> s) & SLOT_MASK for s in shifts]
        monomials[e] = ((sum(exps), exps), "*".join([
            name if k == 1 else f"{name}^{k}" for name, k in zip(names, exps) if k]))
    pieces = []
    for e in sorted(terms, key=lambda e: monomials[e][0], reverse=True):
        c = terms[e]
        mono = monomials[e][1]
        mag = _decimal(abs(c))
        if mono and mag == "1":
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = mag
        if pieces:
            pieces.append(f"{'-' if c < 0 else '+'} {body}")
        elif c < 0:
            # a leading negative folds the sign into an explicit rational
            # factor so the printed form stays inside the expression grammar
            pieces.append(f"-{mag}*{mono}" if mono else f"-{mag}")
        else:
            pieces.append(body)
    return " ".join(pieces)


#: digits per chunk of `_decimal`, under CPython's int-to-str digit limit
_DECIMAL_CHUNK = 4000


def _decimal(value) -> str:
    """The decimal text of a non-negative int or Fraction of any size.

    `str` of an int of more than 4,300 digits raises under CPython's default
    conversion limit; a larger value is split into chunks of
    `_DECIMAL_CHUNK` digits by divmod, each short enough to convert.
    """
    if type(value) is not int:
        return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"
    if value.bit_length() <= 3 * _DECIMAL_CHUNK:
        return str(value)  # below 8^chunk, so at most chunk digits
    high, low = divmod(value, 10 ** _DECIMAL_CHUNK)
    return _decimal(high) + str(low).zfill(_DECIMAL_CHUNK) if high else str(low)


class ParseError(ValueError):
    """Expression rejected; `offset` is the byte position of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


#: one token after insignificant whitespace: a run of ASCII digits, an ASCII
#: coordinate name, or any other single character
_TOKEN = re.compile(r"\s*([0-9]+|[A-Za-z_][A-Za-z0-9_]*|\S)")
_DIGITS = frozenset("0123456789")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")


class _Parser:
    """Recursive-descent parser for the expression grammar:

        expr     := term (('+'|'-') term)*
        term     := factor ('*' factor)*
        factor   := atom ('^' uint)?
        atom     := rational | coordname | '(' expr ')'
        rational := int ('/' uint)?

    Whitespace is insignificant.  Digits are ASCII, and coordinate names are
    [A-Za-z_][A-Za-z0-9_]*.  The text is split into `_TOKEN`s once.  A term
    whose factors are rationals, coordinates or their powers stays one
    (coefficient, packed key) pair, added straight into its expression's
    term map, which is made canonical once; only a term with a parenthesized
    factor multiplies Polynomials.
    """

    def __init__(self, text: str, chart: Chart):
        self.text = text
        self.chart = chart
        self.tokens = _TOKEN.findall(text)
        self.tokens.append("")  # the end of the text
        self.i = 0
        self.pairs = 0  # term pairs multiplied so far

    def error(self, message: str, i: int) -> ParseError:
        """A ParseError at the start of token i, or at the end of the text."""
        starts = [m.start(1) for m in _TOKEN.finditer(self.text)]
        return ParseError(message, starts[i] if i < len(starts) else len(self.text))

    def spend(self, pairs: int, i: int) -> None:
        """Count `pairs` more term pairs multiplied for this expression;
        a ParseError at token i once the total passes
        `PRODUCT_PAIR_BUDGET`."""
        self.pairs += pairs
        if self.pairs > PRODUCT_PAIR_BUDGET:
            raise self.error(
                f"expression multiplies {self.pairs} term pairs in all, above the budget of "
                f"{PRODUCT_PAIR_BUDGET}", i)

    def parse(self) -> Polynomial:
        result = self.expr()
        tok = self.tokens[self.i]
        if tok:
            raise self.error(f"unexpected {tok[0]!r}", self.i)
        return result

    def expr(self) -> Polynomial:
        terms: dict = {}
        get = terms.get
        sign = 1
        while True:
            coeff, key, product = self.term()
            if product is not None:
                for e, c in product._terms.items():
                    terms[e] = get(e, 0) + sign * c
            elif coeff:
                terms[key] = get(key, 0) + sign * coeff
            op = self.tokens[self.i]
            if op == "+":
                sign = 1
            elif op == "-":
                sign = -1
            else:
                return _make(self.chart, _canonical(terms))
            self.i += 1

    def term(self) -> tuple:
        """(coefficient, packed key, None) for a product of rationals,
        coordinates and their powers; (_, _, product) once a factor is
        parenthesized.  A product of monomials raises at the '*' where its
        key first passes the exponent limit, as long as it is nonzero.  Each
        '*' counts the term pairs of its two factors toward the expression's
        total (`spend`), one for two nonzero monomials."""
        tokens = self.tokens
        chart = self.chart
        coeff, key, product = self.factor()
        while tokens[self.i] == "*":
            star = self.i
            self.i += 1
            c, k, right = self.factor()
            try:
                if product is None and right is None:
                    if coeff and c:
                        self.spend(1, star)
                        key += k
                        if key & chart._guard:
                            _check_guard(chart, (key,))
                    coeff *= c
                    continue
                if product is None:
                    product = _monomial(chart, coeff, key)
                if right is None:
                    right = _monomial(chart, c, k)
                pairs = len(product._terms) * len(right._terms)
                if pairs > PRODUCT_PAIR_BUDGET:
                    raise self.error(
                        f"product of {len(product._terms)} and {len(right._terms)} terms has "
                        f"{pairs} term pairs, above the budget of {PRODUCT_PAIR_BUDGET}", star)
                self.spend(pairs, star)
                product = product * right
            except ChartError as exc:
                raise self.error(str(exc), star) from None
        return coeff, key, product

    def factor(self) -> tuple:
        """(coefficient, packed key, None) for a rational, a coordinate or a
        power of one; (None, None, polynomial) for a parenthesized
        expression or a power of one."""
        tokens = self.tokens
        i = self.i
        tok = tokens[i]
        self.i = i + 1
        first = tok[:1]
        if first in _NAME_START:
            index = self.chart._index.get(tok)
            if index is None:
                raise self.error(f"unknown coordinate {tok!r}", i)
            key = 1 << self.chart._shifts[index]
            if tokens[self.i] == "^":
                key *= self.exponent(1, (1,))
            return 1, key, None
        if first in _DIGITS or tok == "-":
            coeff = self.rational(tok)
            if tokens[self.i] == "^":
                coeff **= self.exponent(0, (coeff,) if coeff else ())
            return coeff, 0, None
        if tok == "(":
            inner = self.expr()
            if tokens[self.i] != ")":
                raise self.error("expected ')'", self.i)
            self.i += 1
            if tokens[self.i] == "^":
                terms = inner._terms
                top = max((max(self.chart.unpack(e), default=0) for e in terms), default=0)
                n = self.exponent(top, tuple(terms.values()))
                if len(terms) < 2 or n == 0:
                    inner = inner ** n
                else:
                    # n - 1 products by the base, the term pairs `exponent` bounds
                    base = inner
                    for _ in range(n - 1):
                        inner = inner * base
            return None, None, inner
        raise self.error("expected rational, coordinate or '('", i)

    def rational(self, tok: str):
        """The rational `tok` starts, its sign and denominator read."""
        negative = tok == "-"
        if negative:
            if self.tokens[self.i][:1] not in _DIGITS:
                raise self.error("expected digits after '-'", self.i)
            self.i += 1
        value = self.literal(self.i - 1)
        if self.tokens[self.i] == "/":
            self.i += 1
            i = self.i
            den = 0
            if self.tokens[i][:1] in _DIGITS:
                den = self.literal(i)
                self.i += 1
            if den == 0:
                raise self.error("expected positive denominator", i)
            value = Fraction(value, den)
        return -value if negative else value

    def literal(self, i: int) -> int:
        """The value of digit token i, of at most `LITERAL_DIGIT_LIMIT` digits."""
        digits = self.tokens[i]
        if len(digits) > LITERAL_DIGIT_LIMIT:
            raise self.error(
                f"integer literal of {len(digits)} digits, above the limit of "
                f"{LITERAL_DIGIT_LIMIT}", i)
        return int(digits)

    def exponent(self, top: int, coeffs: tuple) -> int:
        """The exponent N of `base^N`, read from the token after the '^',
        once the power is known to fit.  The base has the largest exponent
        `top` and the t nonzero coefficients `coeffs`.  N times `top` (at
        least 1) is at most `EXPONENT_LIMIT`.  For t >= 2 the expansion has
        at most `POWER_TERM_BUDGET` terms, and its N - 1 products by the
        base multiply at most `PRODUCT_PAIR_BUDGET` term pairs in all: the
        j-th multiplies at most t * C(j + t - 1, t - 1), so they sum to
        t * (C(N + t - 1, t) - 1), which count toward the expression's
        total (`spend`).  For N >= 2 the coefficients of the power fit
        `_power_fits`."""
        self.i += 1
        i = self.i
        digits = self.tokens[i]
        if digits[:1] not in _DIGITS:
            raise self.error("expected unsigned integer exponent", i)
        self.i += 1
        digits = digits.lstrip("0")
        # a longer digit string is above the limit, and int() refuses very long ones
        n = int(digits or "0") if len(digits) <= len(str(EXPONENT_LIMIT)) else EXPONENT_LIMIT + 1
        if n * max(top, 1) > EXPONENT_LIMIT:
            raise self.error(f"power exceeds the exponent limit {EXPONENT_LIMIT}", i)
        t = len(coeffs)
        if t > 1:
            if comb(n + t - 1, t - 1) > POWER_TERM_BUDGET:
                raise self.error(
                    f"power ^{n} of {t} terms may expand to {comb(n + t - 1, t - 1)} terms, "
                    f"above the budget of {POWER_TERM_BUDGET}", i)
            pairs = t * (comb(n + t - 1, t) - 1)
            if pairs > PRODUCT_PAIR_BUDGET:
                raise self.error(
                    f"power ^{n} of {t} terms multiplies {pairs} term pairs, "
                    f"above the budget of {PRODUCT_PAIR_BUDGET}", i)
            if n > 1:
                self.spend(pairs, i)
        if n > 1 and not _power_fits(coeffs, n):
            raise self.error(
                f"power ^{n} gives a coefficient of more than {LITERAL_DIGIT_LIMIT} digits", i)
        return n


def _monomial(chart: Chart, coeff, key: int) -> Polynomial:
    """The Polynomial coeff * monomial `key`."""
    coeff = _coeff(coeff)
    return _make(chart, {key: coeff} if coeff else {})


def _power_fits(coeffs, n: int) -> bool:
    """Whether the n-th power of a base with the coefficients `coeffs`
    (ints or Fractions) keeps every numerator and denominator within
    `LITERAL_DIGIT_LIMIT` digits, by a bound that holds for every base.

    Write the base as (1/D) * sum a_i m_i, with integers a_i and the common
    denominator D.  Each coefficient of the power is an integer of absolute
    value at most S^n, S = sum |a_i|, over D^n; so the power fits when S^n
    and D^n have at most that many digits.  On a one-term base a/D in lowest
    terms, these are the numerator and denominator of its power.

    A part a of b bits has 2^(n(b-1)) <= a^n < 2^(nb), and 2^(3L) < 10^L
    for the limit L, so the bit lengths settle it except in a narrow band,
    where a^n is computed: under 2^(n + bits of 10^L).
    """
    den = lcm(*(c.denominator for c in coeffs))
    total = sum(abs(c.numerator) * (den // c.denominator) for c in coeffs)
    for a in (total, den):
        b = a.bit_length()
        if n * b > 3 * LITERAL_DIGIT_LIMIT:
            bound = 10 ** LITERAL_DIGIT_LIMIT
            if n * (b - 1) >= bound.bit_length() or a ** n >= bound:
                return False
    return True


def parse(text: str, chart: Chart) -> Polynomial:
    """Parse an expression into a canonical Polynomial on `chart`."""
    return _Parser(text, chart).parse()
