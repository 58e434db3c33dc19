"""The Koszul (cotangent) algebroid of a bivector field, from which the
benchmark builds its ladder of problems.

The named example algebroids and candidates of the test suite are built on
top of it in `tests/support.py`.
"""

from __future__ import annotations

from .algebroid import LieAlgebroid
from .forms import Multivector


def koszul_algebroid(pi: Multivector, unchecked: bool = False) -> LieAlgebroid:
    """Cotangent algebroid data of a bivector field.

    Frame section a stands for the a-th coordinate differential; the anchor
    row is the contraction of the bivector with it and the structure
    functions are the coordinate derivatives of the bivector components.
    This is a Lie algebroid exactly when the bivector is Poisson; pass
    `unchecked=True` to build the data for a non-Poisson bivector.
    """
    chart = pi.chart
    n = chart.dim
    anchor = [[pi.coeff((a, j)) for j in range(n)] for a in range(n)]
    structure: dict = {}
    for a in range(n):
        for b in range(a + 1, n):
            row = {}
            for c, name in enumerate(chart.names):
                d = pi.coeff((a, b)).diff(name)
                if not d.is_zero():
                    row[c] = d
            if row:
                structure[(a, b)] = row
    names = tuple(f"e{i + 1}" for i in range(n))
    return LieAlgebroid(chart, n, names, anchor, structure, unchecked=unchecked)
