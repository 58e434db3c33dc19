"""Checks on the repository's own text: no unused import in the library
modules, every library import relative or from the standard library, the
polynomial kernel's term maps handled only in `poly.py`, and README's quick
tour runs as written."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "imcalc").glob("*.py") if p.name != "__init__.py")


def _annotation_names(node) -> set:
    """Names in a string annotation, such as the "LinearMultivector" a
    classmethod returns."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                if isinstance(n, ast.Name)}
    return set()


def unused_imports(source: str) -> list:
    """The names an import binds that nothing else in `source` reads."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_library_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_check_sees_what_it_should():
    source = ("from typing import TYPE_CHECKING, Mapping, Sequence\n"
              "import random\n"
              "if TYPE_CHECKING:\n"
              "    from .imforms import IMForm\n"
              "def f(x: IMForm, y) -> 'Sequence':\n"
              "    return random.random()\n")
    assert unused_imports(source) == [(1, "Mapping")]


def non_stdlib_imports(source: str) -> list:
    """The (line, module) of each absolute import in `source` whose top
    module is not in the standard library."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        out += [(node.lineno, n) for n in names
                if n.split(".")[0] not in sys.stdlib_module_names]
    return out


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "imcalc").glob("*.py")),
                         ids=lambda p: p.name)
def test_library_imports_only_the_standard_library(path):
    assert non_stdlib_imports(path.read_text(encoding="utf-8")) == []


def test_stdlib_import_check_sees_what_it_should():
    source = ("from __future__ import annotations\n"
              "import os.path, json\n"
              "from fractions import Fraction\n"
              "from .poly import parse\n"
              "from . import forms\n"
              "import numpy as np\n"
              "def f():\n"
              "    from numpy.linalg import det\n"
              "    import sympy\n")
    assert non_stdlib_imports(source) == [(6, "numpy"), (8, "numpy.linalg"), (9, "sympy")]


#: the kernel's packed term map and its private constructors
KERNEL_MAP = "_terms"
KERNEL_BUILDERS = {"_make", "_canonical"}


def kernel_internals(source: str) -> list:
    """The (line, name) of each `._terms` read and each use of `_make` or
    `_canonical` (by name, as an attribute or imported) in `source`."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in KERNEL_BUILDERS | {KERNEL_MAP}:
            out.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in KERNEL_BUILDERS:
            out.append((node.lineno, node.id))
        elif isinstance(node, ast.ImportFrom):
            out += [(node.lineno, a.name) for a in node.names if a.name in KERNEL_BUILDERS]
    return sorted(out)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "poly.py"],
                         ids=lambda p: p.name)
def test_only_the_kernel_touches_term_maps(path):
    """Splitting, collecting and canonicalizing term maps stay in `poly.py`;
    other modules go through `Polynomial`'s methods."""
    assert kernel_internals(path.read_text(encoding="utf-8")) == []


def test_kernel_internals_check_sees_what_it_should():
    source = ("from .poly import Polynomial, _make\n"
              "from . import poly\n"
              "def f(p, terms):\n"
              "    out = dict(p._terms)\n"
              "    q = poly._canonical(out)\n"
              "    return _make(p.chart, q), p.terms, from_terms(terms)\n")
    assert kernel_internals(source) == [(1, "_make"), (4, "_terms"), (5, "_canonical"),
                                        (6, "_make")]


def test_readme_quick_tour_runs_verbatim():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library quick tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    namespace: dict = {}
    exec(compile(block, "README.md quick tour", "exec"), namespace)
    # the values its comments state
    assert namespace["check_im_form"](namespace["im"]).passed
    assert namespace["oracle_equivalence"](namespace["im"]) == (True, True)
