"""Checks on the repository's own text: no unused import in the library
modules, every library import relative or from the standard library, no
module-level or class-level state but constants, no library name or method
that only the tests reach, the polynomial kernel's term maps handled only
in `poly.py`, index sorting only in `forms.py`, no partials of their own in
the IM, derivation, Weil and morphism checkers, no d in the morphism
route's frame values for forms, no derivation conversion in those for
multivectors, and README's quick tour runs as written."""

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


#: the module-level names bound to something other than a constant, each
#: built once at import and only read after
STATE_ALLOWED = {("cli.py", "ROUTE_TAGS"), ("cli.py", "_PARSER")}
#: the calls whose result is a constant when their arguments are
CONSTANT_CALLS = {"frozenset", "re.compile"}
#: decorators that keep results for the life of the process
CACHING = {"cache", "lru_cache", "functools.cache", "functools.lru_cache"}


def _constant(node) -> bool:
    """Whether an expression is a constant: a number or string, a tuple,
    operators on constants, a `frozenset` or compiled regex of constants,
    or a name for something defined elsewhere (a name, an attribute of one,
    or a subscripted type such as `Callable[[int], int]`)."""
    if isinstance(node, (ast.Constant, ast.Name)):
        return True
    if isinstance(node, (ast.Attribute, ast.Subscript)):
        return isinstance(node.value, (ast.Name, ast.Attribute)) and _constant(node.value)
    if isinstance(node, ast.Tuple):
        return all(map(_constant, node.elts))
    if isinstance(node, ast.UnaryOp):
        return _constant(node.operand)
    if isinstance(node, ast.BinOp):
        return _constant(node.left) and _constant(node.right)
    if isinstance(node, ast.Call):
        return (ast.unparse(node.func) in CONSTANT_CALLS and not node.keywords
                and all(map(_constant, node.args)))
    return False


def held_state(source: str, module: str = "") -> list:
    """The (line, name) of each module-level or class-level binding in
    `source` whose value is not a constant, outside `STATE_ALLOWED`, and of
    each function or method that a caching decorator wraps."""
    out = []
    scopes = [ast.parse(source).body]
    scopes += [node.body for node in scopes[0] if isinstance(node, ast.ClassDef)]
    for body in scopes:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for d in node.decorator_list:
                    name = ast.unparse(d.func if isinstance(d, ast.Call) else d)
                    if name in CACHING:
                        out.append((node.lineno, node.name))
                continue
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets, value = [node.target], node.value
            else:
                continue
            if value is None or _constant(value):
                continue
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and (module, name.id) not in STATE_ALLOWED:
                        out.append((node.lineno, name.id))
    return sorted(out)


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "imcalc").glob("*.py")),
                         ids=lambda p: p.name)
def test_library_holds_no_state_across_calls(path):
    """No module-level or class-level cache: a table that outlives the call
    that filled it is shared by every caller in the process."""
    assert held_state(path.read_text(encoding="utf-8"), path.name) == []


def test_state_check_sees_what_it_should():
    source = ("import re\n"
              "from functools import lru_cache\n"
              "from typing import Callable\n"
              "LIMIT = (1 << 16) - 1\n"
              "NAMES = ('a', 'b')\n"
              "DIGITS = frozenset('0123')\n"
              "TOKEN = re.compile(r'\\s+')\n"
              "Action = Callable[[int], int]\n"
              "_PACKS = {}\n"
              "ROUTE_TAGS = {'a': ('A',)}\n"
              "class P:\n"
              "    __slots__ = ('x',)\n"
              "    _seen: dict = {}\n"
              "    __radd__ = LIMIT\n"
              "    @lru_cache(maxsize=None)\n"
              "    def f(self):\n"
              "        table = {}\n"
              "        return table\n"
              "width = P.f.__wrapped__\n"
              "_memo = dict()\n"
              "_rows = [0] * LIMIT\n")
    assert held_state(source, "other.py") == [
        (9, "_PACKS"), (10, "ROUTE_TAGS"), (13, "_seen"), (16, "f"), (20, "_memo"),
        (21, "_rows")]
    assert (10, "ROUTE_TAGS") not in held_state(source, "cli.py")


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


def index_sorting(source: str) -> list:
    """The line of each reference to `sort_indices` in `source`: by name,
    as an attribute or imported."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == "sort_indices" \
                or isinstance(node, ast.Attribute) and node.attr == "sort_indices":
            out.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            out += [node.lineno for a in node.names if a.name == "sort_indices"]
    return sorted(out)


def own_calculus(source: str) -> list:
    """The (line, name) of each `.diff(` call in `source`, and of each name
    it binds (a variable, attribute, function or argument) for a table of
    partials or negations: one that holds "partial", "negat" or "grad"."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "diff":
            out.append((node.lineno, "diff"))
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            name = node.attr
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = node.name
        elif isinstance(node, ast.arg):
            name = node.arg
        else:
            continue
        if any(part in name.lower() for part in ("partial", "negat", "grad")):
            out.append((node.lineno, name))
    return sorted(out)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "forms.py"],
                         ids=lambda p: p.name)
def test_only_forms_sorts_indices(path):
    """The sign and sort rules of d, contraction, derivations and wedges
    live in `forms.py`; other modules call its operators."""
    assert index_sorting(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("name", ["imforms.py", "multivec.py", "weil.py"])
def test_checkers_differentiate_only_through_forms(name):
    """The IM, derivation and Weil checkers take partials and negations from
    `forms.Calculus` and keep no table of their own."""
    assert own_calculus((ROOT / "src" / "imcalc" / name).read_text(encoding="utf-8")) == []


def test_morphism_check_differentiates_only_through_forms():
    """`check_morphism_to_line` and its sorted path take partials and
    negations from the call's `forms.Calculus`.  The prolongation builders
    and `anchor_derivation` beside them in `algebroid.py` take one-shot
    `diff`s, so the rule reads only these two definitions."""
    source = (ROOT / "src" / "imcalc" / "algebroid.py").read_text(encoding="utf-8")
    segments = {node.name: ast.get_source_segment(source, node)
                for node in ast.parse(source).body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    for name in ("check_morphism_to_line", "_SortedResiduals"):
        assert own_calculus(segments[name]) == [], name


def test_calculus_checks_see_what_they_should():
    source = ("from .forms import collect, sort_indices\n"
              "from . import forms\n"
              "class R:\n"
              "    def __init__(self, f):\n"
              "        self.grads = {}\n"
              "        negated = {}\n"
              "        key, sign = forms.sort_indices((1, 0))\n"
              "        return f.diff('x1'), sort_indices\n"
              "    def partial(self, f, name):\n"
              "        return self.ops.partial(f, 0), f.degree\n")
    assert index_sorting(source) == [1, 7, 8]
    assert own_calculus(source) == [(5, "grads"), (6, "negated"), (8, "diff"), (9, "partial")]


def references_in(source: str, function: str, names: set) -> list:
    """The (line, name) of each reference to one of `names`, by name or as
    an attribute, in the body of the top-level function `function`."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name == function:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and sub.id in names:
                    out.append((sub.lineno, sub.id))
                elif isinstance(sub, ast.Attribute) and sub.attr in names:
                    out.append((sub.lineno, sub.attr))
    return sorted(out)


#: the operators whose d or contraction chain the form frame values avoid
CHAIN = {"exterior_derivative", "iterated_contract"}


def test_form_frame_values_take_no_d():
    """The morphism route computes the frame values of an IM form from
    minors, with no d, so that a slip in d moves only its cross-check, which
    `cross_check_frame_values` runs on `linear_form` and its d."""
    source = (ROOT / "src" / "imcalc" / "linforms.py").read_text(encoding="utf-8")
    assert references_in(source, "form_frame_functional", CHAIN) == []
    assert references_in(source, "linear_form", CHAIN) != []


def test_multivector_frame_values_skip_the_derivation():
    """The dual morphism route reads the fiber and mixed tables itself, so
    that a slip in `derivation_from_linear` moves only the derivation route."""
    source = (ROOT / "src" / "imcalc" / "multivec.py").read_text(encoding="utf-8")
    conversion = {"derivation_from_linear", "coord_action", "frame_action"}
    assert references_in(source, "multivector_frame_functional", conversion) == []
    assert references_in(source, "derivation_routes", conversion) != []


def test_reference_check_sees_what_it_should():
    source = ("from .forms import exterior_derivative, iterated_contract\n"
              "from . import forms\n"
              "def form_frame_functional(im):\n"
              "    full = forms.exterior_derivative(im.mu)\n"
              "    def inner(t):\n"
              "        return iterated_contract(t, full)\n"
              "    return _cross_check_form_values(im, inner)\n"
              "def _cross_check_form_values(im, f):\n"
              "    return exterior_derivative(im.mu)\n")
    assert references_in(source, "form_frame_functional", CHAIN) == [
        (4, "exterior_derivative"), (6, "iterated_contract")]
    assert references_in(source, "_cross_check_form_values", CHAIN) == [
        (9, "exterior_derivative")]
    assert references_in(source, "missing", CHAIN) == []


def test_readme_quick_tour_runs_verbatim():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library quick tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    namespace: dict = {}
    exec(compile(block, "README.md quick tour", "exec"), namespace)
    # the values its comments state
    assert namespace["check_im_form"](namespace["im"]).passed
    assert namespace["oracle_equivalence"](namespace["im"]) == (True, True)


# -- what reaches each top-level name -----------------------------------------

PACKAGE = "imcalc"


def _library_module(node: ast.ImportFrom) -> str | None:
    """The library module an import reads from: "" for the package root,
    None for an import from outside the library."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and node.module.split(".")[0] == PACKAGE:
        return node.module[len(PACKAGE) + 1:]
    return None


def _imported(tree) -> dict:
    """{local name: (module, name)} for every library import in `tree`,
    at any depth."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = _library_module(node)
            if module is not None:
                for alias in node.names:
                    out[alias.asname or alias.name] = (module, alias.name)
    return out


def _named(node, imported: dict, module: str) -> set:
    """The (module, name) pairs `node` refers to: each name, read through
    the imports or else as a top-level name of `module`, and `m.name` for a
    library module m imported from the package root."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(imported.get(sub.id, (module, sub.id)))
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            home = imported.get(sub.value.id)
            if home is not None and home[0] == "":
                out.add((home[1], sub.attr))
    return out


def reference_graph(library: dict) -> dict:
    """{(module, name): pairs its definition refers to} over the top-level
    functions, classes and assigned names of the library modules `library`
    ({module: source}, the package root under ""); a re-export of the root
    refers to what it imports, and (module, None) holds what the module's
    other top-level statements refer to, as they run on import."""
    graph = {}
    for module, source in library.items():
        tree = ast.parse(source)
        imported = _imported(tree)
        graph[(module, None)] = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                if module == "":
                    for name, home in _imported(node).items():
                        graph[("", name)] = {home}
                continue
            else:
                graph[(module, None)] |= _named(node, imported, module)
                continue
            for name in names:
                graph.setdefault((module, name), set()).update(_named(node, imported, module))
    return graph


def quick_tour(readme: str) -> tuple:
    """README's quick tour as (the source of its Python block, the prose
    of the section with every fenced block taken out)."""
    section = readme.split("## Library quick tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    prose = re.sub(r"```.*?```", "", section, flags=re.S)
    return block, re.split(r"^#", prose, maxsplit=1, flags=re.M)[0]


def outside_roots(readme: str, scripts, sources, graph: dict) -> set:
    """The (module, name) pairs reached from outside the library: the
    console scripts ("imcalc.cli:main"), the quick tour's imports and the
    names in the backticks of its prose, and the library imports, module
    attributes and `TARGETS` rows of `sources` (the benchmark and tools)."""
    roots = set()
    for target in scripts:
        module, _, name = target.partition(":")
        roots.add((module[len(PACKAGE) + 1:], name))
    block, prose = quick_tour(readme)
    roots |= set(_imported(ast.parse(block)).values())
    roots |= {key for key in graph if key[1] in _backticked(prose)}
    for source in sources:
        tree = ast.parse(source)
        imported = _imported(tree)
        roots |= set(imported.values())
        roots |= {key for key in _named(tree, imported, "") if key[0] != ""}
        roots |= {(module, attr.split(".")[0]) for module, attr in _targets(tree)}
    return roots


def _backticked(prose: str) -> set:
    """The words inside the backticks of `prose`."""
    return {word for span in re.findall(r"`([^`]*)`", prose)
            for word in re.findall(r"[A-Za-z_]\w*", span)}


def _targets(tree) -> list:
    """(module, attribute) of each row of a top-level `TARGETS` tuple, the
    module without the package prefix: "Polynomial.diff" for a method."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            out += [(module[len(PACKAGE) + 1:], attr)
                    for module, attr, *_ in ast.literal_eval(node.value)]
    return out


def reached(graph: dict, roots: set) -> set:
    """The keys of `graph` that `roots` or the modules' top-level
    statements reach through it."""
    seen = set()
    todo = list(roots | {key for key in graph if key[1] is None})
    while todo:
        key = todo.pop()
        if key in seen or key not in graph:
            continue
        seen.add(key)
        todo.extend(graph[key])
    return seen


def unreached(graph: dict, roots: set) -> list:
    """The (module, name) of each top-level library name, outside the
    package root and dunder names, that no root reaches through `graph`."""
    seen = reached(graph, roots)
    return sorted(key for key in graph
                  if key[0] and key[1] and not key[1].startswith("__") and key not in seen)


def _class_names(tree, module: str, classes: set) -> dict:
    """{local name: (module, class)} for each library class in `classes`
    that `tree` imports or, as a library module `module`, defines."""
    out = {name: home for name, home in _imported(tree).items() if home in classes}
    out.update({name: (module, name) for m, name in classes if m == module})
    return out


def unreached_members(library: dict, seen: set, readme: str, sources) -> list:
    """The (module, class, name) of each method and property of a reached
    top-level class, dunders aside, that nothing reaches.  A member is
    reached when reached code outside its own def, the tour's Python block
    or `sources` (the benchmark and tools) reads its name as an attribute,
    when the tour's prose backticks its name, or when a `TARGETS` row of
    `sources` names it as `Class.name`.  `seen` holds the reached top-level
    names: their bodies are reached code, and so are each reached class's
    dunders and other statements, and each member once it is reached.
    A read `Cls.name` of a library class reaches only the member of `Cls`,
    or of the first base class of it that defines `name`; every other read
    matches members by name alone."""
    trees = {module: ast.parse(source) for module, source in library.items()}
    classes = {(module, node.name): node for module, tree in trees.items()
               for node in tree.body if isinstance(node, ast.ClassDef)}
    local = {module: _class_names(tree, module, set(classes)) for module, tree in trees.items()}
    members, code = {}, []
    for module, tree in trees.items():
        receivers = local[module]
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and (module, node.name) in seen:
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                            sub.name.startswith("__") and sub.name.endswith("__")):
                        members[(module, node.name, sub.name)] = (sub, receivers)
                    else:
                        code.append((sub, receivers))
            elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    or (module, node.name) in seen:
                code.append((node, receivers))

    def defining(module: str, cls: str, name: str):
        """The member `name` that `module.cls` defines or inherits."""
        if (module, cls, name) in members:
            return (module, cls, name)
        for base in classes[module, cls].bases:
            home = isinstance(base, ast.Name) and local[module].get(base.id)
            if home and (key := defining(*home, name)):
                return key
        return None

    reads, qualified = set(), set()

    def read(node, receivers: dict) -> None:
        """Add the attribute reads of `node` to `reads`, or to `qualified`
        as (module, class, name) when `receivers` maps the receiver to a
        library class."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                home = isinstance(sub.value, ast.Name) and receivers.get(sub.value.id)
                if home:
                    qualified.add((*home, sub.attr))
                else:
                    reads.add(sub.attr)

    block, prose = quick_tour(readme)
    outside = [ast.parse(block)] + [ast.parse(source) for source in sources]
    for node, receivers in code + [(tree, _class_names(tree, None, set(classes)))
                                   for tree in outside]:
        read(node, receivers)
    named = _backticked(prose)
    rows = {(module, *attr.split(".")) for tree in outside[1:] for module, attr in _targets(tree)}
    found = set()
    todo = {key for key in members if key[2] in named | reads or key in rows}
    todo |= {key for pair in qualified if (key := defining(*pair))}
    while todo:
        found |= todo
        for key in todo:
            read(*members[key])
        todo = {key for key in members if key[2] in reads}
        todo |= {key for pair in qualified if (key := defining(*pair))}
        todo -= found
    return sorted(set(members) - found)


def test_every_library_name_is_reached():
    """A top-level name, method or property stays in `src/` only if
    `verify`, the quick tour, the benchmark or the tools reach it, or
    something else that stays; batteries only the tests use live in
    `tests/support.py`."""
    library = {"" if p.name == "__init__.py" else p.stem: p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "src" / PACKAGE).glob("*.py"))}
    graph = reference_graph(library)
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"].values()
    outside = [p for p in sorted((ROOT / "perfbench").glob("*.py"))
               if not p.name.startswith("test_")] + sorted((ROOT / "tools").glob("*.py"))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sources = [p.read_text(encoding="utf-8") for p in outside]
    roots = outside_roots(readme, scripts, sources, graph)
    missing = unreached(graph, roots)
    assert not missing, "reached by nothing: " + ", ".join(f"{m}.{n}" for m, n in missing)
    missing = unreached_members(library, reached(graph, roots), readme, sources)
    assert not missing, "reached by nothing: " + ", ".join(
        f"{m}.{c}.{n}" for m, c, n in missing)


def test_reach_check_sees_what_it_should():
    """A def that nothing calls, and one named in the tour's prose or its
    code comment but never in backticks, are unreached; a name in
    backticks past the tour's section reaches nothing either."""
    library = {
        "": "from .alg import check\n",
        "alg": ("from .kernel import Poly as P\n"
                "LIMIT = 3\n"
                "def check(x):\n"
                "    return P(x) + LIMIT\n"
                "def orphan():\n"
                "    return check(1)\n"
                "def in_prose():\n"
                "    pass\n"
                "def traced():\n"
                "    pass\n"),
        "kernel": "class Poly:\n    pass\ndef _helper():\n    pass\n",
        "cli": ("from .alg import check\n"
                "def main():\n"
                "    return check(0)\n"
                "if __name__ == '__main__':\n"
                "    _helper()\n"),
    }
    readme = ("## Library quick tour\n\n"
              "```python\nfrom imcalc import check\n# in_prose, `orphan`\n```\n\n"
              "Call `check(x)`; in_prose is named here but not in backticks.\n\n"
              "### Next\n\n`orphan`\n")
    bench = ("from imcalc import cli\n"
             "TARGETS = (('imcalc.alg', 'traced', 'alg'),)\n"
             "def run():\n"
             "    return cli.main()\n")
    graph = reference_graph(library)
    roots = outside_roots(readme, [], [bench], graph)
    assert ("cli", "main") in roots and ("alg", "traced") in roots
    assert unreached(graph, roots) == [("alg", "in_prose"), ("alg", "orphan"),
                                       ("kernel", "_helper")]


def test_member_reach_check_sees_what_it_should():
    """A method that nothing reads, one read only inside its own def, one
    read only by an unreached method and one named only in a comment of
    the tour's code are unreached; one named by a `TARGETS` row, one in the
    backticks of the tour's prose, a property the benchmark reads and a
    method that a dunder calls, with what it calls, are reached.  A read
    `Poly.shared` reaches the `shared` of `Poly` and not that of its base,
    and a read `Poly.inherited` reaches the base's `inherited`."""
    library = {
        "": "from .alg import check\n",
        "alg": ("class Base:\n"
                "    def shared(self):\n"
                "        pass\n"
                "    def inherited(self):\n"
                "        pass\n"
                "class Poly(Base):\n"
                "    def shared(self):\n"
                "        pass\n"
                "    def __init__(self):\n"
                "        self.norm()\n"
                "    def norm(self):\n"
                "        return self.helper()\n"
                "    def helper(self):\n"
                "        return 1\n"
                "    @property\n"
                "    def size(self):\n"
                "        return 0\n"
                "    def traced(self):\n"
                "        pass\n"
                "    def in_prose(self):\n"
                "        pass\n"
                "    def commented(self):\n"
                "        pass\n"
                "    def recursive(self):\n"
                "        return self.recursive()\n"
                "    def orphan(self):\n"
                "        return self.from_orphan()\n"
                "    def from_orphan(self):\n"
                "        pass\n"
                "def check(x):\n"
                "    return Poly()\n"),
    }
    readme = ("## Library quick tour\n\n"
              "```python\nfrom imcalc import check\n# check(1).commented()\n```\n\n"
              "Then call `Poly.in_prose`.\n")
    bench = ("from imcalc.alg import Poly\n"
             "TARGETS = (('imcalc.alg', 'Poly.traced', 'alg'),)\n"
             "def run(p):\n"
             "    return p.size, Poly.shared(p), Poly.inherited(p)\n")
    graph = reference_graph(library)
    seen = reached(graph, outside_roots(readme, [], [bench], graph))
    assert unreached_members(library, seen, readme, [bench]) == [("alg", "Base", "shared")] + [
        ("alg", "Poly", name) for name in ("commented", "from_orphan", "orphan", "recursive")]
