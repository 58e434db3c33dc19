"""The routes that check an IM form stay independent where it matters: a
slip in one shared operator of `forms.Calculus` makes `verify` report a
disagreement (exit 3), never a wrong verdict that the routes agree on.

The IM route takes d from `Calculus.add_d`; the morphism route's frame
values take no d, and on an im-form document its cross-check contracts
`linear_form`, whose d is `forms.exterior_derivative`, which takes its
partials from `diff` and shares no operator of `Calculus`.  (On a Weil
document it contracts the candidate itself, which takes no d at all.)  So a d that drops the sign of its index
sort, or a negated d, moves the IM verdict alone: the morphism route still
passes, and the routes disagree.

The dual routes share no conversion either: only the derivation route reads
a linear multivector through `multivec.derivation_from_linear`, and the
morphism route reads the fiber and mixed tables itself.
"""

from __future__ import annotations

import json
from itertools import combinations
from pathlib import Path

import pytest

from imcalc import cli, forms, multivec
from imcalc.fixtures import koszul_algebroid
from imcalc.forms import DifferentialForm, Multivector
from imcalc.imforms import im_form_from_base_form
from imcalc.multivec import Derivation
from imcalc.poly import Polynomial, base_chart

LADDER = Path(__file__).resolve().parent / "golden" / "ladder"


def _form_body(form: DifferentialForm) -> dict:
    return {"degree": form.degree,
            "terms": [[[i + 1 for i in idx], str(p)] for idx, p in sorted(form.coeffs.items())]}


def exact_im_document(n: int, k: int) -> dict:
    """The im-form document of the exact IM k-form of a base k-form on the
    Koszul algebroid of {x_i, x_j} = c_ij x_i x_j, a Poisson bivector for
    every c.  Each component of the base form is a + b x_m, x_m the first
    coordinate outside it, so that its d is nonzero below top degree."""
    chart = base_chart("M", [f"x{i + 1}" for i in range(n)])
    x = [Polynomial.variable(chart, name) for name in chart.names]
    pairs = list(combinations(range(n), 2))
    bivector = {(i, j): x[i] * x[j] * (3 * t - 7) for t, (i, j) in enumerate(pairs, start=1)}
    algebroid = koszul_algebroid(Multivector(chart, 2, bivector))
    eta = {}
    for t, idx in enumerate(combinations(range(n), k), start=1):
        m = next((i for i in range(n) if i not in idx), 0)
        eta[idx] = x[m] * (2 * t + 1) - 5 * t
    im = im_form_from_base_form(algebroid, DifferentialForm(chart, k, eta))
    structure = [[a + 1, b + 1, c + 1, str(p)]
                 for (a, b), row in sorted(algebroid.structure.items())
                 for c, p in sorted(row.items())]
    return {
        "base": list(chart.names),
        "rank": algebroid.rank,
        "frame": list(algebroid.frame_names),
        "anchor": [[str(p) for p in row] for row in algebroid.anchor],
        "structure": structure,
        "candidate": {"type": "im-form", "k": k,
                      "mu": [_form_body(f) for f in im.forms.mu],
                      "nu": [_form_body(f) for f in im.forms.nu]},
        "options": {"mode": "im-form", "k": k, "oracle": "on"},
    }


def _add_d_unsorted(ops, groups, table, s):
    """`Calculus.add_d` with the sign of the index sort dropped."""
    for idx, f in table.items():
        for j in range(len(ops.names)):
            if j not in idx:
                df = ops.partial(f, j)
                if not df.is_zero():
                    groups.setdefault(tuple(sorted((j,) + idx)), []).append((df, s))


_ADD_D = forms.Calculus.add_d
_ADD_CONTRACT = forms.Calculus.add_contract

MUTANTS = {
    "add_d ignores its sort sign": ("add_d", _add_d_unsorted),
    "d negated": ("add_d", lambda ops, groups, table, s: _ADD_D(ops, groups, table, -s)),
    "contraction parity flipped": (
        "add_contract",
        lambda ops, groups, components, table, s: _ADD_CONTRACT(ops, groups, components,
                                                                table, -s)),
}


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    root = tmp_path_factory.mktemp("exact_im")
    paths = []
    for n in (3, 4):
        path = root / f"n{n}_k3_im.json"
        path.write_text(json.dumps(exact_im_document(n, 3)))
        paths.append(path)
    return paths


def test_exact_documents_pass(documents, capsys):
    for path in documents:
        assert cli.main(["--input", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["oracle"]["agree"] is True


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_a_calculus_slip_makes_the_routes_disagree(documents, monkeypatch, capsys, mutant):
    name, replacement = MUTANTS[mutant]
    monkeypatch.setattr(forms.Calculus, name, replacement)
    for path in documents:
        code = cli.main(["--input", str(path)])
        out = capsys.readouterr().out
        # an agreed FAIL on an exact form would be a wrong verdict
        assert not (code == 1 and json.loads(out)["oracle"]["agree"])
        assert code == 3, path.name


def test_a_derivation_conversion_slip_makes_the_dual_routes_disagree(monkeypatch, capsys):
    convert = multivec.derivation_from_linear

    def negated_frame_actions(p):
        d = convert(p)
        return Derivation(d.algebroid, d.k, d.on_coord,
                          {name: -s for name, s in d.on_frame.items()})

    monkeypatch.setattr(multivec, "derivation_from_linear", negated_frame_actions)
    code = cli.main(["--input", str(LADDER / "n4_k3_mv.json")])
    assert code == 3
    assert json.loads(capsys.readouterr().out)["oracle"] == {
        "agree": False, "derivation": False, "morphism": True}
