"""Problem documents for the `verify` benchmark, one generator per workload.

Each generator returns `Document`s: the exact file text `verify` reads plus the
answer it must give.  Generated documents are built with the library itself
and depend only on the seed; `imcalc` must already be importable and is
imported inside the generators, so that a fresh import (set-up is timed by
purging and re-importing the package) is the one the documents come from.

The seed changes coefficients and sample points, never the shape of a
document: which terms are present, their degrees and the document count are
fixed per workload, so the cost of a pass does not depend on the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path

# exit codes pinned by the CLI tests for the shipped corpus
CORPUS_EXIT = {
    "so3_axioms.json": 0,
    "broken_jacobi_axioms.json": 1,
    "so3_poisson_im2.json": 0,
    "so3_poisson_broken_im2.json": 1,
    "tangent_r2_exact_im2.json": 0,
    "so3_coboundary_mv2.json": 0,
    "so3_noncocycle_mv2.json": 1,
    "so3_poisson_weil2.json": 0,
    "malformed_expr.json": 2,
}

LADDER_RUNGS = ((3, 2), (4, 2), (3, 3), (4, 3))
LADDER_TOP = (5, 3)
DENSE_DEGREES = ((4, 3), (7, 4))
DENSE_SAMPLES = 4
# random coefficients are nonzero integers in [-COEFF_SPAN, COEFF_SPAN]; the
# range is wide so that sums of their products almost never cancel, and the
# terms of a document do not depend on the seed
COEFF_SPAN = 99

TOP_DOC = {
    "corpus": "so3_poisson_weil2.json",
    "oracle_ladder": "top_n5_k3_im.json",
    "dense_poly": "plane_d7_e4_perturbed.json",
}


@dataclass(frozen=True)
class Document:
    name: str
    text: str
    exit: int      # the exit code `verify` must return
    oracle: bool   # the report must carry an oracle block with "agree": true


def _dump(name: str, body: dict, exit_code: int) -> Document:
    text = json.dumps(body, indent=2, sort_keys=True) + "\n"
    return Document(name, text, exit_code, True)


def _nonzero(rng: random.Random) -> int:
    value = rng.randint(1, COEFF_SPAN)
    return value if rng.random() < 0.5 else -value


# -- corpus -------------------------------------------------------------------

def corpus_documents(root: Path, seed: int) -> list:
    """The shipped fixtures, byte for byte; the seed plays no part."""
    docs = []
    for name, code in CORPUS_EXIT.items():
        text = (root / "fixtures" / name).read_text(encoding="utf-8")
        options = json.loads(text).get("options", {}) if code != 2 else {}
        oracle = (options.get("mode", "axioms") != "axioms"
                  and options.get("oracle", "on") == "on")
        docs.append(Document(name, text, code, oracle))
    return docs


# -- serialisation of library objects ------------------------------------------

def _algebroid_body(algebroid) -> dict:
    structure = [[a + 1, b + 1, c + 1, str(p)]
                 for (a, b), row in sorted(algebroid.structure.items())
                 for c, p in sorted(row.items())]
    return {
        "base": list(algebroid.base_chart.names),
        "rank": algebroid.rank,
        "frame": list(algebroid.frame_names),
        "anchor": [[str(p) for p in row] for row in algebroid.anchor],
        "structure": structure,
    }


def _form_terms(form) -> list:
    return [[[i + 1 for i in idx], str(form.coeffs[idx])] for idx in sorted(form.coeffs)]


def _form_body(form) -> dict:
    return {"degree": form.degree, "terms": _form_terms(form)}


def _im_body(algebroid, forms, k: int) -> dict:
    body = _algebroid_body(algebroid)
    body["candidate"] = {"type": "im-form", "k": k,
                         "mu": [_form_body(f) for f in forms.mu],
                         "nu": [_form_body(f) for f in forms.nu]}
    body["options"] = {"mode": "im-form", "k": k, "oracle": "on"}
    return body


# -- oracle ladder -------------------------------------------------------------

def _log_canonical_algebroid(rng: random.Random, n: int):
    """Koszul algebroid of {x_i, x_j} = c_ij x_i x_j, Poisson for every c.

    The c_ij are nonzero so that every bracket term is present.
    """
    from imcalc.fixtures import koszul_algebroid
    from imcalc.forms import Multivector
    from imcalc.poly import Polynomial, base_chart

    chart = base_chart("M", [f"x{i + 1}" for i in range(n)])
    x = [Polynomial.variable(chart, name) for name in chart.names]
    table = {(i, j): x[i] * x[j] * _nonzero(rng) for i, j in combinations(range(n), 2)}
    return koszul_algebroid(Multivector(chart, 2, table), unchecked=True)


def _base_form(rng: random.Random, chart, k: int):
    """A k-form whose every component is a + b*x_m, with x_m the first
    coordinate outside the component where there is one, so that d eta is
    nonzero below top degree."""
    from imcalc.forms import DifferentialForm
    from imcalc.poly import Polynomial

    table = {}
    for idx in combinations(range(chart.dim), k):
        m = next((i for i in range(chart.dim) if i not in idx), 0)
        table[idx] = (Polynomial.variable(chart, chart.names[m]) * _nonzero(rng)
                      + _nonzero(rng))
    return DifferentialForm(chart, k, table)


def _broken_im(algebroid, forms, k: int):
    """Add dx2^...^dx_k to mu(e1); its contraction with the anchor of e1 is
    nonzero, so IM1 fails at (e1, e1)."""
    from imcalc.forms import DifferentialForm
    from imcalc.linforms import BundleForms
    from imcalc.poly import Polynomial

    chart = algebroid.base_chart
    extra = DifferentialForm(chart, k - 1, {tuple(range(1, k)): Polynomial.const(chart, 1)})
    return BundleForms(k, (forms.mu[0] + extra,) + forms.mu[1:], forms.nu)


def _coboundary(rng: random.Random, algebroid, k: int):
    """The linear k-vector of the inner derivation [r, .] of a degree-k
    section r with affine components; a bracket derivation by Jacobi."""
    from imcalc.algebroid import Section, section_bracket
    from imcalc.multivec import Derivation, linear_from_derivation
    from imcalc.poly import Polynomial

    chart = algebroid.base_chart
    comps = {}
    for pos, idx in enumerate(combinations(range(algebroid.rank), k)):
        name = chart.names[pos % chart.dim]
        comps[idx] = (Polynomial.variable(chart, name) * _nonzero(rng)
                      + _nonzero(rng))
    r = Section(algebroid, k, comps)
    on_coord = {n: section_bracket(r, Section.function(algebroid, Polynomial.variable(chart, n)))
                for n in chart.names}
    on_frame = {name: section_bracket(r, Section.frame(algebroid, a))
                for a, name in enumerate(algebroid.frame_names)}
    return linear_from_derivation(Derivation(algebroid, k, on_coord, on_frame))


def rung_documents(rng: random.Random, n: int, k: int, top: bool) -> list:
    """One rung: exact, broken, Weil and multivector documents, or only the
    exact one on the top rung."""
    from imcalc.imforms import im_form_from_base_form
    from imcalc.linforms import linear_form, total_chart_of

    algebroid = _log_canonical_algebroid(rng, n)
    exact = im_form_from_base_form(algebroid, _base_form(rng, algebroid.base_chart, k))
    if top:
        return [_dump(f"top_n{n}_k{k}_im.json", _im_body(algebroid, exact.forms, k), 0)]
    tag = f"n{n}_k{k}"
    docs = [
        _dump(f"{tag}_im.json", _im_body(algebroid, exact.forms, k), 0),
        _dump(f"{tag}_im_broken.json",
              _im_body(algebroid, _broken_im(algebroid, exact.forms, k), k), 1),
    ]

    weil = _algebroid_body(algebroid)
    form = linear_form(exact.forms, total_chart_of(algebroid))
    weil["candidate"] = {"type": "weil", "k": k, "form": _form_terms(form)}
    weil["options"] = {"mode": "weil", "k": k, "oracle": "on"}
    docs.append(_dump(f"{tag}_weil.json", weil, 0))

    p = _coboundary(rng, algebroid, k)
    mv = _algebroid_body(algebroid)
    mv["candidate"] = {
        "type": "multivector", "k": k,
        "fiber": [[[b + 1 for b in bs], d + 1, str(poly)]
                  for (bs, d), poly in sorted(p.fiber.items())],
        "mixed": [[[b + 1 for b in bs], j + 1, str(poly)]
                  for (bs, j), poly in sorted(p.mixed.items())],
    }
    mv["options"] = {"mode": "multivector", "k": k, "oracle": "on"}
    docs.append(_dump(f"{tag}_mv.json", mv, 0))
    return docs


def oracle_ladder_documents(root: Path, seed: int) -> list:
    rng = random.Random(seed)
    docs = []
    for n, k in LADDER_RUNGS:
        docs.extend(rung_documents(rng, n, k, top=False))
    docs.extend(rung_documents(rng, *LADDER_TOP, top=True))
    return docs


# -- dense polynomials -----------------------------------------------------------

def _plane_body(d: int, e: int, perturb: int | None, samples: list) -> dict:
    """Koszul algebroid of f d1^d2, f = (1 + x1 + 2*x2)^d, with the exact IM
    2-form of eta = g dx1^dx2, g = (x1 - x2 + 3)^e, all written unexpanded.

    The anchor sends e1 to f d2 and e2 to -f d1, so mu(e1) = f*g dx1 and
    mu(e2) = f*g dx2; nu vanishes because d eta = 0 in the plane.  A
    perturbation adds c*g dx2 to mu(e1), breaking IM1 at (e1, e1).
    """
    f = "(1 + x1 + 2*x2)"
    g = "(x1 - x2 + 3)"
    fg = f"{f}^{d}*{g}^{e}"
    mu1 = [[[1], fg]]
    if perturb is not None:
        mu1.append([[2], f"{perturb}*{g}^{e}"])
    return {
        "base": ["x1", "x2"],
        "rank": 2,
        "frame": ["e1", "e2"],
        "anchor": [["0", f"{f}^{d}"], [f"-1*{f}^{d}", "0"]],
        "structure": [[1, 2, 1, f"{d}*{f}^{d - 1}"], [1, 2, 2, f"{2 * d}*{f}^{d - 1}"]],
        "candidate": {
            "type": "im-form", "k": 2,
            "mu": [{"degree": 1, "terms": mu1}, {"degree": 1, "terms": [[[2], fg]]}],
            "nu": [{"degree": 2, "terms": []}, {"degree": 2, "terms": []}],
        },
        "options": {"mode": "im-form", "k": 2, "oracle": "on", "samples": samples},
    }


def _sample_points(rng: random.Random) -> list:
    """Rational points off the zero set of f = (1 + x1 + 2*x2)^d."""
    points = []
    while len(points) < DENSE_SAMPLES:
        x1 = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        x2 = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        if 1 + x1 + 2 * x2 != 0:
            points.append([str(x1), str(x2)])
    return points


def plane_documents(rng: random.Random, d: int, e: int) -> list:
    """The exact and the perturbed document for one (d, e)."""
    tag = f"plane_d{d}_e{e}"
    return [_dump(f"{tag}.json", _plane_body(d, e, None, _sample_points(rng)), 0),
            _dump(f"{tag}_perturbed.json",
                  _plane_body(d, e, _nonzero(rng), _sample_points(rng)), 1)]


def dense_poly_documents(root: Path, seed: int) -> list:
    rng = random.Random(seed)
    return [doc for d, e in DENSE_DEGREES for doc in plane_documents(rng, d, e)]


GENERATORS = {
    "corpus": corpus_documents,
    "oracle_ladder": oracle_ladder_documents,
    "dense_poly": dense_poly_documents,
}

PARAMETERS = {
    "corpus": {"fixtures": list(CORPUS_EXIT)},
    "oracle_ladder": {"rungs": [list(r) for r in LADDER_RUNGS], "top_rung": list(LADDER_TOP),
                      "kinds": ["im", "im_broken", "weil", "mv"]},
    "dense_poly": {"d_e": [list(p) for p in DENSE_DEGREES], "samples": DENSE_SAMPLES},
}
