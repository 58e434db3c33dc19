"""File-driven checker with machine-readable reports and CI exit codes.

The input is a single JSON document describing an algebroid in the expression
grammar plus one candidate structure; the output is a deterministic report
(no timestamps, stable ordering) on stdout.  Exit codes: 0 all selected
checks pass, 1 a mathematical condition failed, 2 the input could not be
parsed or validated, 3 the two sides of a theorem oracle disagreed (which
certifies a library defect, not bad input).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .algebroid import CheckReport, LieAlgebroid, run_oracle
from .errors import AlgebroidError, CrossCheckError, OracleDisagreement
from .forms import DifferentialForm
from .imforms import IMForm, check_lagrangian, im_routes
from .linforms import BundleForms, NotLinearError, decompose, total_chart_of
from .multivec import LinearMultivector, derivation_routes
from .poly import (
    LITERAL_DIGIT_LIMIT, Chart, ChartError, ParseError, Polynomial, base_chart,
    format_polynomial, parse,
)
from .weil import cochain_from_bundle_forms, horizontal_vanishing_report

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_DEFECT = 3

MODES = ("im-form", "multivector", "weil", "axioms")

#: the largest rank and base dimension a document may declare; the axiom
#: check alone grows with the cube of the rank
DIMENSION_LIMIT = 32
#: the coordinate rule of the expression grammar, which frame names follow too
NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# the verdict tags each oracle route reports
ROUTE_TAGS = {
    "im_conditions": ("IM1", "IM2", "IM3"),
    "derivation": ("R1", "R2", "R3"),
    "dh_vanishing": ("DH0", "DH1", "DH2"),
    "morphism": ("MORPHISM",),
}


class InputError(ValueError):
    """Document rejected before any mathematics ran (exit code 2)."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InputError(message)


def _degree(value, field: str, algebroid: LieAlgebroid) -> int:
    """A degree k read from the document: an int, not a bool, from 1 to the
    dimension of the total space (base dimension + rank); every candidate
    of a higher degree is zero."""
    top = algebroid.base_chart.dim + algebroid.rank
    _require(type(value) is int and 1 <= value <= top,
             f"{field} must be an integer from 1 to {top} (base dimension + rank), "
             f"got {value!r}")
    return value


def _parse_expr(text, chart: Chart) -> Polynomial:
    _require(isinstance(text, str), f"expected an expression string, got {text!r}")
    try:
        return parse(text, chart)
    except ParseError as exc:
        raise InputError(f"bad expression {text!r}: {exc}") from exc


def _names(doc: dict, field: str) -> list:
    """The name list `field`, each name matching `NAME`, at most
    `DIMENSION_LIMIT` long."""
    names = doc.get(field)
    _require(isinstance(names, list) and all(isinstance(n, str) for n in names),
             f"document needs a '{field}' list of name strings")
    for pos, name in enumerate(names, start=1):
        _require(NAME.fullmatch(name) is not None,
                 f"'{field}' name {pos} is {name!r}; names match {NAME.pattern}")
    _require(len(names) <= DIMENSION_LIMIT,
             f"'{field}' lists {len(names)} names, above the limit of {DIMENSION_LIMIT}")
    return names


def load_algebroid(doc: dict) -> LieAlgebroid:
    base = _names(doc, "base")
    rank = doc.get("rank")
    _require(type(rank) is int, "document needs an integer 'rank'")
    _require(rank <= DIMENSION_LIMIT, f"'rank' is {rank}, above the limit of {DIMENSION_LIMIT}")
    frame = _names(doc, "frame")
    _require(len(frame) == rank, "'frame' must list rank-many names")
    try:
        chart = base_chart("M", base)
    except ChartError as exc:
        raise InputError(str(exc)) from exc
    anchor_rows = doc.get("anchor", [])
    _require(isinstance(anchor_rows, list) and len(anchor_rows) == rank,
             "'anchor' must have one row per frame section")
    anchor = []
    for row in anchor_rows:
        _require(isinstance(row, list) and len(row) == chart.dim,
                 "each anchor row needs one expression per base coordinate")
        anchor.append([_parse_expr(e, chart) for e in row])
    entries = doc.get("structure", [])
    _require(isinstance(entries, list), "'structure' must be a list of [a, b, c, expression]")
    structure: dict = {}
    for entry in entries:
        _require(isinstance(entry, list) and len(entry) == 4,
                 "'structure' entries are [a, b, c, expression] with 1-based indices")
        a, b, c, expr = entry
        _require(all(type(i) is int for i in (a, b, c)),
                 "structure indices must be integers")
        _require(1 <= a < b <= rank and 1 <= c <= rank,
                 f"structure indices {entry[:3]} out of range (need 1 <= a < b <= rank)")
        structure.setdefault((a - 1, b - 1), {})
        cur = structure[(a - 1, b - 1)].get(c - 1)
        poly = _parse_expr(expr, chart)
        structure[(a - 1, b - 1)][c - 1] = poly if cur is None else cur + poly
    try:
        return LieAlgebroid(chart, rank, frame, anchor, structure, unchecked=True)
    except (AlgebroidError, ChartError) as exc:
        raise InputError(str(exc)) from exc


def load_form(doc, chart: Chart, degree: int) -> DifferentialForm:
    _require(isinstance(doc, dict) and isinstance(doc.get("terms"), list),
             "forms are {'degree': d, 'terms': [[[i, ...], 'expr'], ...]}")
    # type(...) is int: `true` and `1.0` compare equal to 1
    _require(type(doc.get("degree")) is int and doc["degree"] == degree,
             f"expected a degree-{degree} form, got degree {doc.get('degree')!r}")
    items = []
    for entry in doc["terms"]:
        _require(isinstance(entry, list) and len(entry) == 2, "form terms are [indices, expr]")
        idx, expr = entry
        _require(isinstance(idx, list) and all(type(i) is int for i in idx),
                 "form term indices must be integer lists")
        _require(len(idx) == degree, f"form term {idx} must have {degree} indices")
        _require(all(1 <= i <= chart.dim for i in idx),
                 f"form term indices {idx} out of range")
        items.append((tuple(i - 1 for i in idx), _parse_expr(expr, chart)))
    return DifferentialForm.from_terms(chart, degree, items)


def _load_index_table(candidate: dict, key: str, bound: int, algebroid: LieAlgebroid) -> dict:
    """A multivector table: entries [[b, ...], i, expr], the b frame indices
    and i at most `bound`, all 1-based; keyed by 0-based ((b, ...), i).
    Repeated entries are summed, as repeated form terms are."""
    entries = candidate.get(key, [])
    _require(isinstance(entries, list), f"'{key}' must be a list of entries")
    table = {}
    for entry in entries:
        _require(isinstance(entry, list) and len(entry) == 3,
                 f"'{key}' entries are [[b, ...], i, expr] with 1-based indices")
        b_list, i, expr = entry
        _require(isinstance(b_list, list) and all(type(b) is int for b in b_list)
                 and type(i) is int, f"{key} indices must be an integer list and an integer")
        _require(all(1 <= b <= algebroid.rank for b in b_list) and 1 <= i <= bound,
                 f"{key} entry {entry[:2]} out of range")
        index = (tuple(b - 1 for b in b_list), i - 1)
        poly = _parse_expr(expr, algebroid.base_chart)
        table[index] = table[index] + poly if index in table else poly
    return table


def load_candidate(doc: dict, algebroid: LieAlgebroid):
    candidate = doc.get("candidate")
    if candidate is None:
        return None
    _require(isinstance(candidate, dict) and "type" in candidate,
             "'candidate' must be an object with a 'type'")
    kind = candidate["type"]
    k = _degree(candidate.get("k"), "candidate.k", algebroid)
    chart = algebroid.base_chart
    if kind == "im-form":
        mu_docs = candidate.get("mu")
        nu_docs = candidate.get("nu")
        _require(isinstance(mu_docs, list) and len(mu_docs) == algebroid.rank,
                 "'mu' needs one form per frame section")
        _require(isinstance(nu_docs, list) and len(nu_docs) == algebroid.rank,
                 "'nu' needs one form per frame section")
        mu = tuple(load_form(d, chart, k - 1) for d in mu_docs)
        nu = tuple(load_form(d, chart, k) for d in nu_docs)
        return IMForm(algebroid, BundleForms(k, mu, nu))
    if kind == "multivector":
        fiber = _load_index_table(candidate, "fiber", algebroid.rank, algebroid)
        mixed = _load_index_table(candidate, "mixed", chart.dim, algebroid)
        try:
            return LinearMultivector(algebroid, k, fiber, mixed)
        except (AlgebroidError, ChartError) as exc:
            raise InputError(str(exc)) from exc
    if kind == "weil":
        form_doc = {"degree": k, "terms": candidate.get("form", [])}
        return load_form(form_doc, total_chart_of(algebroid).chart, k)
    raise InputError(f"unknown candidate type {kind!r}")


def _merge_report(bag: dict, report: CheckReport) -> None:
    for v in report.violations:
        key = (v.condition, tuple(str(w) for w in v.witness))
        if key not in bag:
            bag[key] = v.residual


def _load_samples(doc: dict, args, chart: Chart):
    raw = None
    if args.samples:
        try:
            with open(args.samples, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot read samples: {exc}") from exc
    elif isinstance(doc.get("options"), dict) and "samples" in doc["options"]:
        raw = doc["options"]["samples"]
    if raw is None:
        return None
    _require(isinstance(raw, list), "sample points are a list of rational lists")
    points = []
    for number, row in enumerate(raw, 1):
        _require(isinstance(row, list) and len(row) == chart.dim,
                 "sample points need one rational per base coordinate")
        points.append({name: _sample_value(v, number, name)
                       for name, v in zip(chart.names, row)})
    return points


def _sample_value(value, number: int, name: str) -> Fraction:
    """One coordinate of sample point `number`.

    A string is refused before it is converted when it would cost without
    bound: exponent notation ("1e999999999" is 11 bytes), or a numerator or
    denominator of more than `LITERAL_DIGIT_LIMIT` digits.  A JSON int is
    held to the same digit limit; a JSON float's exponent is bounded, so it
    is read as the decimal of its shortest repr (0.00001 as "1e-05", which
    is 1/100000).
    """
    where = f"sample point {number}, coordinate {name}"
    if isinstance(value, str):
        _require("e" not in value.lower(), f"{where}: exponent notation is not accepted")
        for part in value.partition("/")[::2]:
            digits = sum(ch.isdigit() for ch in part)
            _require(digits <= LITERAL_DIGIT_LIMIT,
                     f"{where}: {digits} digits, above the limit of {LITERAL_DIGIT_LIMIT}")
    elif type(value) is int:
        _require(abs(value) < 10 ** LITERAL_DIGIT_LIMIT,
                 f"{where}: more than {LITERAL_DIGIT_LIMIT} digits")
    text = str(value)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{where}: bad rational {text!r}: {exc}") from exc


def _routes(mode: str, candidate, algebroid: LieAlgebroid, k) -> dict:
    """The oracle routes of a mode, the direct-condition route first."""
    if mode == "im-form":
        _require(isinstance(candidate, IMForm), "mode im-form needs an im-form candidate")
        _require(candidate.k == k, f"candidate k={candidate.k} but k={k} selected")
        return im_routes(candidate)
    if mode == "multivector":
        _require(isinstance(candidate, LinearMultivector),
                 "mode multivector needs a multivector candidate")
        _require(candidate.k == k, f"candidate k={candidate.k} but k={k} selected")
        return derivation_routes(candidate)
    if mode == "weil":
        _require(isinstance(candidate, DifferentialForm), "mode weil needs a weil candidate")
        _require(candidate.degree == k, f"candidate k={candidate.degree} but k={k} selected")
        im = IMForm(algebroid, decompose(candidate, total_chart_of(algebroid)))
        # decompose proved the candidate equal to the linear form of im.forms
        return {"dh_vanishing": lambda: horizontal_vanishing_report(
                    cochain_from_bundle_forms(algebroid, im.forms)),
                **im_routes(im, candidate)}
    # mode "axioms" runs no candidate suite; a present candidate is ignored
    return {}


def run_document(doc: dict, args) -> tuple:
    """Returns (report_dict, exit_code)."""
    _require(isinstance(doc, dict), "input must be a JSON object")
    options = doc.get("options", {})
    _require(isinstance(options, dict), "'options' must be an object")
    # only an absent mode defaults; a present one must name a suite
    mode = args.mode if args.mode is not None else options.get("mode", "axioms")
    _require(mode in MODES, f"unknown mode {mode!r}; options.mode is one of {', '.join(MODES)}")
    oracle_raw = args.oracle or options.get("oracle", "on")
    _require(oracle_raw in ("on", "off"), "--oracle takes 'on' or 'off'")
    oracle_on = oracle_raw == "on"

    algebroid = load_algebroid(doc)
    candidate = load_candidate(doc, algebroid)
    if args.k is not None:
        k = _degree(args.k, "--k", algebroid)
    elif "k" in options:
        k = _degree(options["k"], "options.k", algebroid)
    elif candidate is not None and mode != "axioms":
        k = candidate.degree if isinstance(candidate, DifferentialForm) else candidate.k
    else:
        k = None

    routes = _routes(mode, candidate, algebroid, k)
    samples = _load_samples(doc, args, algebroid.base_chart) if mode == "im-form" else None
    if not oracle_on:
        # without the oracle only the direct conditions are checked
        routes = dict(list(routes.items())[:1])
    try:
        outcome = run_oracle(algebroid, routes)
    except OracleDisagreement as exc:
        outcome = exc.outcome
    oracle_ran = len(routes) > 1

    verdict_tags = ["AXIOM_ANCHOR", "AXIOM_JACOBI"]
    bag: dict = {}
    _merge_report(bag, outcome.axioms)
    for name, report in outcome.reports.items():
        verdict_tags += ROUTE_TAGS[name]
        _merge_report(bag, report)
    if samples is not None and k == 2:
        verdict_tags += ["ISOTROPY", "LAGRANGIAN"]
        _merge_report(bag, check_lagrangian(candidate, samples))

    # the residuals are printed once all reports are merged, sharing one
    # monomial table, so each distinct monomial of the report is rendered once
    table: dict = {}
    witnesses = [
        {"condition": cond, "witness": list(w), "residual": format_polynomial(res, table)}
        for (cond, w), res in sorted(bag.items())
    ]
    failed_tags = {w["condition"] for w in witnesses}
    verdicts = {tag: ("fail" if tag in failed_tags else "pass") for tag in verdict_tags}
    if "morphism" in outcome.verdicts:
        # "morphism" means morphism of Lie algebroids: on data that fails the
        # axioms the verdict is fail even when every frame residual vanishes
        # (the axiom witnesses then carry the explanation)
        verdicts["MORPHISM"] = "pass" if outcome.verdicts["morphism"] else "fail"
    passed = all(v == "pass" for v in verdicts.values()) and outcome.agree
    report = {
        "mode": mode,
        "k": k,
        "verdicts": verdicts,
        "witnesses": witnesses,
        "passed": passed,
    }
    if oracle_ran:
        report["oracle"] = dict(outcome.verdicts, agree=outcome.agree)
    if not outcome.agree:
        return report, EXIT_DEFECT
    return report, EXIT_PASS if passed else EXIT_FAIL


def render_text(report: dict) -> str:
    lines = [f"mode: {report['mode']}  k: {report['k']}"]
    for tag, verdict in sorted(report["verdicts"].items()):
        lines.append(f"{tag}: {verdict.upper()}")
    for w in report["witnesses"]:
        lines.append(f"  {w['condition']} at ({', '.join(w['witness'])}): {w['residual']}")
    if "oracle" in report:
        pieces = ", ".join(f"{k}={v}" for k, v in sorted(report["oracle"].items()))
        lines.append(f"oracle: {pieces}")
    lines.append(f"result: {'PASS' if report['passed'] else 'FAIL'}")
    return "\n".join(lines) + "\n"


#: the `verify` command line; built once, and never changed after
_PARSER = argparse.ArgumentParser(
    prog="verify",
    description="Verify algebroid axioms, IM-form / multivector / Weil-cochain "
                "conditions, and the theorem oracles on a JSON problem document.")
_PARSER.add_argument("--input", required=True, help="problem document (JSON)")
_PARSER.add_argument("--k", type=int, default=None, help="degree override")
_PARSER.add_argument("--mode", choices=MODES, default=None, help="suite selection")
_PARSER.add_argument("--oracle", choices=("on", "off"), default=None,
                    help="also run the independent morphism oracle (default on)")
_PARSER.add_argument("--samples", default=None,
                    help="JSON file of rational sample points for the k=2 rank checks")
_PARSER.add_argument("--report", choices=("json", "text"), default="json")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        # ValueError besides JSONDecodeError: an int literal of more than
        # 4300 digits, or bytes that are not UTF-8
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return EXIT_INPUT

    try:
        report, code = run_document(doc, args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ParseError, NotLinearError, AlgebroidError, ChartError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CrossCheckError as exc:
        print(f"internal defect: {exc}", file=sys.stderr)
        return EXIT_DEFECT

    if args.report == "json":
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(render_text(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
