"""CLI: corpus exit codes, report determinism, overrides, input rejection,
the declared console script."""

from __future__ import annotations

import importlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import imcalc
from imcalc import cli
from imcalc.algebroid import CheckReport, Violation, check_morphism_to_line
from imcalc.cli import (
    DIMENSION_LIMIT, InputError, _sample_value, load_algebroid, load_candidate, main,
)
from imcalc.errors import OracleDisagreement
from imcalc.imforms import oracle_equivalence
from imcalc.multivec import oracle_equivalence_dual
from imcalc.poly import LITERAL_DIGIT_LIMIT, Polynomial
from support import poisson_im_form

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "fixtures"

EXPECTED_EXIT = {
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


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


USAGE = """\
usage: verify [-h] --input INPUT [--k K]
              [--mode {im-form,multivector,weil,axioms}] [--oracle {on,off}]
              [--samples SAMPLES] [--report {json,text}]
"""


def test_bad_flags_exit_2_with_usage_before_and_after_a_good_call(monkeypatch):
    """The command line is parsed by one parser built at import; a call
    with bad flags changes nothing for the calls after it."""
    monkeypatch.setenv("COLUMNS", "80")
    bad = {
        ("--bogus",): "verify: error: the following arguments are required: --input\n",
        ("--input", "x.json", "--mode", "nope"):
            "verify: error: argument --mode: invalid choice: 'nope' (choose from "
            "'im-form', 'multivector', 'weil', 'axioms')\n",
        ("--input", "x.json", "--bogus"): "verify: error: unrecognized arguments: --bogus\n",
    }
    for _ in range(2):
        for argv, message in bad.items():
            err = io.StringIO()
            with redirect_stderr(err), pytest.raises(SystemExit) as exit_:
                main(list(argv))
            assert exit_.value.code == 2
            assert err.getvalue() == USAGE + message
        assert run_cli(["--input", str(CORPUS / "so3_axioms.json")])[0] == 0


def test_corpus_exit_codes():
    for name, expected in EXPECTED_EXIT.items():
        code, _, _ = run_cli(["--input", str(CORPUS / name)])
        assert code == expected, name


def test_corpus_reports_are_byte_identical_across_runs():
    for name in EXPECTED_EXIT:
        first = run_cli(["--input", str(CORPUS / name)])
        second = run_cli(["--input", str(CORPUS / name)])
        assert first == second, name


def test_corpus_never_reports_oracle_disagreement():
    for name in EXPECTED_EXIT:
        code, out, _ = run_cli(["--input", str(CORPUS / name)])
        assert code != 3
        if out:
            report = json.loads(out)
            if "oracle" in report:
                assert report["oracle"]["agree"] is True


def test_report_structure_and_witnesses():
    code, out, _ = run_cli(["--input", str(CORPUS / "broken_jacobi_axioms.json")])
    assert code == 1
    report = json.loads(out)
    assert report["verdicts"]["AXIOM_JACOBI"] == "fail"
    assert report["verdicts"]["AXIOM_ANCHOR"] == "pass"
    assert report["witnesses"] == [
        {"condition": "AXIOM_JACOBI", "witness": ["1", "2", "3", "1"], "residual": "1"}
    ]


def test_each_witness_residual_is_formatted_once(monkeypatch):
    """Axiom violations reach the report from the axiom check and again from
    each gated route; each witness's residual is formatted once, and every
    residual of the report is printed with the same monomial table."""
    formatted = []
    inner = cli.format_polynomial

    def counted(p, table=None):
        formatted.append((p, table))
        return inner(p, table)

    monkeypatch.setattr(cli, "format_polynomial", counted)
    code, out, _ = run_cli(["--input", str(CORPUS / "so3_poisson_broken_im2.json")])
    assert code == 1
    assert len(formatted) == len(json.loads(out)["witnesses"]) == 5
    table = formatted[0][1]
    assert isinstance(table, dict)
    assert all(t is table for _, t in formatted)


def test_im_report_oracle_block():
    code, out, _ = run_cli(["--input", str(CORPUS / "so3_poisson_broken_im2.json")])
    assert code == 1
    report = json.loads(out)
    assert report["oracle"] == {"agree": True, "im_conditions": False, "morphism": False}
    assert report["verdicts"]["AXIOM_ANCHOR"] == "fail"


def test_weil_report_runs_three_routes():
    code, out, _ = run_cli(["--input", str(CORPUS / "so3_poisson_weil2.json")])
    assert code == 0
    report = json.loads(out)
    assert report["oracle"]["agree"] is True
    for tag in ("DH0", "DH1", "DH2", "IM1", "IM2", "IM3", "MORPHISM"):
        assert report["verdicts"][tag] == "pass"


def test_text_report_mode():
    code, out, _ = run_cli(["--input", str(CORPUS / "so3_axioms.json"),
                            "--report", "text"])
    assert code == 0
    assert "AXIOM_JACOBI: PASS" in out
    assert out.endswith("result: PASS\n")


def test_mode_override_runs_axioms_only():
    code, out, _ = run_cli(["--input", str(CORPUS / "so3_poisson_im2.json"),
                            "--mode", "axioms"])
    assert code == 0
    report = json.loads(out)
    assert set(report["verdicts"]) == {"AXIOM_ANCHOR", "AXIOM_JACOBI"}


def test_oracle_off_skips_morphism():
    code, out, _ = run_cli(["--input", str(CORPUS / "so3_poisson_im2.json"),
                            "--oracle", "off"])
    assert code == 0
    report = json.loads(out)
    assert "MORPHISM" not in report["verdicts"]
    assert "oracle" not in report


def test_k_mismatch_is_input_error(tmp_path):
    code, _, err = run_cli(["--input", str(CORPUS / "so3_poisson_im2.json"),
                            "--k", "3"])
    assert code == 2
    assert "k=" in err


def test_unknown_coordinate_rejected(tmp_path):
    doc = json.loads((CORPUS / "so3_axioms.json").read_text())
    doc["structure"][0][3] = "zz + 1"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(["--input", str(bad)])
    assert code == 2
    assert "zz" in err


@pytest.mark.parametrize("source, old, new, chart", [
    (CORPUS / "so3_poisson_im2.json", "x1", "u1", "M|u"),
    (CORPUS / "so3_poisson_im2.json", "x2", "x1_dot1", "M|T2"),
    (ROOT / "tests" / "golden" / "ladder" / "n4_k3_mv.json", "x1", "xi1_1", "M|T*3"),
], ids=["fiber", "tangent_copy", "dual_copy"])
def test_base_name_taken_by_a_generated_coordinate_is_named(tmp_path, source, old, new, chart):
    """A base coordinate named like one the checker generates (the fiber
    coordinates u1..uR, the tangent copies <x>_dot<m> and the dual copies
    xi<m>_<d>) exits 2, naming the chart and the coordinate."""
    doc = tmp_path / "clash.json"
    doc.write_text(re.sub(rf"\b{old}\b", new, source.read_text()))
    code, out, err = run_cli(["--input", str(doc)])
    assert (code, out) == (2, "")
    assert err == f"error: duplicate coordinate names in chart {chart!r}: {new!r}\n"


def test_unreadable_and_malformed_json(tmp_path):
    code, _, err = run_cli(["--input", str(tmp_path / "missing.json")])
    assert code == 2
    bad = tmp_path / "nonsense.json"
    bad.write_text("{not json")
    code, _, err = run_cli(["--input", str(bad)])
    assert code == 2
    # json refuses an int literal of more than 4300 digits with a plain
    # ValueError, not a JSONDecodeError
    bad.write_text('{"k": 1' + "0" * 5000 + "}")
    code, out, err = run_cli(["--input", str(bad)])
    assert (code, out) == (2, "") and err.startswith("error: cannot read input")
    for samples in (tmp_path / "missing_points.json", bad):
        code, out, err = run_cli(["--input", str(CORPUS / "so3_poisson_im2.json"),
                                  "--samples", str(samples)])
        assert (code, out) == (2, "") and err.startswith("error: cannot read samples"), err


def _set(path, value):
    def mutate(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return mutate


def _rank_true(doc):
    # a one-section algebroid, so that only the bool is wrong
    doc.update(rank=True, frame=doc["frame"][:1], anchor=doc["anchor"][:1], structure=[])


def _base(names):
    def mutate(doc):
        # the anchor names no coordinate, so that only the names are wrong
        doc.update(base=names, anchor=[["0"] * len(names)] * doc["rank"])
    return mutate


WRONG_TYPES = {
    "anchor": ("so3_axioms.json", _set(["anchor"], 5)),
    "structure": ("so3_axioms.json", _set(["structure"], 5)),
    "form_terms": ("so3_poisson_im2.json", _set(["candidate", "mu", 0, "terms"], 3)),
    "fiber_indices": ("so3_coboundary_mv2.json", _set(["candidate", "fiber", 0, 0], 1)),
    "samples": ("so3_poisson_im2.json", _set(["options", "samples"], 3)),
    "options": ("so3_poisson_im2.json", _set(["options"], [])),
    # JSON true is a Python int; each of these would read as 1
    "rank_true": ("so3_axioms.json", _rank_true),
    "structure_index_true": ("so3_axioms.json", _set(["structure", 0, 0], True)),
    "form_index_true": ("so3_poisson_im2.json",
                        _set(["candidate", "mu", 0, "terms", 0, 0, 0], True)),
    "fiber_index_true": ("so3_coboundary_mv2.json",
                         _set(["candidate", "fiber", 0, 0, 0], True)),
    "frame_names": ("so3_axioms.json", _set(["frame"], [1, 2, 3])),
    "base_names": ("so3_axioms.json", _base([1, 2])),
    # names no expression could refer to, each printed as a witness label
    "frame_empty_name": ("so3_poisson_im2.json", _set(["frame", 0], "")),
    "frame_spaced_name": ("so3_poisson_im2.json", _set(["frame", 0], "e 1")),
    "frame_digit_first": ("so3_poisson_im2.json", _set(["frame", 2], "3e")),
    "base_empty_name": ("so3_axioms.json", _base(["x1", ""])),
    "base_spaced_name": ("so3_axioms.json", _base(["x1", "x 2"])),
    "base_sign_name": ("so3_axioms.json", _base(["x-1"])),
}


def _run_mutated(tmp_path, source, mutate, *flags):
    doc = json.loads((CORPUS / source).read_text())
    mutate(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    return run_cli(["--input", str(bad), *flags])


@pytest.mark.parametrize("case", sorted(WRONG_TYPES))
def test_wrong_typed_fields_are_input_errors(tmp_path, case):
    code, out, err = _run_mutated(tmp_path, *WRONG_TYPES[case])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("field, position, name", [
    ("frame", 1, ""), ("frame", 3, "e 3"), ("base", 2, "x2\n"), ("base", 1, "1x"),
])
def test_bad_names_are_refused_by_field_and_position(tmp_path, field, position, name):
    code, out, err = _run_mutated(tmp_path, "so3_poisson_im2.json",
                                  _set([field, position - 1], name))
    assert (code, out) == (2, "")
    assert f"'{field}' name {position} is {name!r}" in err


def _sized(rank: int, dim: int):
    """An axioms-only document of the given rank and base dimension, with a
    zero anchor and no structure functions."""
    return {"base": [f"x{i}" for i in range(1, dim + 1)], "rank": rank,
            "frame": [f"e{i}" for i in range(1, rank + 1)],
            "anchor": [["0"] * dim for _ in range(rank)], "structure": []}


@pytest.mark.parametrize("rank, dim, field", [
    (DIMENSION_LIMIT + 1, 0, "'rank'"), (200, 0, "'rank'"), (1, DIMENSION_LIMIT + 1, "'base'"),
])
def test_oversized_rank_or_base_is_refused(tmp_path, rank, dim, field):
    doc = tmp_path / "big.json"
    doc.write_text(json.dumps(_sized(rank, dim)))
    code, out, err = run_cli(["--input", str(doc)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {field}") and str(DIMENSION_LIMIT) in err


def test_rank_and_base_at_the_limit_are_accepted(tmp_path):
    doc = tmp_path / "limit.json"
    doc.write_text(json.dumps(_sized(DIMENSION_LIMIT, DIMENSION_LIMIT)))
    code, out, err = run_cli(["--input", str(doc)])
    assert (code, err) == (0, "")


def _mixed_candidate(doc):
    # a linear vector field on the so3 Poisson algebroid, by its mixed table
    doc["candidate"] = {"type": "multivector", "k": 1, "fiber": [], "mixed": [[[], 1, "x2"]]}
    doc["options"] = {"mode": "multivector"}


REPEATED = {
    # (source, preparation, the first entry's expression doubled)
    "fiber": ("so3_coboundary_mv2.json", lambda doc: None, "-2"),
    "mixed": ("so3_poisson_im2.json", _mixed_candidate, "2*x2"),
}


@pytest.mark.parametrize("report", ["json", "text"])
@pytest.mark.parametrize("table", sorted(REPEATED))
def test_repeated_multivector_entries_are_summed(tmp_path, table, report):
    source, prepare, doubled_expr = REPEATED[table]

    def run(change):
        def mutate(doc):
            prepare(doc)
            change(doc["candidate"][table])
        return _run_mutated(tmp_path, source, mutate, "--report", report)

    def set_doubled(entries):
        entries[0][2] = doubled_expr

    single = run(lambda entries: None)
    assert run(lambda entries: entries.append(entries[0][:2] + ["0"])) == single
    doubled = run(lambda entries: entries.append(entries[0]))
    assert doubled == run(set_doubled)
    assert doubled != single


@pytest.mark.parametrize("mode", ["", [], 0], ids=["empty_string", "empty_list", "zero"])
def test_present_mode_must_name_a_suite(tmp_path, mode):
    code, out, err = _run_mutated(tmp_path, "so3_poisson_im2.json",
                                  _set(["options", "mode"], mode))
    assert code == 2
    assert out == ""
    assert "options.mode" in err


def test_absent_mode_defaults_to_axioms(tmp_path):
    code, out, _ = _run_mutated(tmp_path, "so3_poisson_im2.json",
                                lambda doc: doc["options"].pop("mode"))
    assert code == 0
    assert json.loads(out)["mode"] == "axioms"


CUBED = "*".join(["(x1+x2+x3+1)^12"] * 3)

OVER_INPUT_LIMITS = {
    # (path, expression, text the message must carry)
    "product": (["anchor", 0, 0], "x1^20000*x1^20000", "x1^20000*x1^20000"),
    "power": (["anchor", 0, 0], "(x1^2)^20000", "(x1^2)^20000"),
    "power_terms": (["anchor", 0, 0], "(x1+x2+x3+1)^60", "(x1+x2+x3+1)^60"),
    "product_pairs": (["anchor", 0, 0], CUBED, "term pairs"),
    "long_literal": (["anchor", 0, 0], "1" * 5000, "5000 digits"),
    "rational_power": (["anchor", 0, 0], "9" * 200 + "^32767*x1",
                       "coefficient of more than 4300 digits (at byte 201)"),
    # a power of a sum is refused at its exponent by the term pairs of its
    # N - 1 products, or by the digits its coefficients could reach
    "power_of_sum_pairs": (["anchor", 0, 0], "(x1+x2+1)^190",
                           "term pairs, above the budget of 250000 (at byte 10)"),
    "binomial_power_pairs": (["anchor", 0, 0], "(x1+1)^2000",
                             "term pairs, above the budget of 250000 (at byte 7)"),
    # each power fits, but the expression's products share one budget
    "expression_pairs": (["anchor", 0, 0], "(x1+1)^499+(x1+1)^499",
                         "498996 term pairs in all, above the budget of 250000 (at byte 18)"),
    "power_of_sum_digits": (["anchor", 0, 0], f"({'9' * LITERAL_DIGIT_LIMIT}*x1+1)^2",
                            "coefficient of more than 4300 digits (at byte 4308)"),
    # the grammar's digits are ASCII: a superscript or Arabic-Indic digit is
    # an unexpected character at its own offset
    "superscript_exponent": (["anchor", 0, 0], "x1^\u00b2",
                             "expected unsigned integer exponent (at byte 3)"),
    "arabic_indic_digit": (["anchor", 0, 0], "\u0663*x1",
                           "expected rational, coordinate or '(' (at byte 0)"),
}


@pytest.mark.parametrize("case", sorted(OVER_INPUT_LIMITS))
def test_exponent_limit_is_an_input_error(tmp_path, case):
    path, expr, named = OVER_INPUT_LIMITS[case]
    code, out, err = _run_mutated(tmp_path, "so3_poisson_im2.json", _set(path, expr))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and named in err and "at byte" in err


@pytest.mark.parametrize("report", ["json", "text"])
def test_witness_coefficients_of_any_size_print_in_full(tmp_path, report):
    """A product of two 4,300-digit literals in mu makes residual
    coefficients of 8,600 digits, past CPython's int-to-str limit; the
    document still fails with a complete report."""
    big = "9" * LITERAL_DIGIT_LIMIT
    code, out, err = _run_mutated(
        tmp_path, "so3_poisson_broken_im2.json",
        _set(["candidate", "mu", 0, "terms", 0, 1], f"{big}*{big}"), "--report", report)
    assert code == 1
    assert err == ""
    # the residuals carry big^2 - 1 = 10^8600 - 2*10^4300, whose second
    # chunk of digits starts with zeros
    coeff = "9" * (LITERAL_DIGIT_LIMIT - 1) + "8" + "0" * LITERAL_DIGIT_LIMIT
    if report == "json":
        residuals = [w["residual"] for w in json.loads(out)["witnesses"]]
        assert len(residuals) == 17
        assert sum(coeff in r for r in residuals) == 12
    else:
        assert out.startswith("mode: im-form") and out.count(coeff) == 12


def test_exponent_overflow_in_the_checks_is_an_input_error(tmp_path):
    # each expression fits, but the anchor-compatibility check multiplies them
    def mutate(doc):
        doc["anchor"][2][0] = "x1^20000"
        doc["structure"][0][3] = "x1^20000"

    code, out, err = _run_mutated(tmp_path, "so3_poisson_im2.json", mutate)
    assert code == 2
    assert out == ""
    assert err.startswith("error: exponent of x1 above 32767")


BAD_DEGREES = {
    "options_k_string": (["options", "k"], "2", (), "options.k"),
    "options_k_bool": (["options", "k"], True, (), "options.k"),
    "options_k_zero": (["options", "k"], 0, (), "options.k"),
    "candidate_k_bool": (["candidate", "k"], True, (), "candidate.k"),
    "candidate_k_string": (["candidate", "k"], "2", (), "candidate.k"),
    "flag_k_zero": (["options", "k"], 2, ("--k", "0"), "--k"),
    # so3 has base dimension 3 and rank 3, so k is at most 6
    "candidate_k_above_total_dim": (["candidate", "k"], 200, (), "candidate.k"),
    "options_k_above_total_dim": (["options", "k"], 7, (), "options.k"),
    "flag_k_above_total_dim": (["options", "k"], 2, ("--k", "7"), "--k"),
}


@pytest.mark.parametrize("case", sorted(BAD_DEGREES))
def test_degree_must_be_a_positive_int(tmp_path, case):
    path, value, flags, field = BAD_DEGREES[case]
    code, out, err = _run_mutated(tmp_path, "so3_poisson_im2.json", _set(path, value), *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert field in err


@pytest.mark.parametrize("degree", [True, 1.0], ids=["bool", "float"])
def test_form_degree_must_be_a_json_int(tmp_path, degree):
    """`"degree": true` and `"degree": 1.0` compare equal to 1 in Python, but
    a form's degree is a JSON integer, as k is."""
    def mutate(doc):
        for form in doc["candidate"]["mu"]:
            form["degree"] = degree

    code, out, err = _run_mutated(tmp_path, "so3_poisson_im2.json", mutate)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: expected a degree-1 form, got degree {degree!r}")


def test_degree_at_total_dim_is_accepted(tmp_path):
    """k = base dimension + rank is the largest degree accepted; every form
    of that degree on the so3 data is zero, so the zero candidate passes."""
    def mutate(doc):
        candidate = doc["candidate"]
        candidate["k"] = 6
        candidate["mu"] = [{"degree": 5, "terms": []}] * 3
        candidate["nu"] = [{"degree": 6, "terms": []}] * 3
        doc["options"].pop("k", None)

    code, out, err = _run_mutated(tmp_path, "so3_poisson_im2.json", mutate)
    assert code == 0, err
    assert json.loads(out)["k"] == 6


def _degenerate(n: int, r: int, mode: str, k: int) -> dict:
    """Zero data of base dimension n and rank r, with the zero candidate of
    `mode` in degree k (none in axioms mode)."""
    doc = _sized(r, n)
    doc["options"] = {"mode": mode, "k": k}
    if mode == "im-form":
        doc["candidate"] = {"type": mode, "k": k,
                            "mu": [{"degree": k - 1, "terms": []}] * r,
                            "nu": [{"degree": k, "terms": []}] * r}
    elif mode == "multivector":
        doc["candidate"] = {"type": mode, "k": k, "fiber": [], "mixed": []}
    elif mode == "weil":
        doc["candidate"] = {"type": mode, "k": k, "form": []}
    return doc


DEGENERATE = [(n, r, mode, k)
              for n, r in ((2, 0), (0, 2), (0, 0), (1, 0), (0, 1), (3, 0))
              for mode in ("im-form", "multivector", "weil", "axioms")
              for k in range(1, n + r + 2)]


@pytest.mark.parametrize("n, r, mode, k", DEGENERATE,
                         ids=[f"n{n}_r{r}_{mode}_k{k}" for n, r, mode, k in DEGENERATE])
def test_degenerate_shapes_verify_without_raising(tmp_path, n, r, mode, k):
    """Rank 0, a point base, or both: every prolongation has an empty core
    or copy block.  Each degree up to the total dimension verifies the zero
    candidate (exit 0); the next is refused as input (exit 2)."""
    doc = tmp_path / "degenerate.json"
    doc.write_text(json.dumps(_degenerate(n, r, mode, k)))
    code, _, err = run_cli(["--input", str(doc)])
    assert code == (0 if k <= n + r else 2), err


UNBOUNDED_SAMPLES = {
    # (second point's value for x2, text the message must carry)
    "exponent": ("1e999999999", "exponent notation"),
    "exponent_upper": ("1E5", "exponent notation"),
    "long_numerator": ("7" * 4301 + "/3", "4301 digits"),
    "long_denominator": ("3/" + "7" * 4301, "4301 digits"),
}


@pytest.mark.parametrize("case", sorted(UNBOUNDED_SAMPLES))
def test_unbounded_sample_values_are_input_errors(tmp_path, case):
    value, named = UNBOUNDED_SAMPLES[case]
    code, out, err = _run_mutated(tmp_path, "so3_poisson_im2.json", _set(
        ["options", "samples"], [["1", "0", "0"], ["1/2", value, "2"]]))
    assert code == 2
    assert out == ""
    assert err.startswith("error: sample point 2, coordinate x2") and named in err


def test_json_number_samples_read_as_their_decimals(tmp_path):
    """A JSON int or float sample is read as the decimal it prints as, also
    in exponent notation (0.00001 prints as 1e-05): the notation check
    holds strings only, since a float's exponent is bounded."""
    numbers = _run_mutated(tmp_path, "so3_poisson_im2.json", _set(
        ["options", "samples"], [[1, 0, 0], [0.00001, -1, 2.5]]))
    strings = _run_mutated(tmp_path, "so3_poisson_im2.json", _set(
        ["options", "samples"], [["1", "0", "0"], ["1/100000", "-1", "5/2"]]))
    assert numbers[0] == 0, numbers[2]
    assert numbers == strings


@pytest.mark.parametrize("value, named", [
    (10 ** 4300, "more than 4300 digits"),
    (-10 ** 4300, "more than 4300 digits"),
    (True, "bad rational"),
    (None, "bad rational"),
], ids=["long_int", "long_negative_int", "bool", "null"])
def test_non_string_sample_values_are_input_errors(value, named):
    with pytest.raises(InputError, match=named):
        _sample_value(value, 1, "x1")
    assert _sample_value(10 ** 4300 - 1, 1, "x1") == 10 ** 4300 - 1


def test_samples_enable_rank_checks(tmp_path):
    doc = json.loads((CORPUS / "so3_poisson_im2.json").read_text())
    doc["options"]["samples"] = [["1", "0", "0"], ["1/2", "-1", "2"]]
    with_samples = tmp_path / "sampled.json"
    with_samples.write_text(json.dumps(doc))
    code, out, _ = run_cli(["--input", str(with_samples)])
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["ISOTROPY"] == "pass"
    assert report["verdicts"]["LAGRANGIAN"] == "pass"


def test_samples_file_flag(tmp_path):
    samples = tmp_path / "points.json"
    samples.write_text(json.dumps([["0", "0", "0"]]))
    code, out, _ = run_cli(["--input", str(CORPUS / "so3_poisson_im2.json"),
                            "--samples", str(samples)])
    assert code == 0
    assert json.loads(out)["verdicts"]["LAGRANGIAN"] == "pass"


# oracle keys of the three corpus documents whose oracle compares routes
ORACLE_KEYS = {
    "so3_poisson_im2.json": {"im_conditions", "morphism"},
    "so3_coboundary_mv2.json": {"derivation", "morphism"},
    "so3_poisson_weil2.json": {"dh_vanishing", "im_conditions", "morphism"},
}


@pytest.fixture
def failing_morphism(monkeypatch):
    """Make the morphism route fail on valid data: `check_morphism_to_line`
    is replaced, wherever an `imcalc` module binds it, by a stand-in that
    reports one MORPHISM violation.  The routes of every oracle then
    disagree, which is the defect path."""
    def stand_in(algebroid, functional):
        return CheckReport.collect([Violation(
            "MORPHISM", algebroid.frame_names[:2], Polynomial.const(algebroid.base_chart, 1))])

    for name, module in list(sys.modules.items()):
        if name == "imcalc" or name.startswith("imcalc."):
            if vars(module).get("check_morphism_to_line") is check_morphism_to_line:
                monkeypatch.setattr(module, "check_morphism_to_line", stand_in)


@pytest.mark.parametrize("name", sorted(ORACLE_KEYS))
def test_oracle_disagreement_exits_3_with_report(failing_morphism, name):
    code, out, err = run_cli(["--input", str(CORPUS / name)])
    assert code == 3, err
    report = json.loads(out)
    assert report["passed"] is False
    assert report["oracle"]["agree"] is False
    assert set(report["oracle"]) == ORACLE_KEYS[name] | {"agree"}
    assert report["verdicts"]["MORPHISM"] == "fail"


def test_library_oracles_raise_on_disagreement(failing_morphism):
    with pytest.raises(OracleDisagreement):
        oracle_equivalence(poisson_im_form())
    doc = json.loads((CORPUS / "so3_coboundary_mv2.json").read_text())
    algebroid = load_algebroid(doc)
    with pytest.raises(OracleDisagreement):
        oracle_equivalence_dual(load_candidate(doc, algebroid))


# What the wrapper that an installer writes for a console script does: load
# the entry point, put the script's name in argv[0], and exit with what the
# callable returns. The callable must return an int exit code; None would also
# exit 0 through the wrapper, so it is rejected here.
CONSOLE_SCRIPT_WRAPPER = """
import sys
from importlib.metadata import EntryPoint

script = EntryPoint(name="verify", value=sys.argv[1], group="console_scripts").load()
sys.argv = ["verify", *sys.argv[2:]]
code = script()
if type(code) is not int:
    sys.exit(f"verify returned {code!r}, not an int exit code")
sys.exit(code)
"""


def test_console_script_installed(tmp_path):
    """The `verify` script declared in pyproject.toml runs the CLI as an
    installed console script would, and reports as the library does."""
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert "verify" in scripts
    source = CORPUS / "so3_axioms.json"
    env = dict(os.environ, PYTHONPATH=str(Path(imcalc.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", CONSOLE_SCRIPT_WRAPPER, scripts["verify"],
         "--input", str(source)],
        capture_output=True, env=env, cwd=tmp_path, timeout=120)
    err = proc.stderr.decode(errors="replace")
    assert proc.returncode == 0, err
    assert json.loads(proc.stdout)["passed"] is True, err
    _, expected, _ = run_cli(["--input", str(source)])
    assert proc.stdout == expected.encode(), err


def test_console_script_target_runs_without_an_install(monkeypatch):
    """The `module:function` that `[project.scripts] verify` names resolves
    in the source tree and, run as the `verify` command, prints the golden
    report of a fixture; this holds where no `verify` is on PATH."""
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["verify"]
    module_name, _, attr = target.partition(":")
    script = getattr(importlib.import_module(module_name), attr)
    monkeypatch.setattr(sys, "argv", ["verify", "--input", str(CORPUS / "so3_axioms.json")])
    out = io.StringIO()
    with redirect_stdout(out):
        code = script()
    assert code == 0
    assert out.getvalue().encode() == (ROOT / "tests" / "golden"
                                       / "so3_axioms.report.json").read_bytes()


@pytest.mark.skipif(shutil.which("verify") is None,
                    reason="verify console script not installed")
def test_installed_console_script_runs():
    proc = subprocess.run(
        ["verify", "--input", str(CORPUS / "so3_axioms.json")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["passed"] is True, proc.stderr
