"""The corpus reports are pinned byte for byte.

`tests/golden/` holds, for every document in `fixtures/`, the stdout of
`verify --report json` and `--report text`, the exit code of each run, and
the stderr of the one malformed document (every other run writes nothing to
stderr).  A change to any of them is a change of the report format and must
regenerate the files on purpose.

`tests/golden/ladder/` pins two larger documents the same way: the broken IM
and the multivector document of the n = 4, k = 3 rung of the benchmark's
oracle ladder (`perfbench.workloads.oracle_ladder_documents`, seed 57),
committed with their reports, so that witness residuals on data beyond the
hand-written fixtures are guarded too.

`tests/golden/dense/` pins one document of the benchmark's `dense_poly`
workload the same way: `plane_d4_e3_perturbed.json`
(`perfbench.workloads.dense_poly_documents`, seed 57), whose witnesses hold
hundreds of terms with coefficients of up to seven digits on the base chart
and on the prolongation chart, so that the printing of large residuals is
pinned byte for byte.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from imcalc.algebroid import _SortedResiduals
from imcalc.cli import main

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"
EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text())
LADDER = GOLDEN / "ladder"
LADDER_EXIT_CODES = json.loads((LADDER / "exit_codes.json").read_text())
DENSE = GOLDEN / "dense"
DENSE_EXIT_CODES = json.loads((DENSE / "exit_codes.json").read_text())
SUFFIX = {"json": "json", "text": "txt"}


def _verify(document: Path, report: str) -> tuple:
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["--input", str(document), "--report", report])
    return code, out.getvalue().encode(), err.getvalue().encode()


def test_golden_covers_the_corpus():
    assert sorted(EXIT_CODES) == sorted(p.stem for p in CORPUS.glob("*.json"))


@pytest.mark.parametrize("report", sorted(SUFFIX))
@pytest.mark.parametrize("stem", sorted(EXIT_CODES))
def test_corpus_report_matches_golden(stem, report):
    code, out, err = _verify(CORPUS / f"{stem}.json", report)
    assert code == EXIT_CODES[stem][report]
    assert out == (GOLDEN / f"{stem}.report.{SUFFIX[report]}").read_bytes()
    stderr = GOLDEN / f"{stem}.stderr"
    assert err == (stderr.read_bytes() if stderr.exists() else b"")


def _documents(directory: Path) -> list:
    return sorted(p.stem for p in directory.glob("*.json")
                  if "." not in p.stem and p.stem != "exit_codes")


def _check_generated(directory: Path, exit_codes: dict, stem: str, report: str) -> None:
    code, out, err = _verify(directory / f"{stem}.json", report)
    assert code == exit_codes[stem][report]
    assert out == (directory / f"{stem}.report.{SUFFIX[report]}").read_bytes()
    assert err == b""


def test_ladder_golden_covers_its_documents():
    assert _documents(LADDER) == sorted(LADDER_EXIT_CODES) == ["n4_k3_im_broken", "n4_k3_mv"]


@pytest.mark.parametrize("report", sorted(SUFFIX))
@pytest.mark.parametrize("stem", sorted(LADDER_EXIT_CODES))
def test_ladder_report_matches_golden(stem, report):
    _check_generated(LADDER, LADDER_EXIT_CODES, stem, report)


def test_ladder_golden_reads_the_sorted_coefficients(monkeypatch):
    """At k = 3 the morphism check decides each (l_a, l_b) pair from its
    sorted dotted coefficients (`_SortedResiduals`).  The broken IM form's
    report prints the witness at (Te1, Te4), whose one nonzero sorted
    coefficient is at the last target, x2_dot1*x3_dot2*x4_dot3: dropping
    that target changes the report."""
    sorted_monomials = _SortedResiduals.sorted_monomials
    monkeypatch.setattr(_SortedResiduals, "sorted_monomials",
                        lambda self, free: sorted_monomials(self, free)[:-1])
    stem = "n4_k3_im_broken"
    code, out, _ = _verify(LADDER / f"{stem}.json", "json")
    assert (code, out) != (LADDER_EXIT_CODES[stem]["json"],
                           (LADDER / f"{stem}.report.json").read_bytes())


def test_dense_golden_covers_its_documents():
    assert _documents(DENSE) == sorted(DENSE_EXIT_CODES) == ["plane_d4_e3_perturbed"]


@pytest.mark.parametrize("report", sorted(SUFFIX))
@pytest.mark.parametrize("stem", sorted(DENSE_EXIT_CODES))
def test_dense_report_matches_golden(stem, report):
    _check_generated(DENSE, DENSE_EXIT_CODES, stem, report)
