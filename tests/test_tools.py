"""Smoke tests for the scripts in `tools/`: each runs as documented from the
root of the checkout and prints what its docstring promises."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_top_documents_times_one_rung():
    """One run at (3, 2): a header line, then n, k, the run count, the
    fastest and the median time, and the sha256 of the document and of the
    report."""
    run = subprocess.run([sys.executable, "tools/top_documents.py", "--runs", "1", "3,2"],
                         cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    header, line = run.stdout.splitlines()
    assert header == "n k runs min_s median_s document_sha256 report_sha256"
    n, k, runs, fastest, median, document, report = line.split()
    assert (n, k, runs) == ("3", "2", "1")
    assert float(fastest) == float(median) > 0
    assert re.fullmatch(r"[0-9a-f]{64}", document)
    assert re.fullmatch(r"[0-9a-f]{64}", report)
    assert document != report


def test_top_documents_times_one_dense_document():
    """One run of the perturbed plane document at d = 2, e = 1: a header
    with d and e in place of n and k, then one line, and no ladder rung."""
    run = subprocess.run([sys.executable, "tools/top_documents.py", "--runs", "1",
                          "--dense", "2,1"],
                         cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    header, line = run.stdout.splitlines()
    assert header == "d e runs min_s median_s document_sha256 report_sha256"
    d, e, runs, fastest, median, document, report = line.split()
    assert (d, e, runs) == ("2", "1", "1")
    assert float(fastest) == float(median) > 0
    assert re.fullmatch(r"[0-9a-f]{64}", document)
    assert re.fullmatch(r"[0-9a-f]{64}", report)


def test_src_size_prints_one_row_per_module_and_their_sums():
    """One row of lines, code lines and path per `src/` module, then a
    total row that holds the sums of the rows above it."""
    run = subprocess.run([sys.executable, "tools/src_size.py"],
                         cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    *rows, total = [line.split(None, 2) for line in run.stdout.splitlines()]
    modules = sorted(str(p.relative_to(ROOT)) for p in (ROOT / "src").rglob("*.py"))
    assert [path for _, _, path in rows] == modules
    assert all(0 < int(code) <= int(lines) for lines, code, _ in rows)
    assert total == [str(sum(int(row[0]) for row in rows)), str(sum(int(row[1]) for row in rows)),
                     "total (lines, code lines)"]


def test_report_digest_is_pinned():
    """The document count and the two digests over every shipped, golden
    and generated document and its reports in both formats.  A change to
    what `verify` prints, or to which documents there are, moves a line
    here, so it needs a deliberate edit of this pin; a benchmark change
    that edits `perfbench/workloads.py` changes the generated documents
    and updates the pin with them."""
    run = subprocess.run([sys.executable, "tools/report_digest.py"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "documents 74",
        "documents sha256 961afcc5f0c5b222fe59f892c4104eaf1d424c53410b71a3b7b3fbdd0dd7e5a2",
        "reports sha256 5d0fded266d19302c1151a6871e21398ce30f78863100f416295ec707d95a6c2",
    ]
