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
