"""The corpus reports are pinned byte for byte.

`tests/golden/` holds, for every document in `fixtures/`, the stdout of
`verify --report json` and `--report text`, the exit code of each run, and
the stderr of the one malformed document (every other run writes nothing to
stderr).  A change to any of them is a change of the report format and must
regenerate the files on purpose.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from imcalc.cli import main

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"
EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text())
SUFFIX = {"json": "json", "text": "txt"}


def test_golden_covers_the_corpus():
    assert sorted(EXIT_CODES) == sorted(p.stem for p in CORPUS.glob("*.json"))


@pytest.mark.parametrize("report", sorted(SUFFIX))
@pytest.mark.parametrize("stem", sorted(EXIT_CODES))
def test_corpus_report_matches_golden(stem, report):
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["--input", str(CORPUS / f"{stem}.json"), "--report", report])
    assert code == EXIT_CODES[stem][report]
    assert out.getvalue().encode() == (GOLDEN / f"{stem}.report.{SUFFIX[report]}").read_bytes()
    stderr = GOLDEN / f"{stem}.stderr"
    assert err.getvalue().encode() == (stderr.read_bytes() if stderr.exists() else b"")
