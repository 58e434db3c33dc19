"""Fingerprint what `verify` prints, to show that a change leaves every report
byte-identical.

Run from the root of a checkout, with no arguments:

    python3 tools/report_digest.py

It imports `imcalc` from the checkout's own `src/` and the benchmark's
document generators from `perfbench/workloads.py` (read only).  The documents
are the shipped fixtures, the `tests/golden/ladder` documents, and the
`oracle_ladder` and `dense_poly` documents generated for each seed in SEEDS.
Each document is verified with `imcalc.cli.main` in both report formats.

It prints the document count, one sha256 over the documents (name and text)
and one over the (exit code, stdout, stderr) of every run.  Run it on two
checkouts and compare the lines: equal lines mean equal documents and
byte-identical reports.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from imcalc import cli  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 57, 3)
FORMATS = ("json", "text")


def documents() -> list:
    """(name, text) of every document, in a fixed order."""
    docs = [(p.name, p.read_text(encoding="utf-8"))
            for p in sorted((ROOT / "fixtures").glob("*.json"))]
    docs += [(f"ladder/{p.name}", p.read_text(encoding="utf-8"))
             for p in sorted((ROOT / "tests" / "golden" / "ladder").glob("*.json"))
             if not p.name.endswith(".report.json") and p.name != "exit_codes.json"]
    for seed in SEEDS:
        for workload in ("oracle_ladder", "dense_poly"):
            docs += [(f"{workload}/{seed}/{d.name}", d.text)
                     for d in workloads.GENERATORS[workload](ROOT, seed)]
    return docs


def run(path: Path, report: str) -> bytes:
    """`verify --input path --report report` as one record of exit code,
    stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--input", str(path), "--report", report])
    return f"{code}\0{out.getvalue()}\0{err.getvalue()}\0".encode()


def main() -> None:
    docs = documents()
    doc_hash, report_hash = hashlib.sha256(), hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "document.json"
        for name, text in docs:
            doc_hash.update(f"{name}\0{text}\0".encode())
            path.write_text(text, encoding="utf-8")
            for report in FORMATS:
                report_hash.update(run(path, report))
    print(f"documents {len(docs)}")
    print(f"documents sha256 {doc_hash.hexdigest()}")
    print(f"reports sha256 {report_hash.hexdigest()}")


if __name__ == "__main__":
    main()
