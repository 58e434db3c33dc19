"""Time `verify` on the benchmark ladder's top document at chosen (n, k),
and on the dense plane document at chosen degrees (d, e).

Run from the root of a checkout:

    python3 tools/top_documents.py [--runs N] [--dense d,e ...] [n,k ...]

With no rungs and no `--dense` it times (5, 3), (6, 3), (7, 4) and (8, 4),
three runs each.  For each rung it builds the document that `oracle_ladder`
puts on its top rung, `perfbench/workloads.py` `rung_documents(
random.Random(6), n, k, top=True)` (read only, imported as
`tools/report_digest.py` imports it).  For each `--dense d,e` it builds the
perturbed plane document of `dense_poly`, `plane_documents(random.Random(6),
d, e)[1]`: (1 + x1 + 2*x2)^d with a form of degree e, the kind of document
`dense_poly` times at (4, 3) and (7, 4), at any degrees.  It verifies each
document N times in this process with `imcalc.cli.main` from the checkout's
own `src/`.  Building the document is not timed.

It prints a header, then one line per rung: n, k, the number of runs, the
fastest and the median wall time in seconds, the sha256 of the document
text and the sha256 of the report (exit code and stdout); the dense
documents follow under their own header, with d and e in place of n and k.
Run it on two checkouts and compare the lines: equal digests mean the same
document and byte-identical reports.  A passing report prints no witness
and nothing that depends on n, so rungs whose documents pass share a report
digest; the document digest tells them apart.  Every run of a document must
print the same report, or the tool stops with an error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from imcalc import cli  # noqa: E402
import workloads  # noqa: E402

RUNGS = ((5, 3), (6, 3), (7, 4), (8, 4))
SEED = 6


def pair(text: str) -> tuple:
    a, b = text.split(",")
    return int(a), int(b)


def time_document(doc, runs: int, path: Path) -> tuple:
    """(fastest, median, document sha256, report sha256) of `runs`
    verifications of `doc`."""
    path.write_text(doc.text, encoding="utf-8")
    times, reports = [], set()
    for _ in range(runs):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            start = time.perf_counter()
            code = cli.main(["--input", str(path)])
            times.append(time.perf_counter() - start)
        reports.add(f"{code}\0{out.getvalue()}")
    if len(reports) != 1:
        raise SystemExit(f"{doc.name}: the runs printed different reports")
    document = hashlib.sha256(doc.text.encode()).hexdigest()
    report = hashlib.sha256(reports.pop().encode()).hexdigest()
    return min(times), statistics.median(times), document, report


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=3, help="verifications per document")
    parser.add_argument("--dense", type=pair, action="append", default=[], metavar="d,e",
                        help="time the perturbed dense plane document at these degrees")
    parser.add_argument("rungs", nargs="*", type=pair, metavar="n,k")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    rungs = args.rungs or ([] if args.dense else RUNGS)
    tables = [("n k", [((n, k), workloads.rung_documents(random.Random(SEED), n, k, top=True)[0])
                       for n, k in rungs]),
              ("d e", [((d, e), workloads.plane_documents(random.Random(SEED), d, e)[1])
                       for d, e in args.dense])]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "document.json"
        for header, documents in tables:
            if documents:
                print(f"{header} runs min_s median_s document_sha256 report_sha256")
            for (a, b), doc in documents:
                fastest, median, document, report = time_document(doc, args.runs, path)
                print(f"{a} {b} {args.runs} {fastest:.4f} {median:.4f} {document} {report}",
                      flush=True)


if __name__ == "__main__":
    main()
