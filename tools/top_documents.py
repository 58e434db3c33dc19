"""Time `verify` on the benchmark ladder's top document at chosen (n, k).

Run from the root of a checkout:

    python3 tools/top_documents.py [--runs N] [n,k ...]

With no rungs it times (5, 3), (6, 3), (7, 4) and (8, 4), three runs each.
For each rung it builds the document that `oracle_ladder` puts on its top
rung, `perfbench/workloads.py` `rung_documents(random.Random(6), n, k,
top=True)` (read only, imported as `tools/report_digest.py` imports it), and
verifies it N times in this process with `imcalc.cli.main` from the
checkout's own `src/`.  Building the document is not timed.

It prints one line per rung: n, k, the number of runs, the fastest and the
median wall time in seconds, and the sha256 of the report (exit code and
stdout).  Run it on two checkouts and compare the lines: equal digests mean
byte-identical reports.  Every run of a rung must print the same report, or
the tool stops with an error.
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


def rung(text: str) -> tuple:
    n, k = text.split(",")
    return int(n), int(k)


def time_rung(n: int, k: int, runs: int, path: Path) -> tuple:
    """(fastest, median, report sha256) of `runs` verifications of the top
    document at (n, k)."""
    doc, = workloads.rung_documents(random.Random(SEED), n, k, top=True)
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
        raise SystemExit(f"n={n}, k={k}: the runs printed different reports")
    digest = hashlib.sha256(reports.pop().encode()).hexdigest()
    return min(times), statistics.median(times), digest


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=3, help="verifications per rung")
    parser.add_argument("rungs", nargs="*", type=rung, default=RUNGS, metavar="n,k")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    print("n k runs min_s median_s report_sha256")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "document.json"
        for n, k in args.rungs:
            fastest, median, digest = time_rung(n, k, args.runs, path)
            print(f"{n} {k} {args.runs} {fastest:.4f} {median:.4f} {digest}", flush=True)


if __name__ == "__main__":
    main()
