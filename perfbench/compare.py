"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds run records, one JSON object a line, as `run.py --out`
appends them; runs are grouped by workload and by traced or not.  For each
metric both sides' median and quartiles over runs are printed with a verdict,
judged by the bounds in BENCHMARK.json:

- worse: the change's median is worse than the base's by more than the
  bound; when the base's spread (the distance between its quartiles, as a
  share of its median) is wider than the bound, every run of the change must
  also read worse than every run of the base;
- better: it is better by more than the base's own spread; when that spread
  is wider than the bound, every run of the change must read better than
  every run of the base;
- unresolved: the base's spread is wider than the bound and neither of the
  above holds, so the runs cannot tell;
- within bound: otherwise.

Per-layer metrics have no bound and are printed for information.  The exit
code is 1 when any metric is worse or any workload's failed_ratio rose,
3 when none is but some metric is unresolved, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
UNRESOLVED_EXIT = 3


def load_runs(path: Path) -> dict:
    """{(workload, trace): [record, ...]} from a JSON-lines file."""
    groups: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return groups


def quartiles(values: list) -> tuple:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base: list, change: list, bound: float, better: str) -> str:
    q1, med, q3 = quartiles(base)
    sign = 1 if better == "lower" else -1
    delta = sign * (statistics.median(change) - med) / med   # > 0 is worse
    spread = (q3 - q1) / med
    if spread > bound:
        # the base is too noisy for its median alone; only runs that do not
        # overlap decide
        def beats(a, b):  # every run of `a` is better than every run of `b`
            return max(a) < min(b) if better == "lower" else min(a) > max(b)
        if beats(change, base):
            return "better"
        if delta > bound and beats(base, change):
            return "worse"
        return "unresolved"
    if delta > bound:
        return "worse"
    if -delta > spread:
        return "better"
    return "within bound"


def failed_ratio(records: list) -> float:
    return sum(r["failed"] for r in records) / sum(r["attempted"] for r in records)


def compare(base: dict, change: dict, spec: dict) -> tuple:
    """(report lines, regressed, unresolved)."""
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    lines = []
    regressed = unresolved = False
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        a, b = base[key], change[key]
        fa, fb = failed_ratio(a), failed_ratio(b)
        rose = fb > fa
        regressed |= rose
        lines.append(f"{workload} (trace {trace}): {len(a)} vs {len(b)} runs, "
                     f"failed_ratio {fa:g} -> {fb:g}{'  FAILED_RATIO ROSE' if rose else ''}")
        # a run with a failed verification posts no numbers
        ma = next((r["metrics"] for r in a if r["metrics"]), {})
        mb = next((r["metrics"] for r in b if r["metrics"]), {})
        for name in [n for n in ma if n in mb]:
            va = [r["metrics"][name]["value"] for r in a if r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in b if r["metrics"]]
            unit = ma[name]["unit"]
            qa, qb = quartiles(va), quartiles(vb)
            if name in bounded:
                m = bounded[name]
                word = verdict(va, vb, m["bound"], m["better"])
                regressed |= word == "worse"
                unresolved |= word == "unresolved"
            else:
                word = "no bound"
            change_pct = (qb[1] - qa[1]) / qa[1] * 100 if qa[1] else float("nan")
            lines.append(
                f"  {name:34s} {unit:6s} base {qa[1]:.5g} [{qa[0]:.5g}, {qa[2]:.5g}]"
                f"  change {qb[1]:.5g} [{qb[0]:.5g}, {qb[2]:.5g}]"
                f"  {change_pct:+.1f}%  {word}")
    for key in sorted(set(base) ^ set(change)):
        lines.append(f"{key[0]} (trace {key[1]}): only in {'base' if key in base else 'change'}")
    return lines, regressed, unresolved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    try:
        spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
        base, change = load_runs(args.base), load_runs(args.change)
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    lines, regressed, unresolved = compare(base, change, spec)
    print("\n".join(lines))
    if regressed:
        print("REGRESSION")
        return 1
    if unresolved:
        print("UNRESOLVED: the base's runs spread wider than a bound; rerun both sides")
        return UNRESOLVED_EXIT
    print("no regression")
    return 0


if __name__ == "__main__":
    sys.exit(main())
