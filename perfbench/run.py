"""Benchmark of the `verify` command, end to end and layer by layer.

    python3 perfbench/run.py --workload oracle_ladder --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a source checkout; `imcalc` is imported from `src/`.
One process verifies one workload's documents through `imcalc.cli.main`,
in process, one document after another (a closed loop with one caller),
in passes over all documents until `--seconds` are used up.

Times are reference seconds (see `speed.py`): wall time with the probe's
own time taken out, scaled by how fast the machine ran the probe's fixed
calibration loop meanwhile, so that the machine's slow stretches do not
show as slow code.  The wall times and slowdowns go into the run record.

With `--trace 0` it reports the end-to-end metrics, each a median over
passes; with `--trace 1` it alternates untraced and traced passes and
reports the per-layer metrics of the traced passes plus the tracing
overhead.  Every verification is checked against the document's known
answer; any failure makes the run exit 1 without numbers.
The last line of stdout is one JSON object; a record with the environment,
the workload parameters and per-document medians is appended to `--out`.
"""

from __future__ import annotations

import argparse
import gzip
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 10
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2


class BenchmarkError(Exception):
    """The checkout cannot be benchmarked (exit code 2)."""


def metric_units(trace: bool) -> dict:
    """{name: unit} of the metrics BENCHMARK.json lists for this kind of run."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchmarkError(f"cannot read BENCHMARK.json: {exc}") from exc
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# -- set-up ----------------------------------------------------------------------

def _purge_imcalc() -> None:
    for name in [n for n in sys.modules if n == "imcalc" or n.startswith("imcalc.")]:
        del sys.modules[name]


def setup(workload: str, seed: int, work_dir: Path) -> list:
    """Import `imcalc` afresh, build the workload's documents and write them.

    Returns [(Document, path)].
    """
    _purge_imcalc()
    import imcalc.cli  # noqa: F401  (the import is part of set-up)
    docs = workloads.GENERATORS[workload](ROOT, seed)
    work_dir.mkdir(parents=True, exist_ok=True)
    out = []
    for doc in docs:
        path = work_dir / doc.name
        path.write_text(doc.text, encoding="utf-8")
        out.append((doc, path))
    return out


def check_checkout() -> None:
    if not (ROOT / "src" / "imcalc" / "cli.py").is_file():
        raise BenchmarkError(f"no imcalc sources under {ROOT / 'src'}")
    if not (ROOT / "fixtures").is_dir():
        raise BenchmarkError(f"no fixtures directory under {ROOT}")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))


# -- one verification ------------------------------------------------------------

def verify(doc, path: Path) -> tuple:
    """Run `verify --input path` in process:
    ((start, end), exit code, stdout, error)."""
    main = sys.modules["imcalc.cli"].main
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(["--input", str(path)])
        except Exception as exc:  # a crash is a failed verification, not a stop
            return (start, time.perf_counter()), None, out.getvalue(), f"raised {exc!r}"
        end = time.perf_counter()
    return (start, end), code, out.getvalue(), None


def judge(doc, code, stdout: str, error, reference: str | None):
    """Why a verification failed, or None when it gave the known answer."""
    if error is not None:
        return error
    if code != doc.exit:
        return f"exit code {code}, expected {doc.exit}"
    if doc.oracle:
        try:
            oracle = json.loads(stdout).get("oracle", {})
        except json.JSONDecodeError:
            return "report is not JSON"
        if oracle.get("agree") is not True:
            return f"oracle block {oracle!r} lacks \"agree\": true"
    if reference is not None and stdout != reference:
        return "report differs from the first verification"
    return None


def wall_seconds(start: float, end: float) -> float:
    return end - start


class ClosedLoop:
    """One caller verifying a workload's documents in turn, and every
    verification it made.  `seconds(start, end)` converts a wall interval
    to the seconds reported."""

    def __init__(self, docs: list, seconds=wall_seconds):
        self.docs = docs
        self.seconds = seconds
        self.reference: dict = {}
        self.samples = {doc.name: [] for doc, _ in docs}
        self.walls: list = []    # (start, end) of every pass
        self.attempted = 0
        self.failures: list = []

    def one_pass(self, timed: bool = True) -> float:
        """Verify every document once; the pass's time.  Only timed passes
        add to the per-document samples."""
        start = time.perf_counter()
        for doc, path in self.docs:
            (t0, t1), code, stdout, error = verify(doc, path)
            self.attempted += 1
            why = judge(doc, code, stdout, error, self.reference.get(doc.name))
            self.reference.setdefault(doc.name, stdout)
            if why is not None:
                self.failures.append(f"{doc.name}: {why}")
            if timed:
                self.samples[doc.name].append(self.seconds(t0, t1))
        end = time.perf_counter()
        self.walls.append((start, end))
        return self.seconds(start, end)

    def wall_pass_s(self) -> float:
        """Median wall time of a pass so far."""
        return statistics.median(end - start for start, end in self.walls)

    def passes(self, deadline: float, minimum: int) -> list:
        """Passes until a typical one would end after `deadline`."""
        times = []
        while True:
            times.append(self.one_pass())
            if (len(times) >= minimum
                    and time.perf_counter() + self.wall_pass_s() > deadline):
                return times


# -- metrics ---------------------------------------------------------------------

def end_to_end(loop: ClosedLoop, pass_times: list, setup_times: list, top: str) -> dict:
    medians = [statistics.median(s) for s in loop.samples.values()]
    return {
        "pass_s": statistics.median(pass_times),
        "verdict_s.geomean": math.exp(statistics.fmean(math.log(m) for m in medians)),
        "top_doc_s": statistics.median(loop.samples[top]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times),
    }


def traced_passes(loop: ClosedLoop, probe: speed.SpeedProbe, deadline: float,
                  spans_path: Path) -> tuple:
    """Untraced and traced passes in turn until `deadline`, at least
    MIN_TRACED_PAIRS of each: (untraced pass times, traced pass times,
    per-layer metrics)."""
    tracer = tracing.Tracer()
    plain, traced, per_pass = [], [], []
    with gzip.open(spans_path, "wt", encoding="utf-8") as fh:
        while True:
            plain.append(loop.one_pass())
            tracer.install()
            try:
                traced.append(loop.one_pass(timed=False))
            finally:
                tracer.uninstall()
            spans = tracer.take()
            slowdown = probe.slowdown(*loop.walls[-1])
            per_pass.append({name: value / slowdown if name.endswith(".self_s") else value
                             for name, value in tracing.layer_metrics(spans).items()})
            for layer, start, end, parent, _ in spans:
                fh.write(f'["{layer}",{start:.9f},{end:.9f},{parent}]\n')
            fh.write("null\n")  # pass boundary
            if (len(traced) >= MIN_TRACED_PAIRS
                    and time.perf_counter() + 2 * loop.wall_pass_s() > deadline):
                break
    layers = {name: statistics.median_low(p[name] for p in per_pass) for name in per_pass[0]}
    layers["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain) - 1
    return plain, traced, layers


# -- environment -----------------------------------------------------------------

def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment() -> dict:
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


# -- one workload -------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    check_checkout()
    units = metric_units(trace)
    work_dir = OUT_DIR / "work" / f"{workload}-{seed}"
    top = workloads.TOP_DOC[workload]
    probe = speed.SpeedProbe()
    probe.install()
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            docs = setup(workload, seed, work_dir)
            setup_times.append(probe.seconds(start, time.perf_counter()))

        loop = ClosedLoop(docs, probe.seconds)
        deadline = time.perf_counter() + seconds
        traced_times = []
        if trace:
            spans_path = OUT_DIR / f"spans-{workload}-{seed}.jsonl.gz"
            pass_times, traced_times, metrics = traced_passes(loop, probe, deadline,
                                                              spans_path)
        else:
            pass_times = loop.passes(deadline, MIN_PASSES)
            metrics = end_to_end(loop, pass_times, setup_times, top)
    finally:
        probe.uninstall()
    per_document = {name: statistics.median(s) for name, s in loop.samples.items()}

    missing = set(units) - set(metrics)
    if missing:
        raise BenchmarkError(f"BENCHMARK.json lists {sorted(missing)}, which no layer measures")
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "parameters": dict(workloads.PARAMETERS[workload], top_document=top,
                           documents=[{"name": d.name, "bytes": len(d.text.encode()),
                                       "exit": d.exit} for d, _ in docs]),
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "failed_ratio": len(loop.failures) / loop.attempted,
        "failures": loop.failures[:20],
        "setup_times_s": setup_times,
        "pass_times_s": pass_times,
        "traced_pass_times_s": traced_times,
        "per_document_median_s": per_document,
        "speed": {
            "reference_s": speed.REFERENCE_S,
            "interval_s": speed.INTERVAL_S,
            "samples": len(probe.loop_s),
            "loop_median_s": statistics.median(probe.loop_s),
            "pass_wall_s": [end - start for start, end in loop.walls],
            "pass_slowdown": [probe.slowdown(start, end) for start, end in loop.walls],
        },
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def summary_line(record: dict) -> str:
    """The last line of stdout; no numbers when any verification failed."""
    correct = record["failed"] == 0
    return json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"] if correct else {},
    })


def _print_table(record: dict) -> None:
    print(f"workload {record['workload']} seed {record['seed']} "
          f"trace {record['trace']}: {record['attempted']} verifications, "
          f"{record['failed']} failed (failed_ratio {record['failed_ratio']:g})")
    for name, m in record["metrics"].items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    results = {}
    status = 0
    for workload in workloads.GENERATORS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(args.out)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        results[workload] = json.loads(lines[-1]) if lines else None
        if proc.returncode != 0:
            status = 1
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(workloads.GENERATORS) + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=OUT_DIR / "results.jsonl",
                        help="JSON-lines file the run record is appended to")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if record["failed"]:
        record["metrics"] = {}  # a wrong run posts no numbers
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    _print_table(record)
    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(summary_line(record))
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
