"""Self-tests of the benchmark: known answers, tracing transparency, repeatable
counts, clean restoration, the correctness gate and the compare verdicts.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import random
import sys
import time

import pytest

import compare
import run
import speed
import tracing
import workloads

run.check_checkout()
import imcalc.cli  # noqa: E402,F401  (importable once check_checkout put src/ on the path)


@pytest.fixture(scope="module")
def lowest_rung(tmp_path_factory):
    """Every kind of generated document at its smallest size, on disk."""
    rng = random.Random(7)
    n, k = workloads.LADDER_RUNGS[0]
    docs = workloads.rung_documents(rng, n, k, top=False)
    docs += workloads.plane_documents(rng, *workloads.DENSE_DEGREES[0])
    folder = tmp_path_factory.mktemp("docs")
    out = []
    for doc in docs:
        path = folder / doc.name
        path.write_text(doc.text, encoding="utf-8")
        out.append((doc, path))
    return out


def traced_counts(loop: run.ClosedLoop) -> dict:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        loop.one_pass()
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.take())
    return {name: value for name, value in metrics.items()
            if name.endswith((".calls", ".term_pairs", ".pairs"))}


def test_generated_documents_get_their_known_answers(lowest_rung):
    assert {doc.exit for doc, _ in lowest_rung} == {0, 1}
    for doc, path in lowest_rung:
        _, code, stdout, error = run.verify(doc, path)
        assert run.judge(doc, code, stdout, error, None) is None, doc.name


def test_corpus_documents_get_their_pinned_answers(tmp_path):
    loop = run.ClosedLoop([(doc, run.ROOT / "fixtures" / doc.name)
                           for doc in workloads.corpus_documents(run.ROOT, 0)])
    loop.one_pass()
    loop.one_pass()
    assert loop.attempted == 18 and loop.failures == []


def test_traced_report_is_byte_identical(lowest_rung):
    loop = run.ClosedLoop(lowest_rung)
    loop.one_pass()
    traced_counts(loop)
    assert loop.failures == []
    assert loop.attempted == 2 * len(lowest_rung)


def test_traced_counts_repeat_exactly(lowest_rung):
    first = traced_counts(run.ClosedLoop(lowest_rung))
    second = traced_counts(run.ClosedLoop(lowest_rung))
    assert first == second
    assert first["poly.mul.calls"] > 0 and first["algebroid.morphism.pairs"] > 0


def test_every_wrapped_function_is_restored(lowest_rung):
    def bindings():
        out = {}
        for name, module in sys.modules.items():
            if name == "imcalc" or name.startswith("imcalc."):
                out.update({(name, k): v for k, v in vars(module).items()})
        for cls in (sys.modules["imcalc.poly"].Polynomial,
                    sys.modules["imcalc.algebroid"].LieAlgebroid):
            out.update({(cls.__name__, k): v for k, v in vars(cls).items()})
        return out

    before = bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = bindings()
        replaced = [key for key in before if during[key] is not before[key]]
        assert ("imcalc.cli", "main") in replaced and ("Polynomial", "diff") in replaced
        assert len(replaced) > len(tracing.TARGETS)  # re-exports are wrapped too
        run.ClosedLoop(lowest_rung[:1]).one_pass()
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_a_wrong_answer_fails_the_run(lowest_rung):
    doc, path = lowest_rung[0]
    wrong = workloads.Document(doc.name, doc.text, 1 - doc.exit, doc.oracle)
    loop = run.ClosedLoop([(wrong, path)])
    loop.one_pass()
    assert loop.failures and "expected" in loop.failures[0]

    record = {"attempted": 1, "failed": 1, "metrics": {"pass_s": {"value": 1.0, "unit": "s"}}}
    line = json.loads(run.summary_line(record))
    assert line == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def _record(workload, value, failed=0):
    return {"workload": workload, "trace": 0, "attempted": 10, "failed": failed,
            "metrics": {"pass_s": {"value": value, "unit": "s"}}}


SPEC = {"end_to_end": [{"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.1}]}


@pytest.mark.parametrize("change, expected, regressed", [
    ([1.0, 1.01, 0.99], "within bound", False),
    ([1.3, 1.31, 1.29], "worse", True),
    ([0.8, 0.81, 0.79], "better", False),
])
def test_compare_verdicts(change, expected, regressed):
    base = {("w", 0): [_record("w", v) for v in (1.0, 1.01, 0.99)]}
    new = {("w", 0): [_record("w", v) for v in change]}
    lines, got, unresolved = compare.compare(base, new, SPEC)
    assert got is regressed and not unresolved
    assert lines[1].endswith(expected)


WIDE_BASE = (1.0, 1.5, 0.7, 1.2)


@pytest.mark.parametrize("change, expected", [
    ((0.9, 1.4, 0.8, 1.1), "unresolved"),
    ((2.0, 3.0, 1.4, 2.4), "unresolved"),   # twice as slow, but the runs overlap
    ((2.1, 3.0, 1.6, 2.4), "worse"),        # every run slower than every base run
    ((0.5, 0.6, 0.55, 0.65), "better"),
])
def test_compare_on_a_wide_base_decides_only_on_separate_runs(change, expected):
    base = {("w", 0): [_record("w", v) for v in WIDE_BASE]}
    new = {("w", 0): [_record("w", v) for v in change]}
    lines, regressed, unresolved = compare.compare(base, new, SPEC)
    assert lines[1].endswith(expected)
    assert regressed is (expected == "worse")
    assert unresolved is (expected == "unresolved")


def test_compare_exit_codes(tmp_path):
    def write(name, values):
        path = tmp_path / name
        path.write_text("".join(json.dumps(_record("w", v)) + "\n" for v in values))
        return str(path)

    base = write("base.jsonl", (1.0, 1.01, 0.99))
    assert compare.main([base, write("same.jsonl", (1.0, 1.0, 1.01))]) == 0
    assert compare.main([base, write("slow.jsonl", (2.0, 2.1, 1.9))]) == 1
    wide = write("wide.jsonl", WIDE_BASE)
    assert compare.main([wide, write("close.jsonl", (0.9, 1.4, 0.8, 1.1))]) \
        == compare.UNRESOLVED_EXIT


def test_compare_fails_on_a_rise_in_failed_ratio():
    base = {("w", 0): [_record("w", 1.0)]}
    new = {("w", 0): [_record("w", 1.0, failed=1)]}
    _, regressed, _ = compare.compare(base, new, SPEC)
    assert regressed


def test_speed_probe_scales_by_the_calibration_loop():
    probe = speed.SpeedProbe()
    ref = speed.REFERENCE_S
    # samples at t = 0, 1, 2, 3; the loop ran at reference speed, then half speed
    probe.starts = [0.0, 1.0, 2.0, 3.0]
    probe.loop_s = [ref, ref, 2 * ref, 2 * ref]
    probe.busy = [0.0, ref, 2 * ref, 4 * ref, 6 * ref]
    assert probe.slowdown(0.0, 1.5) == pytest.approx(1.0)
    assert probe.slowdown(2.5, 3.5) == pytest.approx(2.0)
    assert probe.slowdown(3.2, 3.4) == pytest.approx(2.0)   # no sample inside: the last one
    assert probe.slowdown(0.5, 3.5) == pytest.approx(1.5)  # samples 1, 2, 3: mean speed 2/3
    # [2.5, 3.5] holds one sample of 2 * ref, taken out before scaling
    assert probe.seconds(2.5, 3.5) == pytest.approx((1.0 - 2 * ref) / 2)


def test_speed_probe_is_restored():
    import signal
    before = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe()
    probe.install()
    try:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    finally:
        probe.uninstall()
    assert len(probe.loop_s) >= 3
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
