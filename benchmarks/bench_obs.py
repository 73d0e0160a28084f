"""Telemetry micro-bench: disabled-path overhead and enabled costs.

The recorder's contract is that *disabled* telemetry (no recorder
installed) costs one module-global load plus an ``is None`` test per
probe — cheap enough to leave the probes compiled into every hot path.
This bench pins that contract with numbers:

* ``span`` and ``count`` per-call cost, disabled vs enabled;
* an end-to-end experiment workload (T1b at smoke scale) untraced vs
  traced — the ratio is the headline overhead figure quoted in
  ``docs/observability.md``;
* exporter throughput (Chrome trace events/s, JSONL lines/s) over a
  synthetic 10k-span recorder.

Two entry points:

* ``pytest benchmarks/bench_obs.py --benchmark-only`` — the usual
  pytest-benchmark harness (part of ``make bench``);
* ``python benchmarks/bench_obs.py [--out BENCH_obs.json]`` — smoke
  mode: runs every section with ``time.perf_counter``, prints a table,
  and emits a JSON artifact (the ``make bench-obs`` target).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import obs
from repro.obs import (
    ENGINE_TRIALS,
    TRANSCRIPT_BITS,
    TelemetryRecorder,
    recording,
    to_chrome_trace,
    to_jsonl,
)

#: Probe calls per timed invocation (amortizes the loop overhead).
_N_PROBES = 10_000
#: Spans in the synthetic exporter workload.
_N_EXPORT_SPANS = 10_000
#: The end-to-end workload: T1b at explicit smoke scale.
_WORKLOAD = {"m": 8, "k": 2, "trials": 2}


# ----------------------------------------------------------------------
# Probe loops
# ----------------------------------------------------------------------


def _spin_spans() -> None:
    """_N_PROBES span enter/exit pairs against whatever is installed."""
    for _ in range(_N_PROBES):
        with obs.span("bench.spin"):
            pass


def _spin_counts() -> None:
    """_N_PROBES labeled count() calls against whatever is installed."""
    for _ in range(_N_PROBES):
        obs.count(TRANSCRIPT_BITS, 8, player=0, protocol="bench")


def _spin_spans_enabled() -> None:
    """The span loop under a fresh recorder (includes recording cost)."""
    with recording(TelemetryRecorder()):
        _spin_spans()


def _spin_counts_enabled() -> None:
    """The count loop under a fresh recorder."""
    with recording(TelemetryRecorder()):
        _spin_counts()


def _workload():
    """One untraced T1b smoke run (the baseline)."""
    from repro.experiments import run_experiment

    return run_experiment("T1b", **_WORKLOAD)


def _workload_traced():
    """The same run under a fresh recorder."""
    with recording(TelemetryRecorder()) as recorder:
        report = _workload()
    return report, recorder


def _synthetic_recorder(spans: int = _N_EXPORT_SPANS) -> TelemetryRecorder:
    """A recorder holding ``spans`` closed spans and a few counters."""
    recorder = TelemetryRecorder()
    for i in range(spans):
        record = recorder.start_span("bench.export", {"i": i % 7})
        recorder.end_span(record)
    for i in range(64):
        recorder.count(TRANSCRIPT_BITS, i, (("player", i), ("protocol", "bench")))
    recorder.count(ENGINE_TRIALS, spans)
    return recorder


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------


def test_bench_span_disabled(benchmark):
    """Null-path span: one global load + is-None test per enter."""
    assert obs.active() is None
    benchmark(_spin_spans)


def test_bench_span_enabled(benchmark):
    """Recorded span: append + stack push/pop per enter/exit."""
    benchmark(_spin_spans_enabled)


def test_bench_count_disabled(benchmark):
    """Null-path count: early return before any label work."""
    assert obs.active() is None
    benchmark(_spin_counts)


def test_bench_count_enabled(benchmark):
    """Recorded count: label sort + dict accumulate per call."""
    benchmark(_spin_counts_enabled)


def test_bench_workload_untraced(benchmark):
    """T1b smoke with no recorder installed (the baseline)."""
    assert obs.active() is None
    report = benchmark(_workload)
    assert report.experiment_id == "T1b"


def test_bench_workload_traced(benchmark):
    """T1b smoke under a fresh recorder (spans + counters live)."""
    report, recorder = benchmark(_workload_traced)
    assert report.experiment_id == "T1b"
    # T1b fans out through ExecutionEngine.map, which records an
    # engine.map span; only run_trials counts engine.trials.
    assert recorder.totals()[TRANSCRIPT_BITS] > 0
    assert any(s.name == "engine.map" for s in recorder.spans)


def test_bench_chrome_export(benchmark):
    """Chrome trace rendering of a 10k-span recorder."""
    recorder = _synthetic_recorder()
    trace = benchmark(to_chrome_trace, recorder)
    assert len(trace["traceEvents"]) == _N_EXPORT_SPANS


def test_bench_jsonl_export(benchmark):
    """JSONL rendering of a 10k-span recorder."""
    recorder = _synthetic_recorder()
    text = benchmark(to_jsonl, recorder)
    assert text.count("\n") >= _N_EXPORT_SPANS


# ----------------------------------------------------------------------
# Smoke-mode runner (CI artifact)
# ----------------------------------------------------------------------


def _time_ops(fn, *args, min_seconds: float = 0.3) -> float:
    """Run ``fn`` repeatedly for >= min_seconds; return seconds/call."""
    fn(*args)  # warm up
    calls = 0
    start = time.perf_counter()
    while True:
        fn(*args)
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return elapsed / calls


def run_smoke() -> dict:
    """Time every section; returns the JSON-ready report dict."""
    assert obs.active() is None
    span_off = _time_ops(_spin_spans) / _N_PROBES
    span_on = _time_ops(_spin_spans_enabled) / _N_PROBES
    count_off = _time_ops(_spin_counts) / _N_PROBES
    count_on = _time_ops(_spin_counts_enabled) / _N_PROBES

    untraced = _time_ops(_workload)
    traced = _time_ops(_workload_traced)

    recorder = _synthetic_recorder()
    chrome_s = _time_ops(to_chrome_trace, recorder)
    jsonl_s = _time_ops(to_jsonl, recorder)

    return {
        "unit": "seconds per call unless suffixed",
        "workload": {"experiment": "T1b", **_WORKLOAD},
        "sections": {
            "probes": {
                "span_disabled_ns": span_off * 1e9,
                "span_enabled_ns": span_on * 1e9,
                "count_disabled_ns": count_off * 1e9,
                "count_enabled_ns": count_on * 1e9,
            },
            "workload": {
                "untraced_s": untraced,
                "traced_s": traced,
                "overhead_ratio": traced / untraced,
            },
            "export": {
                "spans": _N_EXPORT_SPANS,
                "chrome_events_per_s": _N_EXPORT_SPANS / chrome_s,
                "jsonl_lines_per_s": _N_EXPORT_SPANS / jsonl_s,
            },
        },
    }


def main(argv: list[str]) -> int:
    """Smoke entry point: print the table, optionally write the JSON."""
    out = None
    if "--out" in argv:
        out = Path(argv[argv.index("--out") + 1])
    report = run_smoke()
    p = report["sections"]["probes"]
    w = report["sections"]["workload"]
    e = report["sections"]["export"]
    print(f"span  disabled/enabled  {p['span_disabled_ns']:>8.0f} / "
          f"{p['span_enabled_ns']:>8.0f} ns")
    print(f"count disabled/enabled  {p['count_disabled_ns']:>8.0f} / "
          f"{p['count_enabled_ns']:>8.0f} ns")
    print(f"workload untraced {w['untraced_s'] * 1e3:.2f}ms, traced "
          f"{w['traced_s'] * 1e3:.2f}ms ({w['overhead_ratio']:.3f}x)")
    print(f"export: chrome {e['chrome_events_per_s']:.0f} events/s, "
          f"jsonl {e['jsonl_lines_per_s']:.0f} lines/s")
    if out is not None:
        out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
