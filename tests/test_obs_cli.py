"""CLI surface of the telemetry subsystem.

``repro trace EXP`` runs an experiment at its declared smoke scale and
prints the aggregated span tree plus the counter table; ``repro run
--trace PATH`` exports a validating Chrome trace (or JSONL log) of the
whole invocation; with ``--store`` the stored record's telemetry block
shows the same totals in ``repro runs show``, and ``repro runs diff``
names the stable totals and bits-by-role rows two records disagree on.
"""

import copy
import dataclasses
import json

from repro import obs
from repro.cli import main
from repro.obs import validate_chrome_trace
from repro.runs import RunStore, diff_records, execute_run
from repro.runs.report import format_telemetry_block


def _total(counters: dict, name: str) -> int:
    """Sum one counter's exported series (bare name + labeled keys)."""
    return sum(
        value
        for key, value in counters.items()
        if key == name or key.startswith(name + "{")
    )


class TestTraceCommand:
    def test_trace_prints_tree_and_counters(self, capsys):
        assert main(["trace", "T1b"]) == 0
        out = capsys.readouterr().out
        assert "(traced" in out
        assert "engine.map" in out
        assert "transcript.bits" in out and "role=" in out

    def test_trace_exports_a_valid_chrome_trace(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        assert main(["trace", "T1b", "--out", str(out_path)]) == 0
        info = validate_chrome_trace(out_path)
        assert info["events"] > 0
        assert any(n.startswith("protocol.") for n in info["names"])
        assert _total(info["counters"], "transcript.bits") > 0

    def test_trace_accepts_overrides(self, capsys):
        assert main(["trace", "T1b", "--kw", "m=8", "k=2", "trials=1"]) == 0
        assert "transcript.bits" in capsys.readouterr().out

    def test_no_recorder_leaks_after_tracing(self, capsys):
        assert main(["trace", "T1b"]) == 0
        assert obs.active() is None


class TestTraceFlag:
    def test_run_trace_exports_jsonl(self, capsys, tmp_path):
        out_path = tmp_path / "events.jsonl"
        assert main(
            ["run", "T1b", "--kw", "m=8", "k=2", "trials=1",
             "--trace", str(out_path)]
        ) == 0
        assert "(trace:" in capsys.readouterr().out
        events = [json.loads(l) for l in out_path.read_text().splitlines()]
        assert events[0]["type"] == "meta"
        assert any(e["type"] == "counter" for e in events)

    def test_run_trace_and_store_report_the_same_totals(
        self, capsys, tmp_path
    ):
        trace_path = tmp_path / "trace.json"
        store_root = tmp_path / "runs"
        assert main(
            ["run", "T1b", "--kw", "m=8", "k=2", "trials=1",
             "--store", str(store_root), "--trace", str(trace_path)]
        ) == 0
        capsys.readouterr()
        info = validate_chrome_trace(trace_path)
        record = next(iter(RunStore(store_root).records("T1b")))
        stored = record.telemetry["counters"]
        # The run's counters appear identically in the exported trace
        # (modulo the store.* counters emitted while writing the record
        # itself, which post-date the record's own summary).
        for name in ("transcript.bits", "transcript.messages"):
            assert _total(info["counters"], name) == stored[name]
        assert _total(info["counters"], "store.records") == 1
        assert main(["runs", "show", record.key[:12],
                     "--store", str(store_root)]) == 0
        shown = capsys.readouterr().out
        assert "telemetry  :" in shown
        assert f"transcript.bits = {stored['transcript.bits']}" in shown
        assert "role=" in shown

    def test_sweep_trace_flag(self, capsys, tmp_path):
        trace_path = tmp_path / "sweep.json"
        assert main(
            ["sweep", "F1", "--grid", "m=8,10", "--store",
             str(tmp_path / "runs"), "--trace", str(trace_path)]
        ) == 0
        assert "(trace:" in capsys.readouterr().out
        info = validate_chrome_trace(trace_path)
        assert _total(info["counters"], "store.records") == 2


class TestTelemetryDiff:
    """``repro runs diff`` names stable telemetry drift, never span times."""

    def _stored(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        record = execute_run(
            "T1b", {"m": 8, "k": 2, "trials": 2}, store=store
        ).record
        return store, record

    def test_rerun_of_the_same_params_agrees(self, tmp_path):
        _store, record = self._stored(tmp_path)
        again = execute_run("T1b", {"m": 8, "k": 2, "trials": 2}).record
        assert again.telemetry["top_spans"] != record.telemetry["top_spans"]
        lines = diff_records(record, again)
        assert lines[2] == "(records agree on params and data)"
        assert len(lines) == 4

    def test_one_edited_role_row_shows_exactly_that_line(
        self, tmp_path, capsys
    ):
        store, record = self._stored(tmp_path)
        telemetry = copy.deepcopy(record.telemetry)
        row = next(r for r in telemetry["transcript"] if r[1] == "unique")
        row[4] += 1
        edited_key = "e" * 64
        store.put(
            dataclasses.replace(record, key=edited_key, telemetry=telemetry)
        )
        assert main(
            ["runs", "diff", record.key[:12], edited_key[:12],
             "--store", str(store.root)]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        messages, bits, maximum, buckets = row[3:]
        counts = ",".join(map(str, buckets))
        assert lines[2:-1] == [
            f"transcript protocol={row[0]},role=unique: "
            f"{messages} msgs, {bits - 1} bits, max {maximum}, buckets {counts}"
            f" -> {messages} msgs, {bits} bits, max {maximum}, buckets {counts}"
        ]
        assert lines[-1].startswith("wall time:")


class TestStoredTelemetryRendering:
    def test_format_telemetry_block_empty_for_legacy_records(self):
        assert format_telemetry_block(None) == []
        assert format_telemetry_block({}) == []

    def test_format_telemetry_block_renders_the_role_table(self):
        block = {
            "counters": {"transcript.bits": 43, "transcript.messages": 4},
            "detail": {},
            "transcript": [
                ["p", "public", None, 3, 13, 8, [0, 0, 1, 1, 1]],
                ["p", "special", None, 1, 30, 30, [0, 0, 0, 0, 0, 1]],
            ],
            "span_count": 0,
            "top_spans": [],
        }
        lines = [line.split() for line in format_telemetry_block(block)]
        assert lines[3] == ["transcript", "messages", "bits", "max", "p50", "p99"]
        assert lines[4] == ["protocol=p,role=public", "3", "13", "8", "7", "8"]
        assert lines[5] == ["protocol=p,role=special", "1", "30", "30", "30", "30"]

    def test_format_telemetry_block_orders_counters(self):
        block = {
            "counters": {"engine.trials": 4, "cache.hits": 1},
            "detail": {"transcript.bits{player=0}": 8},
            "span_count": 3,
            "top_spans": [["run>engine.plan", 1, 0.001]],
        }
        lines = format_telemetry_block(block)
        assert lines[0] == "telemetry  :"
        assert lines[1].strip().startswith("cache.hits")
        assert any("run>engine.plan" in line for line in lines)
