"""Unit tests of the telemetry subsystem (``repro.obs``).

Covers the recorder contract (span trees, counter taxonomy, snapshots
and merges), the zero-overhead disabled path, all three exporters, and
the instrumentation satellites this PR pins: ``CacheStats.summary``
including stores, ``BatchResult``'s phase timings, and the
``RunRecord.telemetry`` provenance block.
"""

import json

import pytest

from repro import obs
from repro.engine import (
    BatchResult,
    CacheStats,
    ConstructionCache,
    ExecutionEngine,
    TrialPlan,
)
from repro.obs import (
    CACHE_HITS,
    CACHE_MISSES,
    CACHE_STORES,
    COUNTERS,
    ENGINE_TRIALS,
    TRANSCRIPT_BITS,
    TelemetryRecorder,
    aggregate_spans,
    counter_def,
    counter_table,
    recording,
    render_tree,
    stable_names,
    telemetry_summary,
    to_chrome_trace,
    to_jsonl,
    validate_chrome_trace,
    write_trace,
)
from repro.runs import RunRecord


def _bits(recorder, value, **labels):
    recorder.count(TRANSCRIPT_BITS, value, tuple(sorted(labels.items())))


class TestRecorderSpans:
    def test_nesting_assigns_parent_ids(self):
        rec = TelemetryRecorder()
        with recording(rec):
            with obs.span("outer") as outer:
                with obs.span("inner") as inner:
                    pass
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert all(s.duration >= 0.0 for s in rec.spans)

    def test_attrs_travel_with_the_span(self):
        rec = TelemetryRecorder()
        with recording(rec):
            with obs.span("engine.plan", trials=7):
                pass
        assert rec.spans[0].attrs == {"trials": 7}

    def test_end_span_closes_abandoned_children(self):
        rec = TelemetryRecorder()
        outer = rec.start_span("outer")
        rec.start_span("leaked")
        rec.end_span(outer)  # must not raise; closes the leaked child too
        assert all(s.duration >= 0.0 for s in rec.spans)
        assert rec.current_span_id is None

    def test_ending_a_closed_span_raises(self):
        rec = TelemetryRecorder()
        record = rec.start_span("once")
        rec.end_span(record)
        with pytest.raises(ValueError):
            rec.end_span(record)


class TestRecorderCounters:
    def test_undeclared_name_raises_with_taxonomy(self):
        rec = TelemetryRecorder()
        with pytest.raises(KeyError, match="undeclared counter"):
            rec.count("no.such.counter")

    def test_labels_key_separate_series(self):
        rec = TelemetryRecorder()
        _bits(rec, 8, player=0)
        _bits(rec, 8, player=0)
        _bits(rec, 4, player=1)
        assert rec.totals()[TRANSCRIPT_BITS] == 20
        series = rec.series(TRANSCRIPT_BITS)
        assert series[(("player", 0),)] == 16
        assert series[(("player", 1),)] == 4

    def test_taxonomy_is_self_consistent(self):
        for name, d in COUNTERS.items():
            assert d.name == name and d.unit and d.description
        assert counter_def(ENGINE_TRIALS).stable
        assert TRANSCRIPT_BITS in stable_names()
        assert CACHE_HITS not in stable_names()
        with pytest.raises(KeyError):
            counter_def("no.such.counter")


class TestDisabledPath:
    def test_span_returns_shared_null_handle(self):
        assert obs.active() is None
        assert obs.span("a", x=1) is obs.span("b")

    def test_count_is_a_noop_without_validation(self):
        # The disabled path must not even look at the name.
        obs.count("no.such.counter", 5, player=3)

    def test_recording_nests_and_restores(self):
        outer = TelemetryRecorder()
        with recording(outer):
            with recording(TelemetryRecorder()) as inner:
                assert obs.active() is inner
            assert obs.active() is outer
        assert obs.active() is None


class TestSnapshots:
    def test_snapshot_closes_open_spans(self):
        rec = TelemetryRecorder()
        rec.start_span("open")
        snap = rec.snapshot()
        (_, _, _, _, _, duration) = snap["spans"][0]
        assert duration >= 0.0

    def test_merge_remaps_ids_and_adds_counters(self):
        parent = TelemetryRecorder()
        with recording(parent):
            with obs.span("host") as host:
                child = TelemetryRecorder()
                with obs.span("trial"):
                    pass  # recorded on parent; fine
                child.start_span("work")
                child.count(ENGINE_TRIALS, 2)
                snap = child.snapshot()
                parent.count(ENGINE_TRIALS, 1)
                parent.merge_snapshot(snap)
        merged = [s for s in parent.spans if s.name == "work"]
        assert len(merged) == 1
        assert merged[0].parent_id == host.span_id
        ids = [s.span_id for s in parent.spans]
        assert len(ids) == len(set(ids))
        assert parent.totals()[ENGINE_TRIALS] == 3

    def test_merge_order_cannot_change_totals(self):
        snaps = []
        for value in (1, 10, 100):
            child = TelemetryRecorder()
            child.count(ENGINE_TRIALS, value)
            snaps.append(child.snapshot())
        forward, backward = TelemetryRecorder(), TelemetryRecorder()
        for snap in snaps:
            forward.merge_snapshot(snap)
        for snap in reversed(snaps):
            backward.merge_snapshot(snap)
        assert forward.totals() == backward.totals() == {ENGINE_TRIALS: 111}

    def test_merge_offsets_times(self):
        child = TelemetryRecorder()
        record = child.start_span("work")
        child.end_span(record)
        parent = TelemetryRecorder()
        parent.merge_snapshot(child.snapshot(), time_offset=5.0)
        assert parent.spans[0].start >= 5.0


def _recorded_workload() -> TelemetryRecorder:
    """A small recorder with a two-level tree and labeled counters."""
    rec = TelemetryRecorder()
    with recording(rec):
        with obs.span("engine.dispatch", backend="serial"):
            for trial in range(3):
                with obs.span("engine.trial", trial=trial):
                    pass
        _bits(rec, 8, player=0, protocol="p")
        _bits(rec, 4, player=1, protocol="p")
        rec.count(ENGINE_TRIALS, 3)
    return rec


class TestExporters:
    def test_jsonl_lines_parse(self):
        rec = _recorded_workload()
        lines = to_jsonl(rec).splitlines()
        events = [json.loads(line) for line in lines]
        assert events[0]["type"] == "meta"
        assert events[0]["spans"] == len(rec.spans)
        assert sum(e["type"] == "span" for e in events) == len(rec.spans)
        kinds = {e["type"] for e in events}
        assert kinds == {"meta", "span", "counter"}
        counter = next(e for e in events if e["type"] == "counter")
        assert counter["unit"] == COUNTERS[counter["name"]].unit

    def test_chrome_trace_validates(self):
        rec = _recorded_workload()
        trace = to_chrome_trace(rec)
        info = validate_chrome_trace(json.dumps(trace))
        assert info["events"] == len(rec.spans)
        assert "engine.trial" in info["names"]
        assert info["counters"]["engine.trials"] == 3
        key = "transcript.bits{player=0,protocol=p}"
        assert info["counters"][key] == 8

    def test_chrome_timestamps_strictly_increase_on_ties(self):
        rec = TelemetryRecorder()
        for _ in range(5):
            record = rec.start_span("tie")
            record.start = 0.0  # force identical starts
            rec.end_span(record)
        ts = [e["ts"] for e in to_chrome_trace(rec)["traceEvents"]]
        assert ts == sorted(ts) and len(set(ts)) == len(ts)

    def test_validate_rejects_broken_traces(self):
        with pytest.raises(ValueError, match="no traceEvents"):
            validate_chrome_trace(json.dumps({"traceEvents": []}))
        bad = {
            "traceEvents": [
                {"name": "a", "ph": "X", "ts": 2, "dur": 1, "pid": 1, "tid": 1},
                {"name": "b", "ph": "X", "ts": 2, "dur": 1, "pid": 1, "tid": 1},
            ]
        }
        with pytest.raises(ValueError, match="strictly increasing"):
            validate_chrome_trace(json.dumps(bad))

    def test_write_trace_selects_format_by_suffix(self, tmp_path):
        rec = _recorded_workload()
        chrome = write_trace(rec, tmp_path / "trace.json")
        jsonl = write_trace(rec, tmp_path / "trace.jsonl")
        validate_chrome_trace(chrome)
        first = json.loads(jsonl.read_text().splitlines()[0])
        assert first["type"] == "meta"

    def test_aggregate_groups_by_name_path(self):
        rec = _recorded_workload()
        forest = aggregate_spans(rec.spans)
        assert [n["name"] for n in forest] == ["engine.dispatch"]
        trial = forest[0]["children"][0]
        assert trial["name"] == "engine.trial" and trial["count"] == 3

    def test_render_tree_and_counter_table(self):
        rec = _recorded_workload()
        tree = render_tree(rec)
        assert tree[0].startswith("engine.dispatch")
        assert "engine.trial" in tree[1]
        table = "\n".join(counter_table(rec))
        assert "player=0,protocol=p" in table and "bits" in table
        empty = TelemetryRecorder()
        assert render_tree(empty) == ["(no spans recorded)"]
        assert counter_table(empty) == ["(no counters recorded)"]

    def test_telemetry_summary_shape(self):
        summary = telemetry_summary(_recorded_workload())
        assert summary["counters"][TRANSCRIPT_BITS] == 12
        assert summary["detail"]["transcript.bits{player=1,protocol=p}"] == 4
        assert summary["span_count"] == 4
        paths = [path for path, _count, _total in summary["top_spans"]]
        assert "engine.dispatch>engine.trial" in paths
        # The block must survive the store's JSON round-trip untouched.
        assert json.loads(json.dumps(summary)) == summary


class TestCacheStatsSatellite:
    def test_untouched_summary_reads_cleanly(self):
        assert CacheStats().summary() == "0 hits / 0 misses"

    def test_summary_includes_stores(self):
        stats = CacheStats(hits=2, misses=1, stores=1)
        assert stats.summary() == "2 hits / 1 misses / 1 stored"

    def test_cache_emits_counters_alongside_stats(self):
        cache = ConstructionCache(max_entries=4)
        rec = TelemetryRecorder()
        with recording(rec):
            cache.get_or_build(("k",), lambda: object())
            cache.get_or_build(("k",), lambda: object())
        assert rec.totals() == {CACHE_MISSES: 1, CACHE_STORES: 1, CACHE_HITS: 1}
        assert (cache.stats.hits, cache.stats.misses, cache.stats.stores) == (
            1,
            1,
            1,
        )


def _square(trial, seed):
    return trial * trial


class TestBatchResultSatellite:
    def test_legacy_constructor_still_works(self):
        batch = BatchResult(results=(), wall_time=0.1, backend_name="serial")
        assert batch.plan_time == 0.0 and batch.dispatch_time == 0.0

    def test_run_trials_records_phases(self):
        plan = TrialPlan(fn=_square, trials=4, base_seed=1)
        batch = ExecutionEngine().run_trials(plan)
        assert batch.plan_time >= 0.0 and batch.dispatch_time >= 0.0
        assert batch.plan_time + batch.dispatch_time <= batch.wall_time + 1e-9

    def test_traced_run_counts_trials(self):
        plan = TrialPlan(fn=_square, trials=4, base_seed=1)
        with recording(TelemetryRecorder()) as rec:
            batch = ExecutionEngine().run_trials(plan)
        assert batch.values == [0, 1, 4, 9]
        assert rec.totals()[ENGINE_TRIALS] == 4
        names = {s.name for s in rec.spans}
        assert {"engine.plan", "engine.dispatch", "engine.trial"} <= names


def _record(telemetry=None) -> RunRecord:
    return RunRecord(
        key="k" * 64,
        experiment_id="F1",
        title="t",
        params={"m": 8},
        seed=0,
        exact=False,
        engine={"backend": "serial"},
        version="1.0.0",
        wall_time=0.1,
        cache_hits=0,
        cache_misses=0,
        lines=("row",),
        data={},
        created=1.0,
        telemetry=telemetry,
    )


class TestRunRecordTelemetry:
    def test_round_trip(self):
        block = {"counters": {"engine.trials": 4}, "span_count": 2}
        record = _record(block)
        assert RunRecord.from_payload(record.to_payload()).telemetry == block

    def test_pre_telemetry_payloads_load_as_none(self):
        payload = _record().to_payload()
        del payload["telemetry"]
        assert RunRecord.from_payload(payload).telemetry is None
