"""Backend-independence of telemetry: serial vs pooled runs agree.

The engine's contract (see ``docs/observability.md``): on the serial
backend every task records in place, under its task span in the
caller's recorder; on the pool every task runs under a task-local
recorder whose snapshot merges at the barrier in task order.  Counter
totals are integer sums, so a 2-worker pool must reproduce the serial
totals bit-for-bit; span trees must agree in structure (ids, names,
parents, attrs), differing only in timings; the per-role transcript
summaries (bucket sums, max) must match exactly as well.  That holds
for ``engine.map`` over items carrying derived seeds, over plain
items, and for the telemetry block a stored run keeps.

The construction cache is disabled for the cross-backend runs: workers
carry their own process-global caches, so cache *temperature* (hits vs
misses) is the one legitimately backend-dependent signal — with it off,
every counter in the taxonomy must match.
"""

import json
import random

import pytest

from repro import obs
from repro.engine import ExecutionEngine, configure_cache, derive_seed
from repro.experiments import get_experiment
from repro.lowerbound import sample_dmm, scaled_distribution
from repro.model import PublicCoins, run_protocol
from repro.obs import (
    TelemetryRecorder,
    recording,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.protocols import make_protocol
from repro.runs import execute_run

#: Enough tasks that a fixed 2-worker engine really uses the pool.
_TRIALS = 6


def _dmm_trial(item):
    """One protocol run against a fresh D_MM sample (cache-exercising)."""
    _trial, seed = item
    hard = scaled_distribution(m=8, k=2)
    instance = sample_dmm(hard, random.Random(seed))
    run = run_protocol(
        instance.graph,
        make_protocol("sampled:2"),
        PublicCoins(seed=seed),
        n=instance.hard.n,
        roles=instance.player_roles,
    )
    return run.max_bits


@pytest.fixture
def cache_disabled():
    """Disable the construction cache; restore the default after."""
    configure_cache(enabled=False)
    yield
    configure_cache(enabled=True)


def _traced_run(workers) -> tuple[TelemetryRecorder, list]:
    items = [(t, derive_seed(5, "obs", t)) for t in range(_TRIALS)]
    engine = ExecutionEngine(workers=workers)
    try:
        with recording(TelemetryRecorder()) as recorder:
            values = engine.map(_dmm_trial, items)
    finally:
        engine.close()
    return recorder, values


def _stripped_tree(recorder: TelemetryRecorder) -> list[tuple]:
    """Span structure without timings: (id, parent, name, sorted attrs).

    The ``backend`` attribute on the ``engine.map`` span is the one
    value that legitimately names the executing backend — dropped here
    so the comparison checks structure, not policy.
    """
    return [
        (
            s.span_id,
            s.parent_id,
            s.name,
            tuple(sorted((k, v) for k, v in s.attrs.items() if k != "backend")),
        )
        for s in recorder.spans
    ]


class TestBackendIndependence:
    def test_counters_and_spans_match_across_workers(self, cache_disabled):
        serial, serial_values = _traced_run(workers=1)
        pooled, pooled_values = _traced_run(workers=2)
        assert serial_values == pooled_values
        assert serial.counters == pooled.counters
        assert serial.totals() == pooled.totals()
        # Role summaries: bucket sums and maxes merge exactly too.
        assert serial.summaries and serial.summaries == pooled.summaries
        assert {labels for _name, labels in serial.summaries} == {
            labels for (name, labels) in serial.counters if labels
        }
        assert _stripped_tree(serial) == _stripped_tree(pooled)

    def test_pooled_chrome_trace_round_trips(self, cache_disabled):
        pooled, _values = _traced_run(workers=2)
        trace_text = json.dumps(to_chrome_trace(pooled))
        assert json.loads(trace_text)["traceEvents"]
        info = validate_chrome_trace(trace_text)
        assert info["events"] == len(pooled.spans)
        assert {"engine.map", "engine.item"} <= set(info["names"])
        # Merged item timelines stay monotonic per track by construction;
        # validate_chrome_trace raised otherwise.  Totals ride along:
        messages = sum(
            value
            for key, value in info["counters"].items()
            if key.split("{")[0] == "transcript.messages"
        )
        assert messages == pooled.totals()["transcript.messages"] > 0

    def test_trial_spans_rebase_sequentially(self, cache_disabled):
        pooled, _values = _traced_run(workers=2)
        items = [s for s in pooled.spans if s.name == "engine.item"]
        assert len(items) == _TRIALS
        starts = [s.start for s in items]
        assert starts == sorted(starts)


def _dmm_item(seed):
    return _dmm_trial((seed, seed))


def _traced_map(workers) -> tuple[TelemetryRecorder, list]:
    engine = ExecutionEngine(workers=workers)
    try:
        with recording(TelemetryRecorder()) as recorder:
            values = engine.map(_dmm_item, range(_TRIALS))
    finally:
        engine.close()
    return recorder, values


class TestMapBackendIndependence:
    def test_counters_summaries_and_spans_match_across_workers(
        self, cache_disabled, monkeypatch
    ):
        pooled, pooled_values = _traced_map(workers=2)

        def refuse(*args, **kwargs):
            raise AssertionError("a serial map merged a snapshot")

        # The serial backend records items in place: no item recorder to merge.
        monkeypatch.setattr(TelemetryRecorder, "merge_snapshot", refuse)
        serial, serial_values = _traced_map(workers=1)
        assert serial_values == pooled_values
        assert serial.counters == pooled.counters
        assert serial.summaries and serial.summaries == pooled.summaries
        assert {labels for _name, labels in serial.summaries} == {
            labels for (name, labels) in serial.counters if labels
        }
        assert _stripped_tree(serial) == _stripped_tree(pooled)
        items = [s for s in serial.spans if s.name == "engine.item"]
        (dispatch,) = [s for s in serial.spans if s.name == "engine.map"]
        assert len(items) == _TRIALS
        assert {s.parent_id for s in items} == {dispatch.span_id}

    def test_a_raising_item_leaves_the_span_stack_as_it_was(self):
        engine = ExecutionEngine()
        with recording(TelemetryRecorder()) as recorder:
            with obs.span("caller"):
                before = list(recorder._stack)
                with pytest.raises(RuntimeError, match="item 2"):
                    engine.map(_fail_at_two, range(4))
                assert recorder._stack == before
        assert recorder._stack == []
        assert all(s.duration >= 0.0 for s in recorder.spans)
        # Items 0 and 1 finished and item 2 started before the error.
        assert [s.name for s in recorder.spans].count("engine.item") == 3


def _fail_at_two(item):
    with obs.span("inner"):
        if item == 2:
            raise RuntimeError("item 2")
    return item


class TestStoredBlockAcrossBackends:
    def test_serial_and_pooled_runs_store_the_same_block(self, cache_disabled):
        smoke = get_experiment("T1b").spec.smoke
        blocks = []
        for workers in (1, 2):
            engine = ExecutionEngine(workers=workers)
            try:
                record = execute_run("T1b", smoke, engine=engine).record
            finally:
                engine.close()
            blocks.append(record.telemetry)
        serial, pooled = blocks
        assert serial["counters"]["transcript.bits"] > 0
        for field in ("counters", "detail", "transcript", "span_count"):
            assert serial[field] == pooled[field], field

        def paths(block):
            return sorted((path, count) for path, count, _total in block["top_spans"])

        assert paths(serial) == paths(pooled)
        assert any(path.endswith("engine.item") for path, _count in paths(serial))


class TestRecorderLeakage:
    def test_no_recorder_survives_a_traced_run(self, cache_disabled):
        _traced_run(workers=2)
        assert obs.active() is None
