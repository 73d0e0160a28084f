"""Backend-independence of telemetry: serial vs pooled runs agree.

The engine's contract (see ``docs/observability.md``): every task runs
under a task-local recorder on *every* backend, and snapshots merge at
the barrier in task order.  Counter totals are integer sums, so a
2-worker pool must reproduce the serial totals bit-for-bit; span trees
must agree in structure (names, parents, counts), differing only in
timings; the per-role transcript summaries (bucket sums, max) must match
exactly as well.

The construction cache is disabled for the cross-backend runs: workers
carry their own process-global caches, so cache *temperature* (hits vs
misses) is the one legitimately backend-dependent signal — with it off,
every counter in the taxonomy must match.
"""

import json
import random

import pytest

from repro import obs
from repro.engine import ExecutionEngine, TrialPlan, configure_cache
from repro.lowerbound import sample_dmm, scaled_distribution
from repro.model import PublicCoins, run_protocol
from repro.obs import (
    TelemetryRecorder,
    recording,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.protocols import make_protocol

#: Enough tasks that a fixed 2-worker engine really uses the pool.
_TRIALS = 6


def _dmm_trial(trial, seed):
    """One protocol run against a fresh D_MM sample (cache-exercising)."""
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
    plan = TrialPlan(fn=_dmm_trial, trials=_TRIALS, base_seed=5, namespace="obs")
    engine = ExecutionEngine(workers=workers)
    try:
        with recording(TelemetryRecorder()) as recorder:
            batch = engine.run_trials(plan)
    finally:
        engine.close()
    return recorder, batch.values


def _stripped_tree(recorder: TelemetryRecorder) -> list[tuple]:
    """Span structure without timings: (id, parent, name, sorted attrs).

    The ``backend`` attribute on ``engine.dispatch`` is the one value
    that legitimately names the executing backend — dropped here so the
    comparison checks structure, not policy.
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
        assert {"engine.plan", "engine.dispatch", "engine.trial"} <= set(
            info["names"]
        )
        # Merged trial timelines stay monotonic per track by construction;
        # validate_chrome_trace raised otherwise.  Totals ride along:
        assert info["counters"]["engine.trials"] == _TRIALS

    def test_trial_spans_rebase_sequentially(self, cache_disabled):
        pooled, _values = _traced_run(workers=2)
        trials = [s for s in pooled.spans if s.name == "engine.trial"]
        assert len(trials) == _TRIALS
        assert [s.attrs["trial"] for s in trials] == list(range(_TRIALS))
        starts = [s.start for s in trials]
        assert starts == sorted(starts)


class TestRecorderLeakage:
    def test_no_recorder_survives_a_traced_run(self, cache_disabled):
        _traced_run(workers=2)
        assert obs.active() is None
