"""The public run API: dispatch experiments, record them, reuse them.

This module is the supported surface for anything outside the package
(scripts, CI jobs, notebooks) that wants to execute registered
experiments — the CLI routes through it too, so ``repro run``,
``scripts/run_experiments.py``, and the sweep orchestrator all share
one dispatch path:

* :func:`run_with_engine` — call a runner with ``engine=`` / ``exact=``
  injected according to its *declared* spec (no signature
  introspection);
* :func:`execute_run` — the durable form: resolve the full parameter
  dict, compute the content address, serve the stored record if the
  store already has it, otherwise run, measure (wall clock + cache
  delta), and append a :class:`~repro.runs.store.RunRecord`;
* :func:`build_engine` / :func:`parse_workers` / :func:`engine_summary`
  — the engine-flag plumbing the CLI and scripts share.

Imports of :mod:`repro.experiments` happen inside functions: the
registry imports this package for its spec types, so the dependency
must stay one-way at import time.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Mapping

from .. import __version__, obs
from ..engine import (
    ExecutionEngine,
    configure_cache,
    resolve_engine,
    set_default_engine,
    workers_from_env,
)
from ..obs import TelemetryRecorder, telemetry_summary
from .spec import canonical_params, run_key
from .store import RunRecord, RunStore


def parse_workers(raw: str):
    """Validate a ``--workers`` value: a positive integer or ``'auto'``."""
    import argparse

    if raw == "auto":
        return raw
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'auto', got {raw!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError("workers must be positive")
    return value


def build_engine(
    workers: int | str | None = None,
    cache_dir: str | None = None,
    no_cache: bool = False,
) -> ExecutionEngine:
    """Build an engine from the shared CLI flags and install it as default."""
    cache = configure_cache(directory=cache_dir, enabled=not no_cache)
    if workers is None:
        workers = workers_from_env()
    return set_default_engine(ExecutionEngine(workers=workers, cache=cache))


def engine_summary(
    engine: ExecutionEngine, elapsed: float, before: tuple
) -> str:
    """One status line: wall clock, backend policy, cache traffic delta."""
    after = engine.cache.stats.snapshot()
    hits, misses = after[0] - before[0], after[1] - before[1]
    cache = "off" if not engine.cache.enabled else f"{hits} hits / {misses} misses"
    return f"(ran in {elapsed:.2f}s; backend {engine.describe()}; cache {cache})"


def run_with_engine(
    experiment,
    overrides: Mapping[str, Any],
    engine: ExecutionEngine | None = None,
    exact: bool = False,
):
    """Run an experiment (object or id) with spec-declared injection.

    The experiment's :class:`~repro.runs.spec.ExperimentSpec` says
    whether the runner accepts ``engine=`` / ``exact=``; overrides are
    validated against the declared parameters before dispatch.
    """
    if isinstance(experiment, str):
        from ..experiments import get_experiment

        experiment = get_experiment(experiment)
    return experiment.run(engine=engine, exact=exact, **overrides)


def ensure_json_data(data: dict, experiment_id: str) -> dict:
    """Round-trip a report's data dict through JSON, proving it lossless.

    Every ``RunRecord`` persists the data dict as JSON, so a value that
    does not survive ``dumps``/``loads`` (a bare ``Fraction``, a
    tuple-keyed dict) must fail loudly at record time, not corrupt the
    store silently.
    """
    try:
        encoded = json.dumps(data)
    except TypeError as exc:
        raise TypeError(
            f"experiment {experiment_id!r}: report data is not "
            f"JSON-serializable ({exc})"
        ) from None
    decoded = json.loads(encoded)
    if decoded != _jsonify(data):
        raise TypeError(
            f"experiment {experiment_id!r}: report data does not survive a "
            "JSON round-trip (tuples or non-string keys leak)"
        )
    return decoded


def _jsonify(value: Any) -> Any:
    """The JSON shadow of a value (tuples -> lists) for loss detection."""
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    return value


@dataclass(frozen=True)
class RunOutcome:
    """The result of :func:`execute_run`: the record plus its provenance."""

    record: RunRecord
    executed: bool

    @property
    def cached(self) -> bool:
        """True when the record was served from the store, not re-run."""
        return not self.executed


def execute_run(
    experiment_id: str,
    overrides: Mapping[str, Any] | None = None,
    *,
    engine: ExecutionEngine | None = None,
    exact: bool = False,
    store: RunStore | None = None,
    reuse: bool = True,
    telemetry: bool = True,
) -> RunOutcome:
    """Run one experiment durably: content-address, reuse, or execute.

    With a ``store``, the record at the run's content address is served
    directly when present (``reuse=True``); otherwise the experiment
    runs and the new record is appended.  Without a store the run still
    produces a full in-memory record (the sweep workers use this and
    let the orchestrating process write).

    Unless ``telemetry=False``, the experiment executes under a
    run-local :class:`~repro.obs.TelemetryRecorder` and the record
    carries the resulting summary block (counter totals, bits per
    player, heaviest span paths) as provenance.  When an outer recorder
    is already installed (a ``--trace`` invocation), the run's spans
    and counters are additionally merged into it, so the exported trace
    and the stored summary report the same totals.
    """
    from ..experiments import get_experiment

    experiment = get_experiment(experiment_id)
    resolved = experiment.spec.resolve(overrides or {})
    params = canonical_params(resolved)
    seed = params.get("seed")
    key = run_key(experiment_id, resolved, seed=seed, exact=exact)
    if store is not None and reuse:
        existing = store.get(key)
        if existing is not None:
            return RunOutcome(record=existing, executed=False)
    engine = resolve_engine(engine)
    before = engine.cache.stats.snapshot()
    outer = obs.active()
    recorder = TelemetryRecorder() if telemetry else None
    previous = obs.set_recorder(recorder) if telemetry else None
    start = time.perf_counter()
    try:
        with obs.span("run", experiment=experiment_id):
            report = experiment.run(engine=engine, exact=exact, **resolved)
    finally:
        if telemetry:
            obs.set_recorder(previous)
    elapsed = time.perf_counter() - start
    summary = None
    if recorder is not None:
        summary = telemetry_summary(recorder)
        if outer is not None:
            outer.merge_snapshot(recorder.snapshot())
    after = engine.cache.stats.snapshot()
    record = RunRecord(
        key=key,
        experiment_id=experiment_id,
        title=report.title,
        params=params,
        seed=seed,
        exact=exact,
        engine={"backend": engine.describe()},
        version=__version__,
        wall_time=elapsed,
        cache_hits=after[0] - before[0],
        cache_misses=after[1] - before[1],
        lines=tuple(report.lines),
        data=ensure_json_data(report.data, experiment_id),
        created=time.time(),
        telemetry=summary,
    )
    if store is not None:
        store.put(record)
    return RunOutcome(record=record, executed=True)
