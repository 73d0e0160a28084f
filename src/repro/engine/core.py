"""The execution engine: batched, parallel, cache-aware protocol runs.

``ExecutionEngine`` ties the three engine pieces together:

* a backend policy — serial, a fixed-size process pool, or ``"auto"``
  (pool only when the workload is large enough to amortize fork cost);
* the construction cache (``engine.cache``), shared by every layer that
  builds Behrend sets, RS graphs, or D_MM families;
* the :class:`~repro.engine.plan.TrialPlan` batch API with hash-derived
  per-trial seeds, so results never depend on which backend ran them.

One engine serves a whole experiment run.  ``default_engine()`` is the
process-global instance used when callers don't pass one; the CLI
replaces it according to ``--workers`` / ``--cache-dir`` / ``--no-cache``,
and the ``REPRO_WORKERS`` environment variable configures it for test
and CI runs.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable, Iterable
from typing import Any

from .. import obs
from ..obs import ENGINE_TRIALS
from .backends import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    default_worker_count,
    in_worker_process,
)
from .cache import ConstructionCache, construction_cache
from .plan import BatchResult, TrialPlan, TrialResult, execute_task

#: In auto mode, batches smaller than this stay serial.
AUTO_PARALLEL_THRESHOLD = 32


class ExecutionEngine:
    """Runs batches of independent tasks under one backend/cache policy.

    ``workers``:

    * ``None`` or ``1`` — serial;
    * ``N >= 2`` — a process pool of N workers for every multi-task batch;
    * ``"auto"`` — a default-size pool, selected per batch by workload
      size (small batches stay serial).
    """

    def __init__(
        self,
        workers: int | str | None = None,
        cache: ConstructionCache | None = None,
        parallel_threshold: int = AUTO_PARALLEL_THRESHOLD,
    ) -> None:
        self._auto = workers == "auto"
        if self._auto:
            worker_count: int | None = default_worker_count()
        elif workers is None:
            worker_count = None
        else:
            worker_count = int(workers)
            if worker_count < 1:
                raise ValueError("workers must be positive")
        self.workers = worker_count
        self.parallel_threshold = parallel_threshold
        self._cache = cache
        self._serial = SerialBackend()
        self._pool: ProcessPoolBackend | None = None

    # ------------------------------------------------------------------
    # Policy
    # ------------------------------------------------------------------
    @property
    def cache(self) -> ConstructionCache:
        """This engine's construction cache (global default unless set)."""
        return self._cache if self._cache is not None else construction_cache()

    @property
    def parallel_capable(self) -> bool:
        return self.workers is not None and self.workers >= 2

    def backend_for(self, num_tasks: int) -> ExecutionBackend:
        """Select the backend for a batch of ``num_tasks`` tasks."""
        if not self.parallel_capable or num_tasks <= 1 or in_worker_process():
            return self._serial
        if self._auto and num_tasks < self.parallel_threshold:
            return self._serial
        if self._pool is None:
            self._pool = ProcessPoolBackend(workers=self.workers)
        return self._pool

    def describe(self) -> str:
        """Human-readable backend policy, for CLI summary lines."""
        if not self.parallel_capable:
            return "serial"
        mode = "auto" if self._auto else "fixed"
        return f"process-pool({self.workers}, {mode})"

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_trials(self, plan: TrialPlan) -> BatchResult:
        """Execute a trial plan; results are backend-independent.

        Traced, the batch runs under an ``engine.dispatch`` span with one
        ``engine.trial`` span per task (see :meth:`_dispatch`), so counter
        totals are bit-identical between serial and pooled execution,
        and span trees differ only in timings.
        """
        start = time.perf_counter()
        with obs.span("engine.plan", trials=plan.trials, namespace=plan.namespace):
            tasks = plan.tasks()
        plan_time = time.perf_counter() - start
        backend = self.backend_for(len(tasks))
        obs.count(ENGINE_TRIALS, len(tasks))
        dispatch_start = time.perf_counter()
        results: list[TrialResult] = self._dispatch(
            execute_task, tasks, backend, "engine.dispatch", "engine.trial",
            _trial_attrs, tasks=len(tasks),
        )
        dispatch_time = time.perf_counter() - dispatch_start
        return BatchResult(
            results=tuple(results),
            wall_time=time.perf_counter() - start,
            backend_name=backend.name,
            plan_time=plan_time,
            dispatch_time=dispatch_time,
        )

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        """Ordered map of ``fn`` over prebuilt items (no seed derivation)."""
        items = list(items)
        backend = self.backend_for(len(items))
        return self._dispatch(
            fn, items, backend, "engine.map", "engine.item", _no_attrs,
            items=len(items),
        )

    def _dispatch(
        self,
        fn: Callable[[Any], Any],
        items: list,
        backend: ExecutionBackend,
        name: str,
        item_name: str,
        item_attrs: Callable[[Any], dict],
        /,
        **attrs: Any,
    ) -> list[Any]:
        """``backend.map(fn, items)``, traced when a recorder is installed.

        Traced, the batch runs under a ``name`` span and each item under
        an ``item_name`` span carrying ``item_attrs(item)``.  On the
        serial backend the items record in place, in the caller's
        recorder.  On the pool each item records into an item-local
        recorder whose snapshot merges here in item order, rebased onto
        a sequential timeline; merge order follows span start order, so
        span ids, parents and attrs come out as the serial path's.
        """
        recorder = obs.active()
        if recorder is None:
            return backend.map(fn, items)
        with obs.span(name, backend=backend.name, **attrs) as dispatch:
            if backend is self._serial:
                results = []
                for item in items:
                    with obs.span(item_name, **item_attrs(item)):
                        results.append(fn(item))
                return results
            packed = [(fn, item_name, item_attrs(item), item) for item in items]
            pairs = backend.map(_traced_item, packed)
            results = []
            offset = dispatch.start
            for result, snapshot in pairs:
                recorder.merge_snapshot(
                    snapshot, parent_id=dispatch.span_id, time_offset=offset
                )
                offset += _snapshot_extent(snapshot)
                results.append(result)
        return results

    def close(self) -> None:
        """Shut down any pool this engine spawned."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None


def _trial_attrs(task: tuple) -> dict:
    return {"trial": task[1]}


def _no_attrs(item: Any) -> dict:
    return {}


def _snapshot_extent(snapshot: dict) -> float:
    """How much timeline a merged snapshot occupies (its furthest end)."""
    return max(
        (start + max(duration, 0.0) for *_ignored, start, duration in snapshot["spans"]),
        default=0.0,
    )


def _traced_item(packed: tuple) -> tuple[Any, dict]:
    """Run one pooled item under an item-local recorder; return its snapshot."""
    fn, name, attrs, item = packed
    with obs.recording(obs.TelemetryRecorder()) as recorder:
        with obs.span(name, **attrs):
            result = fn(item)
        return result, recorder.snapshot()


# ----------------------------------------------------------------------
# Process-global default
# ----------------------------------------------------------------------
_default_engine: ExecutionEngine | None = None


def workers_from_env() -> int | str | None:
    """The ``REPRO_WORKERS`` setting: an int, ``"auto"``, or ``None``."""
    raw = os.environ.get("REPRO_WORKERS", "").strip()
    if not raw:
        return None
    if raw.lower() == "auto":
        return "auto"
    try:
        return int(raw)
    except ValueError:
        return None


def _engine_from_env() -> ExecutionEngine:
    try:
        return ExecutionEngine(workers=workers_from_env())
    except ValueError:
        return ExecutionEngine()


def default_engine() -> ExecutionEngine:
    """The process-global engine (configured from ``REPRO_WORKERS`` once)."""
    global _default_engine
    if _default_engine is None:
        _default_engine = _engine_from_env()
    return _default_engine


def set_default_engine(engine: ExecutionEngine) -> ExecutionEngine:
    """Replace the global default engine (the CLI routes through here)."""
    global _default_engine
    if _default_engine is not None and _default_engine is not engine:
        _default_engine.close()
    _default_engine = engine
    return engine


def resolve_engine(engine: ExecutionEngine | None) -> ExecutionEngine:
    """The engine to use: the given one, or the process default."""
    return engine if engine is not None else default_engine()
