"""The execution engine: batched, parallel, cache-aware protocol runs.

``ExecutionEngine`` ties the three engine pieces together:

* a backend policy — serial, a fixed-size process pool, or ``"auto"``
  (pool only when the workload is large enough to amortize fork cost);
* the construction cache (``engine.cache``), shared by every layer that
  builds Behrend sets, RS graphs, or D_MM families;
* :meth:`ExecutionEngine.map`, the one batch API: an ordered map over
  items that carry their own hash-derived seeds (``engine.seeds``), so
  results never depend on which backend ran them.

One engine serves a whole experiment run.  ``default_engine()`` is the
process-global instance used when callers don't pass one; the CLI
replaces it according to ``--workers`` / ``--cache-dir`` / ``--no-cache``,
and the ``REPRO_WORKERS`` environment variable configures it for test
and CI runs (a malformed value is an error, as a bad ``--workers`` is).
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable
from functools import partial
from typing import Any

from .. import obs
from .backends import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    default_worker_count,
    in_worker_process,
)
from .cache import ConstructionCache, construction_cache

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
        if self._auto and num_tasks < AUTO_PARALLEL_THRESHOLD:
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
    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        """``fn`` over ``items``, results in item order, on the chosen backend.

        Every item carries whatever seed it needs (``derive_seed(base,
        namespace, trial)``), so results never depend on the backend.
        Traced, the batch runs under an ``engine.map`` span and each item
        under an ``engine.item`` span.  On the serial backend the items
        record in place, in the caller's recorder.  On the pool each item
        records into an item-local recorder whose snapshot merges here in
        item order, rebased onto a sequential timeline; merge order
        follows span start order, so span ids, parents and attrs come out
        as the serial path's.
        """
        items = list(items)
        backend = self.backend_for(len(items))
        recorder = obs.active()
        if recorder is None:
            return backend.map(fn, items)
        with obs.span("engine.map", backend=backend.name, items=len(items)) as batch:
            if backend is self._serial:
                results = []
                for item in items:
                    with obs.span("engine.item"):
                        results.append(fn(item))
                return results
            pairs = backend.map(partial(_traced_item, fn), items)
            results = []
            offset = batch.start
            for result, snapshot in pairs:
                recorder.merge_snapshot(
                    snapshot, parent_id=batch.span_id, time_offset=offset
                )
                offset += _snapshot_extent(snapshot)
                results.append(result)
        return results

    def close(self) -> None:
        """Shut down any pool this engine spawned."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None


def _snapshot_extent(snapshot: dict) -> float:
    """How much timeline a merged snapshot occupies (its furthest end)."""
    return max(
        (start + max(duration, 0.0) for *_ignored, start, duration in snapshot["spans"]),
        default=0.0,
    )


def _traced_item(fn: Callable[[Any], Any], item: Any) -> tuple[Any, dict]:
    """Run one pooled item under an item-local recorder; return its snapshot."""
    with obs.recording(obs.TelemetryRecorder()) as recorder:
        with obs.span("engine.item"):
            result = fn(item)
        return result, recorder.snapshot()


# ----------------------------------------------------------------------
# Process-global default
# ----------------------------------------------------------------------
_default_engine: ExecutionEngine | None = None


def parse_worker_setting(raw: str) -> int | str:
    """A worker setting: a positive integer, or ``"auto"``.

    The one rule for ``--workers`` and ``REPRO_WORKERS``; anything else
    raises ``ValueError``.
    """
    if raw == "auto":
        return raw
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"expected a positive integer or 'auto', got {raw!r}"
        ) from None
    if value < 1:
        raise ValueError("workers must be positive")
    return value


def workers_from_env() -> int | str | None:
    """The ``REPRO_WORKERS`` setting, or ``None`` when it is unset or empty.

    A malformed value raises ``ValueError`` naming the variable.
    """
    raw = os.environ.get("REPRO_WORKERS", "").strip()
    if not raw:
        return None
    try:
        return parse_worker_setting(raw)
    except ValueError as exc:
        raise ValueError(f"REPRO_WORKERS={raw!r}: {exc}") from None


def default_engine() -> ExecutionEngine:
    """The process-global engine (configured from ``REPRO_WORKERS`` once)."""
    global _default_engine
    if _default_engine is None:
        _default_engine = ExecutionEngine(workers=workers_from_env())
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
