"""Execution backends: where a batch of independent tasks actually runs.

A backend is an ordered ``map``: results come back in task order no
matter how the work was scheduled, which together with items that
carry hash-derived seeds (``engine.seeds``) gives the determinism
contract — serial and parallel execution of the same items are
bit-identical.

``SerialBackend`` runs in-process.  ``ProcessPoolBackend`` fans out over
``concurrent.futures.ProcessPoolExecutor``; tasks and their arguments
must be picklable (module-level functions, dataclass instances).  A
batch with a non-picklable function or item (any item, not just the
first) silently degrades to serial execution — recorded in
``serial_fallbacks`` — so callers can always route through the backend
without branching on their payload.

Worker processes are marked via a pool initializer: code running inside
a worker that asks for a backend gets the serial one, so nested batch
calls (an experiment cell that itself runs an attack loop) cannot
deadlock the pool with pool-inside-pool scheduling.
"""

from __future__ import annotations

import os
import pickle
from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from typing import Any

#: True only inside a pool worker process (set by the pool initializer).
_IN_WORKER = False


def _mark_worker() -> None:
    global _IN_WORKER
    _IN_WORKER = True


def in_worker_process() -> bool:
    """True when running inside a ProcessPoolBackend worker."""
    return _IN_WORKER


def _map_pickled_chunk(fn: Callable[[Any], Any], chunk: bytes) -> list[Any]:
    """Apply ``fn`` to a chunk of items the parent pickled (for pools)."""
    return [fn(item) for item in pickle.loads(chunk)]


class ExecutionBackend(ABC):
    """An ordered map over independent tasks."""

    name: str = "backend"
    workers: int = 1

    @abstractmethod
    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        """Apply ``fn`` to every item, returning results in item order."""

    def close(self) -> None:
        """Release any held resources (idempotent)."""


class SerialBackend(ExecutionBackend):
    """In-process execution; the reference semantics for every backend."""

    name = "serial"
    workers = 1

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        return [fn(item) for item in items]


class ProcessPoolBackend(ExecutionBackend):
    """Fan tasks out over a process pool, preserving order.

    The executor is created lazily and reused across ``map`` calls; call
    :meth:`close` (or let interpreter exit do it) to shut it down.  A
    worker that dies breaks the executor: that ``map`` raises
    ``BrokenProcessPool`` and the executor is dropped, so the next
    ``map`` starts a fresh pool.
    """

    name = "process-pool"

    def __init__(self, workers: int | None = None) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be positive")
        self.workers = workers or default_worker_count()
        self.serial_fallbacks = 0
        self._executor: ProcessPoolExecutor | None = None

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, initializer=_mark_worker
            )
        return self._executor

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list[Any]:
        items = list(items)
        if len(items) <= 1 or in_worker_process():
            return [fn(item) for item in items]
        # Each chunk is pickled once, here, before dispatch: an unpicklable
        # item anywhere in the batch falls back to serial up front, and is
        # never confused with an error ``fn`` raises in a worker.
        size = max(1, len(items) // (self.workers * 4))
        try:
            pickle.dumps(fn)
            chunks = [
                pickle.dumps(items[i : i + size]) for i in range(0, len(items), size)
            ]
        except Exception:
            self.serial_fallbacks += 1
            return [fn(item) for item in items]
        executor = self._ensure_executor()
        try:
            done = executor.map(partial(_map_pickled_chunk, fn), chunks)
            return [result for chunk in done for result in chunk]
        except BrokenProcessPool:
            self.close()
            raise

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None


def default_worker_count() -> int:
    """A sensible pool size: all-but-one core, at least two."""
    return max(2, (os.cpu_count() or 2) - 1)
