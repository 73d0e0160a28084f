"""Execution engine: batched, parallel, cache-aware protocol runs.

Infrastructure layer depending only on :mod:`repro.obs` (telemetry) —
``model``, ``lowerbound``, and ``experiments`` all sit on top of it.
See ``docs/engine.md`` for the backend, determinism, and cache-key
contracts, and ``docs/observability.md`` for how batches are traced
and merged.
"""

from .backends import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    default_worker_count,
    in_worker_process,
)
from .cache import (
    CacheStats,
    ConstructionCache,
    cache_key,
    configure_cache,
    construction_cache,
)
from .core import (
    AUTO_PARALLEL_THRESHOLD,
    ExecutionEngine,
    default_engine,
    parse_worker_setting,
    resolve_engine,
    set_default_engine,
    workers_from_env,
)
from .seeds import derive_seed

__all__ = [
    "AUTO_PARALLEL_THRESHOLD",
    "CacheStats",
    "ConstructionCache",
    "ExecutionBackend",
    "ExecutionEngine",
    "ProcessPoolBackend",
    "SerialBackend",
    "cache_key",
    "configure_cache",
    "construction_cache",
    "default_engine",
    "default_worker_count",
    "derive_seed",
    "in_worker_process",
    "parse_worker_setting",
    "resolve_engine",
    "set_default_engine",
    "workers_from_env",
]
