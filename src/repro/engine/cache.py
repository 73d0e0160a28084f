"""Content-addressed construction cache for hard-instance ingredients.

Behrend sets, RS-graph constructions, and D_MM instance families are
pure functions of their parameters, yet every experiment used to rebuild
them from scratch — the budget sweep alone reconstructs the same
``scaled_distribution(m=12, k=4)`` once per knob.  The cache keys each
construction by a SHA-256 of its parameter tuple, so a warm cache can
only ever change *timings*, never outputs.

Two tiers:

* an in-memory LRU (bounded by entry count — constructions at laptop
  scale are small), always on unless the cache is disabled;
* an optional on-disk pickle tier under a directory such as
  ``.repro_cache/``, for reuse across processes and runs.  Disk entries
  are written and read through :mod:`repro.engine.framing` (a magic tag
  and a SHA-256 checksum of the pickled payload, renamed into place): a
  truncated, bit-flipped, or otherwise corrupt file can never
  deserialize into a wrong value — it reads as a miss, the construction
  reruns, and the bad entry is overwritten with a good one.

The default cache is process-global and configurable from the CLI
(``--cache-dir``, ``--no-cache``) or environment (``REPRO_CACHE_DIR``,
``REPRO_NO_CACHE``).  Cached objects are shared, not copied: the
pipeline's convention that constructions are frozen once built
(see ``graphs.graph``) is what makes this safe.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Any, TypeVar

from .. import obs
from ..obs import (
    CACHE_BYPASSES,
    CACHE_DISK_HITS,
    CACHE_HITS,
    CACHE_MISSES,
    CACHE_STORES,
)
from .framing import read_framed, write_framed

T = TypeVar("T")

#: Bump to invalidate every existing key (schema/representation changes).
#: v2: graph-bearing constructions are digest-keyed (FrozenGraph CSR
#: serialization) — bumped so digest-keyed entries can never collide
#: with stale pickle/repr-keyed v1 entries on disk.
CACHE_SCHEMA_VERSION = 2

#: Magic of the on-disk frame (see :mod:`repro.engine.framing`) around
#: each pickled entry.  Unframed (pre-checksum) files fail the magic
#: check and read as misses, so the format change needs no schema bump.
_DISK_MAGIC = b"RPROCACHE1\n"


def _render(part: Any) -> str:
    """Render one key part content-completely.

    Objects exposing a ``cache_token`` fingerprint (``FrozenGraph``,
    ``RSGraph``, ``HardDistribution``) are rendered by it — a frozen
    graph contributes its SHA-256 digest, not its (size-only) ``repr``.
    Tuples recurse so fingerprinted objects nest anywhere in the key.
    """
    token = getattr(part, "cache_token", None)
    if isinstance(token, str):
        return f"<{token}>"
    if isinstance(part, tuple):
        return "(" + ",".join(_render(p) for p in part) + ")"
    return repr(part)


def cache_key(parts: tuple) -> str:
    """The content address of a parameter tuple: a stable SHA-256 hex.

    Use only values whose rendering is content-complete: ints, strings,
    floats, tuples thereof, or objects exposing a ``cache_token``
    fingerprint (frozen graphs render as their canonical-bytes digest).
    """
    material = f"{CACHE_SCHEMA_VERSION}:{_render(parts)}"
    return hashlib.sha256(material.encode()).hexdigest()


@dataclass
class CacheStats:
    """Mutable hit/miss counters; snapshot with :meth:`snapshot`."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    stores: int = 0
    bypasses: int = 0

    def snapshot(self) -> tuple[int, int, int, int, int]:
        return (self.hits, self.misses, self.disk_hits, self.stores, self.bypasses)

    def summary(self) -> str:
        """One human line of traffic; ``0 hits / 0 misses`` when untouched."""
        parts = [f"{self.hits} hits", f"{self.misses} misses"]
        if self.disk_hits:
            parts.append(f"{self.disk_hits} disk")
        if self.stores:
            parts.append(f"{self.stores} stored")
        if self.bypasses:
            parts.append(f"{self.bypasses} bypassed")
        return " / ".join(parts)


class ConstructionCache:
    """In-memory LRU plus optional on-disk pickle tier.

    ``get_or_build(parts, builder)`` is the one entry point: it returns
    the cached object for ``parts`` or runs ``builder()`` and stores the
    result.  A disabled cache degrades to calling the builder (counted
    as a bypass), so call sites never branch.
    """

    def __init__(
        self,
        max_entries: int = 256,
        directory: str | os.PathLike | None = None,
        enabled: bool = True,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.directory = Path(directory) if directory is not None else None
        self.enabled = enabled
        self.stats = CacheStats()
        self._memory: OrderedDict[str, Any] = OrderedDict()

    # ------------------------------------------------------------------
    # Core API
    # ------------------------------------------------------------------
    def get_or_build(self, parts: tuple, builder: Callable[[], T]) -> T:
        """The object addressed by ``parts``, building it on first use.

        Every event goes through :meth:`_record`, which keeps the
        legacy ``stats`` counters and emits the telemetry counter of
        the same name — one accounting path, two sinks.
        """
        if not self.enabled:
            self._record("bypasses", CACHE_BYPASSES)
            return builder()
        key = cache_key(parts)
        if key in self._memory:
            self._record("hits", CACHE_HITS)
            self._memory.move_to_end(key)
            return self._memory[key]
        value = self._load_from_disk(key)
        if value is not None:
            self._record("hits", CACHE_HITS)
            self._record("disk_hits", CACHE_DISK_HITS)
            self._remember(key, value)
            return value
        self._record("misses", CACHE_MISSES)
        value = builder()
        self._remember(key, value)
        self._store_to_disk(key, value)
        self._record("stores", CACHE_STORES)
        return value

    def _record(self, stat: str, counter: str) -> None:
        """Bump one ``CacheStats`` field and its telemetry counter."""
        setattr(self.stats, stat, getattr(self.stats, stat) + 1)
        recorder = obs.active()
        if recorder is not None:
            recorder.count(counter)

    def clear(self) -> None:
        """Drop the in-memory tier (disk files are left in place)."""
        self._memory.clear()

    def __len__(self) -> int:
        return len(self._memory)

    # ------------------------------------------------------------------
    # Tiers
    # ------------------------------------------------------------------
    def _remember(self, key: str, value: Any) -> None:
        self._memory[key] = value
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)

    def _disk_path(self, key: str) -> Path | None:
        if self.directory is None:
            return None
        return self.directory / f"{key}.pkl"

    def _load_from_disk(self, key: str) -> Any | None:
        path = self._disk_path(key)
        if path is None:
            return None
        try:
            payload = read_framed(path, _DISK_MAGIC)
        except OSError:
            return None
        if payload is None:
            # Unframed, truncated, bit-rotted or foreign file: a miss,
            # not an error.
            return None
        try:
            return pickle.loads(payload)
        except Exception:
            # A checksum-valid but unloadable payload (e.g. a pickle of a
            # class this build no longer defines) is still just a miss.
            return None

    def _store_to_disk(self, key: str, value: Any) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            write_framed(path, _DISK_MAGIC, payload)
        except (OSError, pickle.PicklingError):
            # Disk tier is best-effort; memory tier already holds the value.
            pass


# ----------------------------------------------------------------------
# Process-global default
# ----------------------------------------------------------------------
_default_cache: ConstructionCache | None = None


def _cache_from_env() -> ConstructionCache:
    disabled = os.environ.get("REPRO_NO_CACHE", "").strip().lower() in ("1", "true", "yes")
    directory = os.environ.get("REPRO_CACHE_DIR") or None
    return ConstructionCache(directory=directory, enabled=not disabled)


def construction_cache() -> ConstructionCache:
    """The process-global default cache (built from the environment once)."""
    global _default_cache
    if _default_cache is None:
        _default_cache = _cache_from_env()
    return _default_cache


def configure_cache(
    directory: str | os.PathLike | None = None,
    enabled: bool = True,
    max_entries: int = 256,
) -> ConstructionCache:
    """Replace the global default cache (CLI flags route through here)."""
    global _default_cache
    _default_cache = ConstructionCache(
        max_entries=max_entries, directory=directory, enabled=enabled
    )
    return _default_cache
