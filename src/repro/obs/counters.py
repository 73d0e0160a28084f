"""The typed counter taxonomy: every counter the repo may emit.

The paper's lower bound is an accounting argument — Ω(n²) total
communication bits against the referee — so the counters that matter
are declared up front, with a unit and a stability class, instead of
being ad-hoc strings scattered through call sites.  Recording against
an undeclared name raises immediately (when telemetry is enabled;
the disabled path never looks at the name at all), which keeps the
taxonomy the single source of truth for exporters, docs, and tests.

Stability classes:

* ``stable`` counters are pure functions of the workload: for a fixed
  experiment/seed their totals are bit-identical across backends,
  worker counts, and cache temperature (communication bits, records).
* Unstable counters measure *execution*, not the workload: cache
  traffic depends on what is already warm, and sketch cells are only
  packed when the construction cache misses.  They are still merged
  deterministically (task order), but two runs may legitimately differ.
"""

from __future__ import annotations

from dataclasses import dataclass

# ----------------------------------------------------------------------
# Counter names (import these; never spell the strings at call sites)
# ----------------------------------------------------------------------
#: Communication bits sent by the players of one role (labels: protocol,
#: role, and round for adaptive protocols).  Each key also carries a
#: summary entry: the exact per-player max — the paper's cost measure —
#: and a log2-bucket histogram of the per-player message lengths.
TRANSCRIPT_BITS = "transcript.bits"
#: Messages delivered to the referee (labels: protocol, role [, round]).
TRANSCRIPT_MESSAGES = "transcript.messages"
#: Sketch cells serialized through the packed codec.
SKETCH_CELLS_PACKED = "sketch.cells_packed"
#: Sketch cells unpacked from the wire by the referees (one label
#: column per ``L0Block.accumulate``).
SKETCH_CELLS_UNPACKED = "sketch.cells_unpacked"
#: Bytes of packed sketch payload produced (ceil of bits / 8).
SKETCH_BYTES = "sketch.bytes_serialized"
#: Construction-cache traffic (mirrors ``CacheStats``).
CACHE_HITS = "cache.hits"
CACHE_MISSES = "cache.misses"
CACHE_DISK_HITS = "cache.disk_hits"
CACHE_STORES = "cache.stores"
CACHE_BYPASSES = "cache.bypasses"
#: Bytes written to run-store record files, and records written.
STORE_BYTES = "store.bytes_serialized"
STORE_RECORDS = "store.records"


@dataclass(frozen=True)
class CounterDef:
    """One declared counter: its unit, meaning, and stability class."""

    name: str
    unit: str
    description: str
    stable: bool
    labels: tuple[str, ...] = ()


#: The full taxonomy, keyed by counter name.
COUNTERS: dict[str, CounterDef] = {
    c.name: c
    for c in (
        CounterDef(
            TRANSCRIPT_BITS,
            "bits",
            "communication bits sent by one player role (summary: max, log2 buckets)",
            stable=True,
            labels=("protocol", "role", "round"),
        ),
        CounterDef(
            TRANSCRIPT_MESSAGES,
            "messages",
            "messages delivered to the referee",
            stable=True,
            labels=("protocol", "role", "round"),
        ),
        CounterDef(
            SKETCH_CELLS_PACKED,
            "cells",
            "sketch cells serialized through the packed codec",
            stable=False,
        ),
        CounterDef(
            SKETCH_CELLS_UNPACKED,
            "cells",
            "sketch cells unpacked from the wire by the referees",
            stable=False,
        ),
        CounterDef(
            SKETCH_BYTES,
            "bytes",
            "bytes of packed sketch payload produced",
            stable=False,
        ),
        CounterDef(
            CACHE_HITS, "ops", "construction-cache memory hits", stable=False
        ),
        CounterDef(
            CACHE_MISSES, "ops", "construction-cache misses", stable=False
        ),
        CounterDef(
            CACHE_DISK_HITS, "ops", "construction-cache disk hits", stable=False
        ),
        CounterDef(
            CACHE_STORES, "ops", "construction-cache stores", stable=False
        ),
        CounterDef(
            CACHE_BYPASSES,
            "ops",
            "builds that bypassed a disabled cache",
            stable=False,
        ),
        CounterDef(
            STORE_BYTES,
            "bytes",
            "bytes written to run-store record files (wall-clock digits vary)",
            stable=False,
        ),
        CounterDef(
            STORE_RECORDS, "records", "run records written", stable=True
        ),
    )
}


def counter_def(name: str) -> CounterDef:
    """The declaration of one counter (KeyError lists the taxonomy)."""
    try:
        return COUNTERS[name]
    except KeyError:
        raise KeyError(
            f"undeclared counter {name!r}; declared: {sorted(COUNTERS)}"
        ) from None


def stable_names() -> frozenset[str]:
    """The counters whose totals are pure functions of the workload."""
    return frozenset(name for name, d in COUNTERS.items() if d.stable)
