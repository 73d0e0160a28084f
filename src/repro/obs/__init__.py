"""Telemetry: hierarchical spans, typed counters, and trace export.

The measurement substrate for the repo's accounting-first mindset: the
paper's lower bound is a statement about *where bits go*, and this
package makes bits, cache traffic, and wall clock first-class outputs
of every run.

* :mod:`~repro.obs.recorder` — the span/counter/summary recorder and
  the zero-overhead probe API (:func:`span`, :func:`count`) that stays
  permanently wired into hot paths;
* :mod:`~repro.obs.counters` — the typed counter taxonomy (declared
  names, units, stability classes);
* :mod:`~repro.obs.export` — JSONL, Chrome trace-event, and CLI text
  exporters plus the trace validator.

Depends on nothing else in the package (``engine`` sits on top of it),
so any layer may import it without cycles.  See
``docs/observability.md`` for the recorder model and counter taxonomy.
"""

from .counters import (
    CACHE_BYPASSES,
    CACHE_DISK_HITS,
    CACHE_HITS,
    CACHE_MISSES,
    CACHE_STORES,
    COUNTERS,
    SKETCH_BYTES,
    SKETCH_CELLS_PACKED,
    SKETCH_CELLS_UNPACKED,
    STORE_BYTES,
    STORE_RECORDS,
    TRANSCRIPT_BITS,
    TRANSCRIPT_MESSAGES,
    CounterDef,
    counter_def,
    stable_names,
)
from .export import (
    aggregate_spans,
    counter_table,
    render_labels,
    render_tree,
    telemetry_summary,
    to_chrome_trace,
    to_jsonl,
    transcript_label,
    transcript_rows,
    transcript_table,
    transcript_values,
    validate_chrome_trace,
    write_trace,
)
from .recorder import (
    SpanRecord,
    Summary,
    TelemetryRecorder,
    bucket_quantile,
    active,
    count,
    enabled,
    recording,
    set_recorder,
    span,
)

__all__ = [
    "CACHE_BYPASSES",
    "CACHE_DISK_HITS",
    "CACHE_HITS",
    "CACHE_MISSES",
    "CACHE_STORES",
    "COUNTERS",
    "CounterDef",
    "SKETCH_BYTES",
    "SKETCH_CELLS_PACKED",
    "SKETCH_CELLS_UNPACKED",
    "STORE_BYTES",
    "STORE_RECORDS",
    "SpanRecord",
    "Summary",
    "TRANSCRIPT_BITS",
    "TRANSCRIPT_MESSAGES",
    "TelemetryRecorder",
    "active",
    "aggregate_spans",
    "bucket_quantile",
    "count",
    "counter_def",
    "counter_table",
    "enabled",
    "recording",
    "render_labels",
    "render_tree",
    "set_recorder",
    "span",
    "stable_names",
    "telemetry_summary",
    "to_chrome_trace",
    "to_jsonl",
    "transcript_label",
    "transcript_rows",
    "transcript_table",
    "transcript_values",
    "validate_chrome_trace",
    "write_trace",
]
