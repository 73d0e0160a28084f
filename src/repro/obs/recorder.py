"""Hierarchical spans and typed counters behind one process recorder.

The design constraint is the *disabled* path: instrumentation is wired
permanently into hot paths (the trial loop, the transcript boundary,
the sketch codec, the construction cache), so with no recorder
installed every probe must collapse to one module-global load and an
``is None`` test — no allocation, no context-manager generator, no
string formatting.  :func:`span` returns a shared no-op handle and
:func:`count` returns immediately when telemetry is off.

With a :class:`TelemetryRecorder` installed (``set_recorder`` /
``recording``), probes append :class:`SpanRecord` s — name, attributes,
monotonic start and duration, parent id — and accumulate integer
counters keyed by ``(name, sorted labels)``.  :meth:`TelemetryRecorder.
observe` also keeps one summary entry per key — the exact max and a
log2-bucket histogram of the observed values, accumulated in place —
so a distribution costs one entry, not one series per bucket; it is
read out as a :class:`Summary`.  Counter names must be declared in
:mod:`repro.obs.counters`; the taxonomy check runs only on the enabled
path.

Recorders are process-local.  The engine's serial backend records each
task in place, under the task's span in the caller's recorder.  Work
fanned out to pool workers runs under a fresh worker-local recorder
whose :meth:`TelemetryRecorder.snapshot` travels back with the result;
the parent merges snapshots **in task order** at the barrier
(:meth:`TelemetryRecorder.merge_snapshot`).  Counter totals — integer
sums — and summaries — bucket sums and a max — therefore equal a
serial run's, and span trees do too, because a merge assigns span ids
in span start order, as recording in place does.  Merged span times
are rebased onto a canonical sequential timeline (task i starts where
task i-1 ended), which keeps exported per-track timestamps monotonic
regardless of how the pool actually interleaved the work.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import zip_longest
from typing import NamedTuple

from .counters import COUNTERS

#: Label tuples are ``((key, value), ...)`` sorted by key.
LabelItems = tuple


@dataclass
class SpanRecord:
    """One recorded span: identity, position in the tree, and timing.

    ``start`` is seconds since the owning recorder's monotonic origin;
    ``duration`` is ``-1.0`` while the span is open.
    """

    span_id: int
    parent_id: int | None
    name: str
    attrs: dict
    start: float
    duration: float = -1.0


class Summary(NamedTuple):
    """The exact max and a log2-bucket histogram of one key's values.

    A value ``v >= 0`` lands in bucket ``v.bit_length()``: bucket 0
    holds 0 and bucket ``b >= 1`` holds ``[2**(b-1), 2**b - 1]``, so the
    buckets are fixed.  Like a counter's int, a summary is an immutable
    value, and two summaries of one key merge into a new one by adding
    buckets and taking the larger max.  The recorder accumulates each
    key in place and reads it out as a summary; :meth:`of` and
    :meth:`merged` compute the same values from scratch.
    """

    max: int
    buckets: tuple[int, ...]

    @classmethod
    def of(cls, values: list[int]) -> "Summary":
        """The summary of a non-empty batch of ints ``>= 0``.

        The values are sorted once and each bucket from the smallest
        value's to the largest's is one bisection, so the Python-level
        work grows with the buckets spanned, not with the values.
        """
        values = sorted(values)
        low = values[0].bit_length()
        buckets = [0] * low
        start = 0
        for bucket in range(low, values[-1].bit_length() + 1):
            end = bisect_left(values, 1 << bucket, start)
            buckets.append(end - start)
            start = end
        return cls(values[-1], tuple(buckets))

    def merged(self, other: "Summary") -> "Summary":
        """This summary and another of the same key, combined."""
        buckets = zip_longest(self.buckets, other.buckets, fillvalue=0)
        return Summary(max(self.max, other.max), tuple(map(sum, buckets)))


class _Histogram:
    """One key's :class:`Summary`, accumulated in place.

    A delivery adds its values into the bucket list and raises the max;
    nothing is allocated per delivery once the list is wide enough.
    """

    __slots__ = ("max", "buckets")

    def __init__(self) -> None:
        self.max = 0
        self.buckets: list[int] = []

    def _widen(self, width: int) -> list[int]:
        """The bucket list, padded with zeros to at least ``width``."""
        missing = width - len(self.buckets)
        if missing > 0:
            self.buckets.extend([0] * missing)
        return self.buckets

    def add(self, values: list[int]) -> None:
        """Count each of a non-empty batch of ints ``>= 0``."""
        top = max(values)
        buckets = self._widen(top.bit_length() + 1)
        for value in values:
            buckets[value.bit_length()] += 1
        if top > self.max:
            self.max = top

    def add_summary(self, summary: Summary) -> None:
        """Add another summary of the same key, as :meth:`Summary.merged`."""
        buckets = self._widen(len(summary.buckets))
        for bucket, count in enumerate(summary.buckets):
            buckets[bucket] += count
        if summary.max > self.max:
            self.max = summary.max

    def summary(self) -> Summary:
        return Summary(self.max, tuple(self.buckets))


def bucket_quantile(buckets: list[int], maximum: int, percent: int) -> int:
    """The ``percent``-th percentile of a :class:`Summary`'s values.

    Read as the upper edge ``2**b - 1`` of the bucket holding that rank,
    capped at the exact max: an upper bound on the true percentile.
    Zero for an empty histogram.
    """
    total = sum(buckets)
    rank = max(1, -(-percent * total // 100))
    seen = 0
    for bucket, count in enumerate(buckets):
        seen += count
        if seen >= rank:
            return min((1 << bucket) - 1, maximum)
    return 0


class TelemetryRecorder:
    """Collects spans, counters and summaries for one recording scope."""

    def __init__(self) -> None:
        self._clock = time.perf_counter
        self.origin = self._clock()
        self.spans: list[SpanRecord] = []
        self.counters: dict[tuple[str, LabelItems], int] = {}
        self._histograms: dict[tuple[str, LabelItems], _Histogram] = {}
        self._stack: list[SpanRecord] = []
        self._next_id = 0

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def elapsed(self) -> float:
        """Seconds since this recorder's monotonic origin."""
        return self._clock() - self.origin

    @property
    def current_span_id(self) -> int | None:
        """The innermost open span's id, or None at the root."""
        return self._stack[-1].span_id if self._stack else None

    def start_span(self, name: str, attrs: dict | None = None) -> SpanRecord:
        """Open a span under the current one; pair with :meth:`end_span`."""
        record = SpanRecord(
            span_id=self._next_id,
            parent_id=self.current_span_id,
            name=name,
            attrs=attrs or {},
            start=self.elapsed(),
        )
        self._next_id += 1
        self.spans.append(record)
        self._stack.append(record)
        return record

    def end_span(self, record: SpanRecord) -> None:
        """Close a span (and, defensively, anything left open inside it)."""
        end = self.elapsed()
        while self._stack:
            top = self._stack.pop()
            if top.duration < 0.0:
                top.duration = end - top.start
            if top is record:
                return
        raise ValueError(f"span {record.name!r} is not open")

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    def count(self, name: str, value: int = 1, labels: LabelItems = ()) -> None:
        """Add ``value`` to a declared counter at one label combination."""
        if name not in COUNTERS:
            raise KeyError(
                f"undeclared counter {name!r}; declared: {sorted(COUNTERS)}"
            )
        key = (name, labels)
        self.counters[key] = self.counters.get(key, 0) + value

    def observe(
        self, name: str, values: list[int], labels: LabelItems = ()
    ) -> None:
        """Add a batch of values to a counter and to its summary entry.

        The counter gains their sum, as :meth:`count` would; the key's
        summary entry counts each value in place.  ``values`` must be
        non-empty.
        """
        self.count(name, sum(values), labels)
        self._histogram((name, labels)).add(values)

    def _histogram(self, key: tuple[str, LabelItems]) -> _Histogram:
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = self._histograms[key] = _Histogram()
        return histogram

    @property
    def summaries(self) -> dict[tuple[str, LabelItems], Summary]:
        """Each observed key's :class:`Summary`, as of now."""
        return {key: h.summary() for key, h in self._histograms.items()}

    def totals(self) -> dict[str, int]:
        """Per-name totals, summed over every label combination."""
        out: dict[str, int] = {}
        for (name, _labels), value in self.counters.items():
            out[name] = out.get(name, 0) + value
        return dict(sorted(out.items()))

    def series(self, name: str) -> dict[LabelItems, int]:
        """One counter's per-label values, sorted by label items."""
        rows = {
            labels: value
            for (n, labels), value in self.counters.items()
            if n == name
        }
        return dict(sorted(rows.items(), key=lambda kv: repr(kv[0])))

    # ------------------------------------------------------------------
    # Snapshots: the picklable form that crosses the pool boundary
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """A picklable copy of everything recorded so far.

        Open spans are snapshotted with their duration-so-far, so a
        snapshot taken at the end of a task is always fully closed.
        """
        now = self.elapsed()
        return {
            "spans": [
                (
                    s.span_id,
                    s.parent_id,
                    s.name,
                    dict(s.attrs),
                    s.start,
                    s.duration if s.duration >= 0.0 else now - s.start,
                )
                for s in self.spans
            ],
            "counters": dict(self.counters),
            "summaries": self.summaries,
        }

    def merge_snapshot(
        self,
        snap: dict,
        parent_id: int | None = None,
        time_offset: float | None = None,
    ) -> None:
        """Graft another recorder's snapshot into this one.

        Span ids are remapped past this recorder's id space; root spans
        of the snapshot are attached under ``parent_id`` (default: the
        currently open span); all times shift by ``time_offset``
        (default: now).  Counter totals add — integer sums, so merge
        order cannot change them — and so do summary buckets, whose max
        is the larger one; span order follows the call order, which the
        engine keeps deterministic (task order).
        """
        if parent_id is None:
            parent_id = self.current_span_id
        if time_offset is None:
            time_offset = self.elapsed()
        id_map: dict[int, int] = {}
        for span_id, parent, name, attrs, start, duration in snap["spans"]:
            new_id = self._next_id
            self._next_id += 1
            id_map[span_id] = new_id
            self.spans.append(
                SpanRecord(
                    span_id=new_id,
                    parent_id=id_map.get(parent, parent_id),
                    name=name,
                    attrs=dict(attrs),
                    start=start + time_offset,
                    duration=duration,
                )
            )
        for key, value in snap["counters"].items():
            self.counters[key] = self.counters.get(key, 0) + value
        for key, summary in snap["summaries"].items():
            self._histogram(key).add_summary(summary)


# ----------------------------------------------------------------------
# The process-global recorder and the zero-overhead probe API
# ----------------------------------------------------------------------
_ACTIVE: TelemetryRecorder | None = None


def active() -> TelemetryRecorder | None:
    """The installed recorder, or None when telemetry is disabled."""
    return _ACTIVE


def enabled() -> bool:
    """True when a recorder is installed."""
    return _ACTIVE is not None


def set_recorder(
    recorder: TelemetryRecorder | None,
) -> TelemetryRecorder | None:
    """Install (or, with None, remove) the recorder; returns the previous."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = recorder
    return previous


class _NullSpan:
    """The shared no-op handle the disabled path hands out."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _SpanHandle:
    """Context manager opening one span on a live recorder."""

    __slots__ = ("_recorder", "_name", "_attrs", "_record")

    def __init__(self, recorder: TelemetryRecorder, name: str, attrs: dict):
        self._recorder = recorder
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> SpanRecord:
        self._record = self._recorder.start_span(self._name, self._attrs)
        return self._record

    def __exit__(self, *exc) -> bool:
        self._recorder.end_span(self._record)
        return False


def span(name: str, **attrs):
    """A span context manager — a shared no-op when telemetry is off."""
    recorder = _ACTIVE
    if recorder is None:
        return _NULL_SPAN
    return _SpanHandle(recorder, name, attrs)


def count(name: str, value: int = 1, **labels) -> None:
    """Add to a declared counter — a no-op when telemetry is off."""
    recorder = _ACTIVE
    if recorder is not None:
        recorder.count(name, value, tuple(sorted(labels.items())))


@contextmanager
def recording(recorder: TelemetryRecorder | None = None):
    """Install a (fresh, by default) recorder for the enclosed block.

    The previous recorder is restored on exit, so recordings nest: the
    engine's traced task wrapper uses this to give every task its own
    recorder without disturbing the caller's.
    """
    recorder = recorder if recorder is not None else TelemetryRecorder()
    previous = set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)
