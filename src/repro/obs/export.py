"""Exporters: JSONL event log, Chrome trace JSON, and CLI text views.

Three consumers, three renderings of one :class:`~repro.obs.recorder.
TelemetryRecorder`:

* :func:`to_jsonl` — a line-per-event log (meta, spans in record order,
  counters in canonical label order) for downstream tooling;
* :func:`to_chrome_trace` — the Chrome trace-event format, loadable in
  ``chrome://tracing`` / Perfetto.  Spans become complete (``"X"``)
  events on one track with microsecond timestamps forced strictly
  increasing in span order, so viewers never see a zero-width pileup;
  counter totals ride along under the ``"repro.counters"`` key (trace
  viewers ignore unknown top-level keys);
* :func:`render_tree` / :func:`counter_table` / :func:`transcript_table`
  — the aggregated text views the CLI prints: the span tree grouped by
  name path with counts and cumulative wall clock, the per-label counter
  table, and the bits-by-role table (messages, bit sum, max, p50 and
  p99 per protocol × role × round).

:func:`validate_chrome_trace` is the checker the tests and the CI
``obs-smoke`` job share: a trace must round-trip through ``json.loads``
with strictly increasing per-track timestamps.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .counters import COUNTERS, TRANSCRIPT_BITS, TRANSCRIPT_MESSAGES
from .recorder import SpanRecord, TelemetryRecorder, bucket_quantile


def render_labels(labels: tuple) -> str:
    """Canonical text form of one label tuple: ``k=v,k=v`` (may be '')."""
    return ",".join(f"{k}={v}" for k, v in labels)


# ----------------------------------------------------------------------
# JSONL event log
# ----------------------------------------------------------------------
def to_jsonl(recorder: TelemetryRecorder) -> str:
    """The line-per-event log: one meta line, then spans, counters and
    summaries."""
    lines = [
        json.dumps(
            {
                "type": "meta",
                "spans": len(recorder.spans),
                "counters": len(recorder.counters),
                "summaries": len(recorder.summaries),
            }
        )
    ]
    for s in recorder.spans:
        lines.append(
            json.dumps(
                {
                    "type": "span",
                    "id": s.span_id,
                    "parent": s.parent_id,
                    "name": s.name,
                    "attrs": {k: _jsonable(v) for k, v in s.attrs.items()},
                    "start": s.start,
                    "duration": s.duration,
                }
            )
        )
    for (name, labels), value in sorted(
        recorder.counters.items(), key=lambda kv: (kv[0][0], repr(kv[0][1]))
    ):
        lines.append(
            json.dumps(
                {
                    "type": "counter",
                    "name": name,
                    "unit": COUNTERS[name].unit,
                    "labels": {k: _jsonable(v) for k, v in labels},
                    "value": value,
                }
            )
        )
    for (name, labels), summary in sorted(
        recorder.summaries.items(), key=lambda kv: (kv[0][0], repr(kv[0][1]))
    ):
        lines.append(
            json.dumps(
                {
                    "type": "summary",
                    "name": name,
                    "labels": {k: _jsonable(v) for k, v in labels},
                    "max": summary.max,
                    "buckets": summary.buckets,
                }
            )
        )
    return "\n".join(lines) + "\n"


def _jsonable(value: Any) -> Any:
    """Attr/label values as JSON scalars (everything else via str)."""
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)


# ----------------------------------------------------------------------
# Chrome trace-event JSON
# ----------------------------------------------------------------------
def to_chrome_trace(recorder: TelemetryRecorder) -> dict:
    """The trace-event rendering: complete events on one track.

    Events sort by (start, span id) and timestamps are bumped to the
    next microsecond on ties, so every track's ``ts`` sequence is
    strictly increasing — the invariant :func:`validate_chrome_trace`
    checks and trace viewers rely on for stable rendering.
    """
    events = []
    last_ts = -1
    for s in sorted(recorder.spans, key=lambda s: (s.start, s.span_id)):
        ts = max(last_ts + 1, int(round(s.start * 1_000_000)))
        last_ts = ts
        events.append(
            {
                "name": s.name,
                "cat": s.name.split(".", 1)[0],
                "ph": "X",
                "ts": ts,
                "dur": max(int(round(max(s.duration, 0.0) * 1_000_000)), 1),
                "pid": 1,
                "tid": 1,
                "args": {k: _jsonable(v) for k, v in s.attrs.items()},
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "repro.counters": {
            f"{name}{{{render_labels(labels)}}}" if labels else name: value
            for (name, labels), value in sorted(
                recorder.counters.items(), key=lambda kv: (kv[0][0], repr(kv[0][1]))
            )
        },
    }


def write_trace(recorder: TelemetryRecorder, path: str | Path) -> Path:
    """Write a trace file; ``.jsonl`` selects the event log, else Chrome."""
    path = Path(path)
    if path.suffix == ".jsonl":
        path.write_text(to_jsonl(recorder))
    else:
        path.write_text(json.dumps(to_chrome_trace(recorder), indent=1))
    return path


def validate_chrome_trace(source: str | Path) -> dict:
    """Load and check a Chrome trace; returns summary stats.

    Checks the invariants the exporter promises: valid JSON, a
    non-empty ``traceEvents`` list of complete events with the required
    fields, and strictly increasing timestamps per (pid, tid) track.
    Raises ``ValueError`` on the first violation.
    """
    text = str(source)
    if isinstance(source, Path) or not text.lstrip().startswith("{"):
        text = Path(source).read_text()
    trace = json.loads(text)
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise ValueError("trace has no traceEvents")
    last_by_track: dict[tuple, int] = {}
    names = set()
    for event in events:
        for field in ("name", "ph", "ts", "pid", "tid"):
            if field not in event:
                raise ValueError(f"event missing {field!r}: {event!r}")
        if event["ph"] == "X" and event.get("dur", -1) < 0:
            raise ValueError(f"complete event without dur: {event!r}")
        track = (event["pid"], event["tid"])
        if track in last_by_track and event["ts"] <= last_by_track[track]:
            raise ValueError(
                f"timestamps not strictly increasing on track {track}: "
                f"{event['ts']} after {last_by_track[track]}"
            )
        last_by_track[track] = event["ts"]
        names.add(event["name"])
    return {
        "events": len(events),
        "names": sorted(names),
        "tracks": len(last_by_track),
        "counters": dict(trace.get("repro.counters", {})),
    }


# ----------------------------------------------------------------------
# Aggregated text views
# ----------------------------------------------------------------------
def aggregate_spans(spans: list[SpanRecord]) -> list[dict]:
    """The span forest aggregated by name path.

    Spans with the same name under the same (aggregated) parent group
    into one node with a call count and cumulative duration; children
    sort by name, so the tree is deterministic across backends.
    """
    children: dict[int, list[SpanRecord]] = {}
    known = {s.span_id for s in spans}
    roots = []
    for s in spans:
        if s.parent_id is None or s.parent_id not in known:
            roots.append(s)
        else:
            children.setdefault(s.parent_id, []).append(s)

    def group(members: list[SpanRecord]) -> list[dict]:
        by_name: dict[str, list[SpanRecord]] = {}
        for s in members:
            by_name.setdefault(s.name, []).append(s)
        nodes = []
        for name in sorted(by_name):
            ms = by_name[name]
            kids = [c for m in ms for c in children.get(m.span_id, ())]
            nodes.append(
                {
                    "name": name,
                    "count": len(ms),
                    "total": sum(max(m.duration, 0.0) for m in ms),
                    "children": group(kids),
                }
            )
        return nodes

    return group(roots)


def render_tree(recorder: TelemetryRecorder, width: int = 44) -> list[str]:
    """The aggregated span tree as indented text lines."""
    lines = []

    def walk(nodes: list[dict], depth: int) -> None:
        for node in nodes:
            label = "  " * depth + node["name"]
            lines.append(
                f"{label:<{width}} {node['count']:>6}x {node['total'] * 1e3:>10.2f} ms"
            )
            walk(node["children"], depth + 1)

    walk(aggregate_spans(recorder.spans), 0)
    return lines or ["(no spans recorded)"]


def counter_table(recorder: TelemetryRecorder, name: str | None = None) -> list[str]:
    """Aligned per-label counter rows (one counter, or the whole set)."""
    items = [
        (n, labels, value)
        for (n, labels), value in recorder.counters.items()
        if name is None or n == name
    ]
    if not items:
        return ["(no counters recorded)"]
    rows = [
        (n, render_labels(labels) or "-", str(value), COUNTERS[n].unit)
        for n, labels, value in sorted(
            items, key=lambda item: (item[0], repr(item[1]))
        )
    ]
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    return [
        f"{n:<{widths[0]}}  {lab:<{widths[1]}}  {val:>{widths[2]}} {unit}"
        for n, lab, val, unit in rows
    ]


def transcript_rows(recorder: TelemetryRecorder) -> list[list]:
    """The bits-by-role table: one row per summarised transcript key.

    A row is ``[protocol, role, round, messages, bits, max, buckets]``:
    the key's ``transcript.messages`` and ``transcript.bits`` counters
    joined with its summary entry.  ``round`` is None for one-round
    protocols and ``buckets[b]`` counts the messages of bit length b
    (see :class:`~repro.obs.recorder.Summary`).  Rows sort by protocol,
    round, then role.
    """
    rows = []
    for (name, labels), summary in recorder.summaries.items():
        if name != TRANSCRIPT_BITS:
            continue
        fields = dict(labels)
        rows.append(
            [
                fields.get("protocol"),
                fields.get("role"),
                fields.get("round"),
                recorder.counters.get((TRANSCRIPT_MESSAGES, labels), 0),
                recorder.counters[(name, labels)],
                summary.max,
                list(summary.buckets),
            ]
        )
    rows.sort(key=lambda r: (str(r[0]), -1 if r[2] is None else r[2], str(r[1])))
    return rows


def transcript_label(row: list) -> str:
    """``protocol=…,role=…[,round=…]`` of one :func:`transcript_rows` row."""
    protocol, role, round_index = row[:3]
    labels = [("protocol", protocol), ("role", role)]
    if round_index is not None:
        labels.append(("round", round_index))
    return render_labels(labels)


def transcript_values(row: list) -> str:
    """``N msgs, B bits, max M, buckets …`` of one :func:`transcript_rows`
    row: every value it stores, on one line."""
    messages, bits, maximum, buckets = row[3:]
    return (
        f"{messages} msgs, {bits} bits, max {maximum}, "
        f"buckets {','.join(map(str, buckets))}"
    )


def transcript_table(rows: list[list]) -> list[str]:
    """Aligned text of :func:`transcript_rows`: messages, bit sum, max,
    p50 and p99 (bucket upper edges capped at the max) per key."""
    if not rows:
        return []
    table = [("transcript", "messages", "bits", "max", "p50", "p99")]
    for row in rows:
        messages, bits, maximum, buckets = row[3:]
        table.append(
            (
                transcript_label(row),
                str(messages),
                str(bits),
                str(maximum),
                str(bucket_quantile(buckets, maximum, 50)),
                str(bucket_quantile(buckets, maximum, 99)),
            )
        )
    widths = [max(len(row[i]) for row in table) for i in range(6)]
    return [
        "  ".join(
            [row[0].ljust(widths[0])]
            + [cell.rjust(width) for cell, width in zip(row[1:], widths[1:])]
        )
        for row in table
    ]


def telemetry_summary(recorder: TelemetryRecorder, top: int = 8) -> dict:
    """The JSON summary block a :class:`~repro.runs.store.RunRecord`
    persists: per-name totals, the bits-by-role ``transcript`` table
    (:func:`transcript_rows`), per-label ``detail`` for labeled counters
    no table row covers, and the heaviest aggregated span paths.

    Its size depends on the protocols, roles and rounds a run used, not
    on the number of players."""
    flat: list[tuple[str, int, float]] = []

    def walk(nodes: list[dict], path: str) -> None:
        for node in nodes:
            here = f"{path}>{node['name']}" if path else node["name"]
            flat.append((here, node["count"], node["total"]))
            walk(node["children"], here)

    walk(aggregate_spans(recorder.spans), "")
    heaviest = sorted(flat, key=lambda item: (-item[2], item[0]))[:top]
    tabled = {
        labels for name, labels in recorder.summaries if name == TRANSCRIPT_BITS
    }
    return {
        "counters": recorder.totals(),
        "detail": {
            f"{name}{{{render_labels(labels)}}}": value
            for (name, labels), value in sorted(
                recorder.counters.items(), key=lambda kv: (kv[0][0], repr(kv[0][1]))
            )
            if labels
            and not (
                name in (TRANSCRIPT_BITS, TRANSCRIPT_MESSAGES) and labels in tabled
            )
        },
        "transcript": transcript_rows(recorder),
        "span_count": len(recorder.spans),
        "top_spans": [
            [path, count, round(total, 6)] for path, count, total in heaviest
        ],
    }
