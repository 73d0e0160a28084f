"""Report generation and record inspection on top of the run store.

``REPORT.md`` used to be a side effect of re-running every experiment;
now it is a *rendering* of stored records.  :func:`generate_report`
walks the registry in id order, serves each section from the store when
the default-parameter record exists (bit-for-bit the lines the live run
produced, with the recorded wall clock), and executes+stores only the
missing ones.  Regenerating the report is therefore free once the store
is warm, and the document is reproducible from the record files alone.

Each section ends with the verdict of every paper-claim check its
experiment declares, judged on the stored data at render time
(:func:`record_verdicts`): verdicts are never stored, so editing a
check re-judges old records.

The module also renders the ``repro runs`` inspection views: ``list``
(one line per stored record), ``show`` (the full record, verdicts
included), and ``diff`` (params / data / provenance / stable telemetry
drift between two records — the tool for comparing runs across code
versions).
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from .. import __version__
from ..engine import ExecutionEngine
from ..obs import (
    stable_names,
    transcript_label,
    transcript_table,
    transcript_values,
)
from .api import RunOutcome, execute_run
from .spec import canonical_json
from .store import RunRecord, RunStore


def generate_report(
    store: RunStore,
    path: Path | None = None,
    *,
    experiment_ids: Sequence[str] | None = None,
    engine: ExecutionEngine | None = None,
    fresh: bool = False,
) -> tuple[str, list[RunOutcome]]:
    """Render the markdown report from stored default-parameter runs.

    Missing records are executed and stored on the way; ``fresh=True``
    re-executes everything (superseding the stored records).  Returns
    the markdown text and the per-experiment outcomes (so callers can
    report how many sections came from the store).
    """
    from ..experiments import all_experiments, get_experiment

    if experiment_ids:
        experiments = [get_experiment(eid) for eid in experiment_ids]
    else:
        experiments = all_experiments()
    outcomes = [
        execute_run(
            exp.experiment_id, {}, engine=engine, store=store, reuse=not fresh
        )
        for exp in experiments
    ]
    verdicts = [record_verdicts(outcome.record) for outcome in outcomes]
    every = [held for v in verdicts for held in v.values()]
    lines: list[str] = [
        "# Reproduction report (auto-generated)",
        "",
        f"Package version {__version__}; regenerate with `make report`.",
        "",
        f"Paper-claim checks: {sum(every)} of {len(every)} held.",
        "",
        "## Contents",
        "",
    ]
    for exp in experiments:
        anchor = exp.experiment_id.lower().replace(" ", "-")
        lines.append(f"* [{exp.experiment_id} — {exp.title}](#{anchor})")
    lines.append("")
    for exp, outcome, checks in zip(experiments, outcomes, verdicts):
        record = outcome.record
        lines.append(f"## {exp.experiment_id}")
        lines.append("")
        lines.append(
            f"**{exp.title}** — paper reference: {exp.paper_reference}"
        )
        lines.append("")
        lines.append("```text")
        lines.extend(record.lines)
        lines.append("```")
        lines.append("")
        lines.append(f"Checks: {_tally(checks)}.")
        lines.append("")
        lines.extend(f"* `{name}`: {_VERDICT[ok]}" for name, ok in checks.items())
        lines.append("")
        lines.append(f"_(ran in {record.wall_time:.2f}s)_")
        lines.append("")
    text = "\n".join(lines)
    if path is not None:
        Path(path).write_text(text)
    return text, outcomes


def record_verdicts(record: RunRecord) -> dict[str, bool]:
    """Judge the record's declared checks on its stored data and params."""
    from ..experiments import get_experiment

    experiment = get_experiment(record.experiment_id)
    return experiment.verdicts(record.data, record.params)


_VERDICT = {True: "held", False: "FAILED"}


def _tally(verdicts: dict[str, bool]) -> str:
    return f"{sum(verdicts.values())} of {len(verdicts)} held"


def format_records_table(records: Sequence[RunRecord]) -> list[str]:
    """One aligned line per record, for ``repro runs list``."""
    if not records:
        return ["(no stored runs)"]
    rows = [
        (
            r.key[:12],
            r.experiment_id,
            "-" if r.seed is None else str(r.seed),
            "exact" if r.exact else "float",
            r.version,
            f"{r.wall_time:.2f}s",
            r.engine.get("backend", "?"),
        )
        for r in records
    ]
    headers = ("key", "experiment", "seed", "mode", "version", "wall", "backend")
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows))
        for i in range(len(headers))
    ]
    out = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    for row in rows:
        out.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
    return out


def format_record(record: RunRecord) -> list[str]:
    """The full record view, for ``repro runs show``."""
    out = [
        f"key        : {record.key}",
        f"experiment : {record.experiment_id} — {record.title}",
        f"params     : {canonical_json(record.params)}",
        f"seed       : {record.seed}",
        f"exact      : {record.exact}",
        f"engine     : {record.engine.get('backend', '?')}",
        f"version    : {record.version}",
        f"wall time  : {record.wall_time:.3f}s",
        f"cache      : {record.cache_hits} hits / {record.cache_misses} misses",
        f"data       : {canonical_json(record.data)}",
    ]
    verdicts = record_verdicts(record)
    out.append(f"checks     : {_tally(verdicts)}")
    out.extend(f"  {name} = {_VERDICT[ok]}" for name, ok in verdicts.items())
    out.extend(format_telemetry_block(record.telemetry))
    out.append("")
    out.append(record.render())
    return out


def format_telemetry_block(telemetry: dict | None) -> list[str]:
    """The stored telemetry summary as ``repro runs show`` lines.

    Per-name totals first, then the bits-by-role table (messages, bit
    sum, max, p50 and p99 per protocol × role × round), then labeled
    detail rows no table row covers — bits per player, in records
    written before player roles — then the heaviest span paths.  Empty
    for pre-telemetry records.
    """
    if not telemetry:
        return []
    out = ["telemetry  :"]
    for name, value in sorted((telemetry.get("counters") or {}).items()):
        out.append(f"  {name} = {value}")
    out.extend(
        f"    {line}" for line in transcript_table(telemetry.get("transcript") or [])
    )
    detail = telemetry.get("detail") or {}
    for key in sorted(detail):
        out.append(f"    {key} = {detail[key]}")
    spans = telemetry.get("top_spans") or []
    if spans:
        out.append(f"  spans ({telemetry.get('span_count', 0)} total):")
        for path, count, seconds in spans:
            out.append(f"    {path}  x{count}  {seconds:.4f}s")
    return out


def diff_records(a: RunRecord, b: RunRecord) -> list[str]:
    """Field-by-field drift between two records, for ``repro runs diff``.

    Params and top-level data keys are compared value-by-value, then the
    telemetry's stable counter totals and bits-by-role rows; identical
    fields are omitted, and span times and execution counters (cache
    traffic) are never compared, so two runs of the same code and params
    diff to (almost) nothing and a cross-version comparison shows
    exactly what moved.
    """
    out = [f"a: {a.key[:12]} ({a.experiment_id})", f"b: {b.key[:12]} ({b.experiment_id})"]
    for label, left, right in (
        ("experiment", a.experiment_id, b.experiment_id),
        ("version", a.version, b.version),
        ("exact", a.exact, b.exact),
        ("backend", a.engine.get("backend"), b.engine.get("backend")),
    ):
        if left != right:
            out.append(f"{label}: {left!r} -> {right!r}")
    for name in sorted(set(a.params) | set(b.params)):
        left, right = a.params.get(name), b.params.get(name)
        if left != right:
            out.append(f"param {name}: {left!r} -> {right!r}")
    for name in sorted(set(a.data) | set(b.data)):
        left, right = a.data.get(name), b.data.get(name)
        if left != right:
            out.append(
                f"data {name}: {_summarize(left)} -> {_summarize(right)}"
            )
    out.extend(_telemetry_drift(a.telemetry or {}, b.telemetry or {}))
    out.append(f"wall time: {a.wall_time:.3f}s -> {b.wall_time:.3f}s")
    if len(out) == 3 and out[2].startswith("wall time"):
        out.insert(2, "(records agree on params and data)")
    return out


def _telemetry_drift(a: dict, b: dict) -> list[str]:
    """One line per stable counter total and per bits-by-role row that
    differ between two telemetry blocks."""
    out = []
    stable = stable_names()
    left, right = a.get("counters") or {}, b.get("counters") or {}
    for name in sorted((set(left) | set(right)) & stable):
        if left.get(name) != right.get(name):
            out.append(
                f"telemetry {name}: {left.get(name, '-')} -> {right.get(name, '-')}"
            )
    left = {transcript_label(r): r for r in a.get("transcript") or []}
    right = {transcript_label(r): r for r in b.get("transcript") or []}
    for label in sorted(set(left) | set(right)):
        a_row, b_row = left.get(label), right.get(label)
        if a_row != b_row:
            out.append(
                f"transcript {label}: "
                f"{transcript_values(a_row) if a_row else '-'} -> "
                f"{transcript_values(b_row) if b_row else '-'}"
            )
    return out


def _summarize(value) -> str:
    """A short rendering of one data value for diff lines."""
    text = canonical_json(value) if not isinstance(value, str) else value
    return text if len(text) <= 60 else text[:57] + "..."
