"""The declarative run pipeline: typed specs, durable records, sweeps.

Layered on the experiment registry, this package turns experiment
execution from "call a function, read the printout" into a declarative,
durable pipeline:

* :mod:`~repro.runs.spec` — :class:`ParamSpec` / :class:`ExperimentSpec`
  parameter declarations and the :func:`run_key` content address;
* :mod:`~repro.runs.store` — the :class:`RunStore` of
  :class:`RunRecord` s, one checksum-framed file per run key;
* :mod:`~repro.runs.api` — the public dispatch surface
  (:func:`execute_run`, engine-flag helpers);
* :mod:`~repro.runs.sweep` — grid expansion and the resumable
  :func:`run_sweep` orchestrator;
* :mod:`~repro.runs.report` — REPORT.md generation and record
  inspection (``list`` / ``show`` / ``diff``) from stored records, with
  each experiment's paper-claim checks judged on the stored data.

See ``docs/runs.md`` for the spec schema, store layout, and resume
semantics.
"""

from .api import (
    RunOutcome,
    build_engine,
    engine_summary,
    ensure_json_data,
    execute_run,
    parse_workers,
)
from .report import (
    diff_records,
    format_record,
    format_records_table,
    generate_report,
    record_verdicts,
)
from .spec import (
    PARAM_KINDS,
    ExperimentSpec,
    ParamSpec,
    canonical_json,
    canonical_params,
    parse_value,
    run_key,
)
from .store import RunRecord, RunStore, default_store_root
from .sweep import SweepPoint, SweepResult, expand_grid, plan_sweep, run_sweep

__all__ = [
    "PARAM_KINDS",
    "ExperimentSpec",
    "ParamSpec",
    "RunOutcome",
    "RunRecord",
    "RunStore",
    "SweepPoint",
    "SweepResult",
    "build_engine",
    "canonical_json",
    "canonical_params",
    "default_store_root",
    "diff_records",
    "engine_summary",
    "ensure_json_data",
    "execute_run",
    "expand_grid",
    "format_record",
    "format_records_table",
    "generate_report",
    "parse_value",
    "parse_workers",
    "plan_sweep",
    "record_verdicts",
    "run_key",
    "run_sweep",
]
