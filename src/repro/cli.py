"""Command-line interface for the reproduction.

    python -m repro list                 # all experiments
    python -m repro run T1b [--kw m=16 k=4 trials=10] [--store DIR]
    python -m repro run-all [ID ...] [--store DIR] [--trace PATH]
    python -m repro sweep T1b --grid m=8,12,16 k=2,4 --trials 20
    python -m repro report [--out REPORT.md]
    python -m repro runs list|show|diff  # inspect stored run records
    python -m repro attack sampled:2 --m 12 --k 4 --trials 20
    python -m repro trace T1b [--out trace.json]   # smoke run + telemetry
    python -m repro info                 # package + paper summary

Keyword overrides are parsed as ints when possible, floats next, the
words ``true``/``false``/``none`` as the real Python values, and
strings otherwise; each is then validated against the experiment's
declared parameter spec, so an unknown name (listed against the
declared names) or a mistyped value is a usage error, raised before the
engine is built or anything runs.

``run``, ``run-all``, ``sweep``, ``report``, and ``attack`` take the
shared engine flags: ``--workers N`` (or ``auto``) parallelizes over a
process pool, ``--cache-dir PATH`` persists the construction cache on
disk, and ``--no-cache`` disables caching; without ``--workers`` the
``REPRO_WORKERS`` variable applies, and a malformed value is a usage
error.  Each experiment prints a summary line with its wall clock,
backend policy, and cache traffic.

``run-all`` runs the experiments it names (all of them by default) the
way ``run`` runs one.  With ``--store DIR`` both record every run in a
run store, or serve it from there when it is already stored.  An
unknown experiment id is a usage error, raised before anything runs, and
so is a malformed ``attack`` protocol spec.

``run`` and ``run-all`` additionally accept ``--exact``: runners that
support it (the L33/L34/L35 lemma checkers) then enumerate their joint
distributions in the columnar kernel's Fraction mode.

The runs pipeline (see ``docs/runs.md``):

* ``sweep EXP --grid name=v1,v2 ...`` expands a declared parameter
  grid, content-addresses every point, executes **only the points the
  run store does not already hold** (so a killed sweep resumes where it
  died), records each finished point durably, and prints each point's
  paper-claim check verdicts from its stored record;
* ``report`` renders REPORT.md from stored default-parameter records,
  executing and storing only the missing ones (``--fresh`` re-runs);
* ``runs list`` / ``runs show KEY`` / ``runs diff KEY KEY`` inspect and
  compare stored records — keys may be unique prefixes as printed by
  ``list``.  The store root is ``--store`` / ``$REPRO_RUNS_DIR`` /
  ``.repro_runs``.

Telemetry (see ``docs/observability.md``): ``repro trace EXP`` runs an
experiment at its declared smoke scale under a recorder and prints the
aggregated span tree, the counter table and the bits-by-role table
(``--out`` exports the raw trace); ``run``, ``run-all`` and ``sweep``
take ``--trace PATH`` to export a Chrome trace-event JSON (``.json``,
loadable in Perfetto / chrome://tracing) or a JSONL event log
(``.jsonl``) of the whole invocation.

``repro conformance {run,shrink,list}`` drives the conformance
subsystem: deterministic differential/metamorphic fuzzing of every
fast↔reference oracle pair, with greedy counterexample shrinking and
replayable JSON repro bundles (see ``docs/testing.md``).
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager
from typing import NoReturn

from . import __version__, obs
from .engine import ExecutionEngine
from .experiments import Experiment, all_experiments, get_experiment
from .model import SketchProtocol
from .runs import (
    RunStore,
    build_engine,
    engine_summary,
    execute_run,
    parse_value,
    parse_workers,
    plan_sweep,
    run_sweep,
)
from .runs.report import (
    diff_records,
    format_record,
    format_records_table,
    generate_report,
    record_verdicts,
)


def _parse_kwargs(pairs: list[str]) -> dict:
    """Parse ``key=value`` override pairs into a dict of typed values."""
    out = {}
    for pair in pairs:
        if "=" not in pair:
            _usage_error(f"expected key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        out[key] = parse_value(raw)
    return out


def _parse_grid(pairs: list[str]) -> dict:
    """Parse ``name=v1,v2,...`` grid axes into lists of typed values."""
    grid: dict[str, list] = {}
    for pair in pairs:
        if "=" not in pair:
            _usage_error(f"expected name=v1,v2,..., got {pair!r}")
        name, raw = pair.split("=", 1)
        if name in grid:
            _usage_error(f"duplicate grid axis {name!r}")
        grid[name] = [parse_value(part) for part in raw.split(",") if part]
        if not grid[name]:
            _usage_error(f"empty grid axis {name!r}")
    return grid


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the shared execution-engine flags to a subcommand."""
    parser.add_argument(
        "--workers",
        type=parse_workers,
        default=None,
        help="worker processes: an integer, or 'auto' to size by workload",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="persist the construction cache on disk under PATH",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the construction cache entirely",
    )


def _add_store_flag(
    parser: argparse.ArgumentParser,
    help: str = "run-store root (default: $REPRO_RUNS_DIR or .repro_runs)",
) -> None:
    """Attach the run-store root flag to a subcommand."""
    parser.add_argument("--store", default=None, metavar="DIR", help=help)


#: ``--store`` on ``run`` and ``run-all``, where no flag means no store.
_RUN_STORE_HELP = "record each run in (or serve it from) this run store"


def _add_trace_flag(parser: argparse.ArgumentParser) -> None:
    """Attach the telemetry export flag to a subcommand."""
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record telemetry and export it (.json Chrome trace, .jsonl events)",
    )


@contextmanager
def _tracing(path: str | None):
    """Record the wrapped command's telemetry and export it to ``path``.

    A no-op when no ``--trace`` path was given, so untraced commands
    keep the null-recorder fast path.
    """
    if path is None:
        yield
        return
    from .obs import TelemetryRecorder, recording, write_trace

    with recording(TelemetryRecorder()) as recorder:
        yield
    written = write_trace(recorder, path)
    print(
        f"(trace: {len(recorder.spans)} spans, "
        f"{len(recorder.counters)} counter series -> {written})"
    )


def _usage_error(message: str) -> NoReturn:
    """Exit 2 with one ``repro: error:`` line on stderr, no traceback."""
    sys.stderr.write(f"repro: error: {message}\n")
    raise SystemExit(2)


def _build_engine(args: argparse.Namespace) -> ExecutionEngine:
    """Build the engine the flags describe and install it as the default.

    A malformed ``REPRO_WORKERS`` (read when ``--workers`` is absent) is
    a usage error.
    """
    try:
        return build_engine(
            workers=getattr(args, "workers", None),
            cache_dir=getattr(args, "cache_dir", None),
            no_cache=getattr(args, "no_cache", False),
        )
    except ValueError as exc:
        _usage_error(str(exc))


def _check_overrides(experiment: Experiment, overrides: dict) -> None:
    """Check command-line overrides against the experiment's declared spec.

    An unknown name, a mistyped value, or any value for an ``object``
    param (a Python object such as C31's ``configs``, which no command
    line can spell) is a usage error, raised before the engine is built
    or anything runs.
    """
    spec = experiment.spec
    try:
        spec.validate(overrides)
    except ValueError as exc:
        _usage_error(f"{experiment.experiment_id}: {exc}")
    for name in overrides:
        if spec.param(name).kind == "object":
            _usage_error(
                f"{experiment.experiment_id}: param {name!r} takes a Python "
                "object, not a command-line value"
            )


def _experiments(ids: list[str]) -> list[Experiment]:
    """The experiments ``ids`` name, every one when ``ids`` is empty.

    An unknown id is a usage error listing the known ids, raised before
    any experiment runs.
    """
    try:
        return [get_experiment(i) for i in ids] if ids else all_experiments()
    except KeyError as exc:
        _usage_error(exc.args[0])


def _run_experiment(
    experiment: Experiment,
    overrides: dict,
    engine: ExecutionEngine,
    exact: bool,
    store: RunStore | None,
    as_json: bool = False,
    tag: str = "",
) -> None:
    """Run one experiment and print its report, then a summary line.

    With a store the run goes through ``execute_run``: it is recorded,
    or served from the store when already there.  Without one the
    experiment runs in memory, under the ``run`` span ``execute_run``
    opens, so a ``--trace`` holds one ``run`` span per experiment either
    way.  ``as_json`` prints the structured data dict instead of the
    report; ``tag`` prefixes the summary line.
    """
    if store is not None:
        outcome = execute_run(
            experiment.experiment_id, overrides, engine=engine, exact=exact,
            store=store,
        )
        report = outcome.record
        origin = "stored record" if outcome.cached else "recorded"
        summary = (
            f"({origin} {report.key[:12]}; ran in {report.wall_time:.2f}s; "
            f"backend {report.engine.get('backend', '?')}; cache "
            f"{report.cache_hits} hits / {report.cache_misses} misses)"
        )
    else:
        before = engine.cache.stats.snapshot()
        start = time.time()
        with obs.span("run", experiment=experiment.experiment_id):
            report = experiment.run(engine=engine, exact=exact, **overrides)
        summary = engine_summary(engine, time.time() - start, before)
    if as_json:
        import json

        print(json.dumps(
            {"experiment": report.experiment_id, "title": report.title,
             "data": report.data},
            indent=2, default=str,
        ))
        return
    print(report.render())
    print()
    print(tag + summary)


def cmd_list() -> int:
    """Print every registered experiment with its sweepable axes."""
    for exp in all_experiments():
        axes = ",".join(exp.spec.sweepable_names()) or "-"
        print(
            f"{exp.experiment_id:7s} {exp.title}  "
            f"[{exp.paper_reference}]  (axes: {axes})"
        )
    return 0


def cmd_run(args: argparse.Namespace, experiment: Experiment) -> int:
    """Run one experiment with keyword overrides and print its report.

    With ``--json`` the structured data dict is printed instead of the
    rendered tables — for downstream plotting pipelines.  With a store
    the run is recorded (or served from the store when already present).
    """
    overrides = _parse_kwargs(args.kw)
    _check_overrides(experiment, overrides)
    store = RunStore(args.store) if args.store is not None else None
    _run_experiment(
        experiment, overrides, _build_engine(args), args.exact, store, args.json
    )
    return 0


def cmd_run_all(args: argparse.Namespace, experiments: list[Experiment]) -> int:
    """Run the selected experiments in order, each as ``run`` would."""
    engine = _build_engine(args)
    store = RunStore(args.store) if args.store is not None else None
    for exp in experiments:
        _run_experiment(
            exp, {}, engine, args.exact, store, tag=f"[{exp.experiment_id}] "
        )
    return 0


def cmd_sweep(args: argparse.Namespace, experiment: Experiment) -> int:
    """Expand a parameter grid, execute the missing points, record them.

    Prints one line per point: its axis values and how many of the
    experiment's paper-claim checks held on the stored record, naming
    any that failed (``not run`` for points ``--max-points`` deferred).
    """
    grid = _parse_grid(args.grid)
    base = _parse_kwargs(args.set or [])
    if args.trials is not None:
        if "trials" in base or "trials" in grid:
            _usage_error("--trials conflicts with a trials axis/--set")
        base["trials"] = args.trials
    _check_overrides(experiment, base)
    try:
        plan_sweep(args.experiment_id, grid, base, exact=args.exact)
    except ValueError as exc:
        _usage_error(f"{args.experiment_id}: {exc}")
    store = RunStore(args.store)
    engine = _build_engine(args)
    result = run_sweep(
        args.experiment_id,
        grid,
        base,
        store=store,
        engine=engine,
        exact=args.exact,
        max_points=args.max_points,
    )
    axes = " ".join(f"{k}={','.join(map(str, v))}" for k, v in sorted(grid.items()))
    print(f"sweep {args.experiment_id}: {len(result.points)} points (grid {axes})")
    for point in result.points:
        where = " ".join(f"{name}={point.overrides[name]}" for name in sorted(grid))
        record = store.get(point.key)
        if record is None:
            print(f"  {where}: not run")
            continue
        verdicts = record_verdicts(record)
        failed = [name for name, held in verdicts.items() if not held]
        line = f"  {where}: {sum(verdicts.values())} of {len(verdicts)} held"
        print(line + (f"; FAILED {', '.join(failed)}" if failed else ""))
    print(
        f"{result.summary()} (ran in {result.wall_time:.2f}s; "
        f"backend {engine.describe()})"
    )
    print(f"store: {store.root} ({len(store)} records)")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Render REPORT.md from stored records, executing only missing runs."""
    store = RunStore(args.store)
    engine = _build_engine(args)
    text, outcomes = generate_report(
        store,
        args.out,
        experiment_ids=args.experiments or None,
        engine=engine,
        fresh=args.fresh,
    )
    executed = sum(1 for o in outcomes if o.executed)
    reused = len(outcomes) - executed
    print(
        f"wrote {args.out} ({len(outcomes)} sections; {reused} from store, "
        f"{executed} executed)"
    )
    return 0


def cmd_runs(args: argparse.Namespace) -> int:
    """Inspect the run store: list records, show one, or diff two."""
    store = RunStore(args.store)
    if args.runs_command == "list":
        for line in format_records_table(store.records(args.experiment)):
            print(line)
        return 0
    if args.runs_command == "show":
        record = store.get(store.resolve_key(args.key))
        for line in format_record(record):
            print(line)
        return 0
    if args.runs_command == "diff":
        a = store.get(store.resolve_key(args.key_a))
        b = store.get(store.resolve_key(args.key_b))
        for line in diff_records(a, b):
            print(line)
        return 0
    raise SystemExit(f"unknown runs command {args.runs_command!r}")


def _protocol(spec: str) -> SketchProtocol:
    """The protocol ``spec`` names; a malformed spec is a usage error."""
    from .protocols import make_protocol

    try:
        return make_protocol(spec)
    except ValueError as exc:
        _usage_error(str(exc))


def cmd_attack(args: argparse.Namespace, protocol: SketchProtocol) -> int:
    """Run one named protocol against D_MM and print the attack summary."""
    from .lowerbound import (
        attack_with_matching_protocol,
        attack_with_mis_protocol,
        proof_chain_bound,
        scaled_distribution,
    )
    from .protocols import is_mis_spec

    m, k, trials = args.m, args.k, args.trials
    engine = _build_engine(args)
    before = engine.cache.stats.snapshot()
    start = time.time()
    hard = scaled_distribution(m=m, k=k)
    attack = (
        attack_with_mis_protocol if is_mis_spec(args.spec)
        else attack_with_matching_protocol
    )
    result = attack(hard, protocol, trials=trials, seed=args.seed, engine=engine)
    elapsed = time.time() - start
    chain = proof_chain_bound(hard)
    print(f"distribution : m={m}, k={k} -> N={hard.N}, r={hard.r}, t={hard.t}, n={hard.n}")
    print(f"protocol     : {protocol.name}")
    print(f"trials       : {trials}")
    print(f"max bits     : {result.max_bits} (avg {result.mean_bits:.1f}; "
          f"proof-chain LB {chain.required_bits:.3f})")
    print(f"strict       : {result.strict_success_rate:.2f}")
    print(f"relaxed      : {result.relaxed_success_rate:.2f}")
    print(f"mean UU edges: {result.mean_unique_unique:.2f} (kr/4 = {hard.claim31_threshold})")
    print(engine_summary(engine, elapsed, before))
    return 0


def cmd_trace(args: argparse.Namespace, experiment: Experiment) -> int:
    """Run one experiment at smoke scale under telemetry and show the trace.

    Smoke overrides come from the experiment's declared spec (the same
    parameterization CI uses), with ``--kw`` merged on top; the command
    prints the aggregated span tree, the counter table, and the
    bits-by-role table (messages, bit sum, max, p50, p99 per protocol ×
    role × round), and ``--out`` additionally exports the raw trace
    (Chrome JSON or JSONL by suffix).
    """
    from .obs import (
        TelemetryRecorder,
        counter_table,
        recording,
        render_tree,
        transcript_rows,
        transcript_table,
        write_trace,
    )

    kw = _parse_kwargs(args.kw)
    _check_overrides(experiment, kw)
    overrides = {**experiment.spec.smoke, **kw}
    engine = _build_engine(args)
    start = time.time()
    with recording(TelemetryRecorder()) as recorder:
        report = experiment.run(engine=engine, exact=args.exact, **overrides)
    elapsed = time.time() - start
    print(f"[{experiment.experiment_id}] {report.title} (traced, {elapsed:.2f}s)")
    print()
    for line in render_tree(recorder):
        print(line)
    print()
    for line in counter_table(recorder):
        print(line)
    table = transcript_table(transcript_rows(recorder))
    if table:
        print()
        for line in table:
            print(line)
    if args.out is not None:
        written = write_trace(recorder, args.out)
        print()
        print(f"trace written to {written}")
    return 0


def cmd_info() -> int:
    """Print the package / paper summary."""
    print(f"repro {__version__}")
    print(
        "Reproduction of Assadi-Kol-Oshman (PODC 2020): 'Lower Bounds for "
        "Distributed Sketching of Maximal Matchings and Maximal "
        "Independent Sets'."
    )
    print(f"{len(all_experiments())} registered experiments; see DESIGN.md.")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list experiments")
    run_parser = sub.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment_id")
    run_parser.add_argument(
        "--kw", nargs="*", default=[], help="key=value experiment overrides"
    )
    run_parser.add_argument(
        "--json", action="store_true", help="print structured data as JSON"
    )
    run_parser.add_argument(
        "--exact",
        action="store_true",
        help="Fraction-backed probabilities for runners that support it",
    )
    _add_store_flag(run_parser, help=_RUN_STORE_HELP)
    _add_trace_flag(run_parser)
    _add_engine_flags(run_parser)
    run_all_parser = sub.add_parser(
        "run-all", help="run every experiment, or the ones named"
    )
    run_all_parser.add_argument(
        "experiments", nargs="*", help="experiment ids (default: all)"
    )
    run_all_parser.add_argument(
        "--exact",
        action="store_true",
        help="Fraction-backed probabilities for runners that support it",
    )
    _add_store_flag(run_all_parser, help=_RUN_STORE_HELP)
    _add_trace_flag(run_all_parser)
    _add_engine_flags(run_all_parser)
    sweep_parser = sub.add_parser(
        "sweep", help="run a resumable parameter grid through the store"
    )
    sweep_parser.add_argument("experiment_id")
    sweep_parser.add_argument(
        "--grid",
        nargs="+",
        required=True,
        metavar="NAME=V1,V2",
        help="sweep axes over declared sweepable params",
    )
    sweep_parser.add_argument(
        "--set",
        nargs="*",
        default=[],
        metavar="KEY=VALUE",
        help="fixed overrides shared by every point",
    )
    sweep_parser.add_argument(
        "--trials", type=int, default=None, help="shorthand for --set trials=N"
    )
    sweep_parser.add_argument(
        "--exact", action="store_true", help="Fraction mode where supported"
    )
    sweep_parser.add_argument(
        "--max-points",
        type=int,
        default=None,
        help="execute at most N pending points (checkpoint/CI knob)",
    )
    _add_store_flag(sweep_parser)
    _add_trace_flag(sweep_parser)
    _add_engine_flags(sweep_parser)
    trace_parser = sub.add_parser(
        "trace", help="run one experiment at smoke scale and show its trace"
    )
    trace_parser.add_argument("experiment_id")
    trace_parser.add_argument(
        "--kw", nargs="*", default=[], help="key=value overrides on smoke params"
    )
    trace_parser.add_argument(
        "--exact", action="store_true", help="Fraction mode where supported"
    )
    trace_parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="also export the trace (.json Chrome trace, .jsonl events)",
    )
    _add_engine_flags(trace_parser)
    report_parser = sub.add_parser(
        "report", help="render REPORT.md from stored run records"
    )
    report_parser.add_argument(
        "experiments", nargs="*", help="experiment ids (default: all)"
    )
    report_parser.add_argument(
        "--out", default="REPORT.md", help="output markdown path"
    )
    report_parser.add_argument(
        "--fresh",
        action="store_true",
        help="re-execute every section instead of reusing stored records",
    )
    _add_store_flag(report_parser)
    _add_engine_flags(report_parser)
    runs_parser = sub.add_parser("runs", help="inspect stored run records")
    runs_sub = runs_parser.add_subparsers(dest="runs_command")
    runs_list = runs_sub.add_parser("list", help="list stored records")
    runs_list.add_argument(
        "experiment", nargs="?", default=None, help="restrict to one experiment"
    )
    _add_store_flag(runs_list)
    runs_show = runs_sub.add_parser("show", help="show one record in full")
    runs_show.add_argument("key", help="record key (unique prefix ok)")
    _add_store_flag(runs_show)
    runs_diff = runs_sub.add_parser("diff", help="diff two records")
    runs_diff.add_argument("key_a", help="first record key (prefix ok)")
    runs_diff.add_argument("key_b", help="second record key (prefix ok)")
    _add_store_flag(runs_diff)
    attack_parser = sub.add_parser("attack", help="attack D_MM with a named protocol")
    attack_parser.add_argument("spec", help="protocol spec, e.g. sampled:2 or mis-full")
    attack_parser.add_argument("--m", type=int, default=12)
    attack_parser.add_argument("--k", type=int, default=4)
    attack_parser.add_argument("--trials", type=int, default=20)
    attack_parser.add_argument("--seed", type=int, default=0)
    _add_engine_flags(attack_parser)
    sub.add_parser("info", help="package summary")
    from .conformance.cli import add_conformance_parser

    add_conformance_parser(sub)

    args = parser.parse_args(argv)
    if args.command == "list":
        return cmd_list()
    if args.command == "run":
        (experiment,) = _experiments([args.experiment_id])
        with _tracing(args.trace):
            return cmd_run(args, experiment)
    if args.command == "run-all":
        experiments = _experiments(args.experiments)
        with _tracing(args.trace):
            return cmd_run_all(args, experiments)
    if args.command == "sweep":
        (experiment,) = _experiments([args.experiment_id])
        with _tracing(args.trace):
            return cmd_sweep(args, experiment)
    if args.command == "trace":
        (experiment,) = _experiments([args.experiment_id])
        return cmd_trace(args, experiment)
    if args.command == "report":
        _experiments(args.experiments)
        return cmd_report(args)
    if args.command == "runs":
        if args.runs_command is None:
            runs_parser.print_help()
            return 2
        return cmd_runs(args)
    if args.command == "attack":
        return cmd_attack(args, _protocol(args.spec))
    if args.command == "info":
        return cmd_info()
    if args.command == "conformance":
        from .conformance.cli import dispatch

        return dispatch(args)
    parser.print_help()
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
