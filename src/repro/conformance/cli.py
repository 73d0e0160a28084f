"""CLI surface of the conformance subsystem.

Wired into ``python -m repro`` as the ``conformance`` subcommand:

    repro conformance run [--seed S] [--budget N] [--layer L ...]
                          [--pair P ...] [--bundle PATH] [--no-shrink]
    repro conformance shrink --bundle PATH [--out PATH]
    repro conformance list

``run`` fuzzes the selected oracle pairs and exits 0 on a clean sweep.
On any failure it writes the replayable JSON repro bundle (default
``conformance_bundle.json``) and exits 1 — CI uploads that file as an
artifact.  ``shrink`` replays a bundle against the live code, re-runs
the greedy minimizer from each original case, and prints the minimal
counterexamples.  ``list`` prints the registry: every oracle pair and
every metamorphic law, with the layers each law covers.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from .fuzz import load_bundle, replay_bundle, run_conformance
from .laws import LAWS
from .oracles import ORACLE_PAIRS

DEFAULT_BUNDLE = "conformance_bundle.json"


def add_conformance_parser(subparsers) -> None:
    """Attach the ``conformance`` subcommand tree to the main parser."""
    parser = subparsers.add_parser(
        "conformance",
        help="fuzz every fast implementation against its reference oracle",
    )
    sub = parser.add_subparsers(dest="conformance_command")

    run_parser = sub.add_parser("run", help="run a deterministic fuzz sweep")
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument(
        "--budget",
        type=int,
        default=200,
        help="total number of cases across all selected pairs",
    )
    run_parser.add_argument(
        "--layer",
        action="append",
        default=None,
        metavar="L",
        help="restrict to a layer (repeatable): codec, graphs, "
        "infotheory, sketches, engine, lemmas",
    )
    run_parser.add_argument(
        "--pair",
        action="append",
        default=None,
        metavar="P",
        help="restrict to a named oracle pair (repeatable)",
    )
    run_parser.add_argument(
        "--bundle",
        default=DEFAULT_BUNDLE,
        metavar="PATH",
        help="where to write the JSON repro bundle on failure",
    )
    run_parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="record failing cases without minimizing them",
    )

    shrink_parser = sub.add_parser(
        "shrink", help="replay and re-minimize a repro bundle"
    )
    shrink_parser.add_argument(
        "--bundle",
        default=DEFAULT_BUNDLE,
        metavar="PATH",
        help="bundle produced by `repro conformance run`",
    )
    shrink_parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the re-shrunk bundle here (default: print only)",
    )

    sub.add_parser("list", help="print registered oracle pairs and laws")


def dispatch(args: argparse.Namespace) -> int:
    """Route a parsed ``conformance`` invocation to its subcommand."""
    command = getattr(args, "conformance_command", None)
    if command == "run":
        return cmd_run(args)
    if command == "shrink":
        return cmd_shrink(args)
    if command == "list":
        return cmd_list()
    print("usage: repro conformance {run,shrink,list} [options]")
    return 2


def cmd_run(args: argparse.Namespace) -> int:
    """Fuzz sweep: 0 on a clean run, 1 (plus a bundle file) on failure."""
    report = run_conformance(
        seed=args.seed,
        budget=args.budget,
        layers=args.layer,
        pair_names=args.pair,
        shrink_failures=not args.no_shrink,
    )
    print(report.render())
    if report.ok:
        return 0
    path = Path(args.bundle)
    path.write_text(json.dumps(report.to_bundle(), indent=1) + "\n")
    print(f"wrote repro bundle to {path}")
    print(f"replay with: repro conformance shrink --bundle {path}")
    return 1


def cmd_shrink(args: argparse.Namespace) -> int:
    """Replay a bundle and print re-minimized counterexamples."""
    bundle = load_bundle(args.bundle)
    recorded = len(bundle.get("failures", []))
    if not recorded:
        print(f"{args.bundle}: no failures recorded; nothing to shrink")
        return 0
    reproduced = replay_bundle(bundle, reshrink=True)
    if not reproduced:
        print(
            f"{args.bundle}: none of the {recorded} recorded failure(s) "
            "reproduce against the live code"
        )
        return 1
    for failure in reproduced:
        laws = ",".join(failure.laws)
        print(f"{failure.pair}/{laws}: minimal case "
              f"({len(failure.shrunk.atoms)} atoms)")
        print(json.dumps(failure.shrunk.to_json(), indent=1))
        for verdict in failure.shrunk_verdicts:
            if not verdict.ok:
                print(f"  {verdict.law}: {verdict.detail}")
    if args.out:
        out = dict(bundle)
        out["failures"] = [f.to_json() for f in reproduced]
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
        print(f"wrote re-shrunk bundle to {args.out}")
    return 0


def cmd_list() -> int:
    """Print every registered oracle pair and metamorphic law."""
    print("oracle pairs:")
    for pair in ORACLE_PAIRS:
        print(f"  {pair.name:11s} [{pair.layer}] {pair.fast}")
        print(f"  {'':11s}   vs {pair.reference}")
    print("metamorphic laws:")
    for law in LAWS:
        layers = ",".join(sorted(law.layers))
        print(f"  {law.name:20s} ({layers}) {law.description}")
    return 0
