"""Deterministic fuzz driver: seed streams, greedy shrinking, repro bundles.

``run_conformance(seed, budget, ...)`` spreads a case budget across the
registered oracle pairs (weighted — the engine pair is the only one that
pays process-pool overhead per case), generates every case from the
SHA-256 seed stream ``derive_seed(seed, "conformance", pair, index)``,
and checks each through :meth:`OraclePair.check`.  The run is a pure
function of ``(seed, budget, layer selection)`` — same inputs, same
cases, same verdicts, on any machine.

When a case fails, the driver minimizes it by greedy deletion: it
repeatedly removes blocks of atoms (halves, quarters, … down to single
atoms) and keeps any deletion under which the *same laws* still fail.
Matching on law names keeps the shrinker honest — a candidate that
fails for an unrelated reason (say, a degenerate case crashing
construction) does not count as reproducing the original bug.

Failures are packaged as a replayable JSON *repro bundle*: the original
case, the shrunk case, and the failing verdicts.  ``replay_bundle``
re-runs each recorded case through the live registry, so a bundle
produced by CI can be replayed (and re-shrunk) locally with
``repro conformance shrink --bundle <path>``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from .. import __version__
from .cases import Case
from .oracles import OraclePair, Verdict, all_pairs, get_pair, pairs_for_layers

#: Bundle JSON layout version.
BUNDLE_FORMAT_VERSION = 1


def failed_laws(verdicts) -> tuple[str, ...]:
    """The law names that failed, in verdict order (deduplicated)."""
    seen: list[str] = []
    for verdict in verdicts:
        if not verdict.ok and verdict.law not in seen:
            seen.append(verdict.law)
    return tuple(seen)


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------
def shrink_case(
    pair: OraclePair, case: Case, laws: tuple[str, ...] | None = None
) -> tuple[Case, list[Verdict]]:
    """Greedy-deletion minimization of a failing case.

    Returns the smallest case found (in atom count) that still fails at
    least one of ``laws`` (default: whatever failed on ``case``), plus
    its verdicts.  The result is 1-minimal for deletion: removing any
    single remaining atom no longer reproduces the failure.
    """
    verdicts = pair.check(case)
    if laws is None:
        laws = failed_laws(verdicts)
    if not laws:
        raise ValueError("shrink_case called on a passing case")
    target = set(laws)

    def still_fails(candidate: Case) -> "list[Verdict] | None":
        candidate_verdicts = pair.check(candidate)
        if target & set(failed_laws(candidate_verdicts)):
            return candidate_verdicts
        return None

    best = case
    best_verdicts = verdicts
    shrunk = True
    while shrunk and best.atoms:
        shrunk = False
        block = max(1, len(best.atoms) // 2)
        while block >= 1:
            start = 0
            while start < len(best.atoms):
                atoms = best.atoms[:start] + best.atoms[start + block :]
                candidate = best.replace_atoms(atoms)
                candidate_verdicts = still_fails(candidate)
                if candidate_verdicts is not None:
                    best = candidate
                    best_verdicts = candidate_verdicts
                    shrunk = True
                    # Re-test the same offset: the next block slid into it.
                else:
                    start += block
            block //= 2
    return best, best_verdicts


# ----------------------------------------------------------------------
# Reports and bundles
# ----------------------------------------------------------------------
@dataclass
class Failure:
    """One reproduced conformance failure, with its minimized form."""

    pair: str
    case: Case
    verdicts: list[Verdict]
    shrunk: Case
    shrunk_verdicts: list[Verdict]

    @property
    def laws(self) -> tuple[str, ...]:
        return failed_laws(self.verdicts)

    def to_json(self) -> dict:
        """The bundle record: original case, shrunk case, failing laws."""
        return {
            "pair": self.pair,
            "laws": list(self.laws),
            "case": self.case.to_json(),
            "verdicts": [
                {"law": v.law, "detail": v.detail}
                for v in self.verdicts
                if not v.ok
            ],
            "shrunk_case": self.shrunk.to_json(),
            "shrunk_verdicts": [
                {"law": v.law, "detail": v.detail}
                for v in self.shrunk_verdicts
                if not v.ok
            ],
        }


@dataclass
class PairStats:
    """Per-pair tally of a conformance run."""

    cases: int = 0
    checks: int = 0
    failures: int = 0
    laws: dict[str, int] = field(default_factory=dict)


@dataclass
class ConformanceReport:
    """Everything one ``run_conformance`` invocation produced."""

    seed: int
    budget: int
    stats: dict[str, PairStats]
    failures: list[Failure]
    elapsed: float

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def total_cases(self) -> int:
        return sum(s.cases for s in self.stats.values())

    @property
    def total_checks(self) -> int:
        return sum(s.checks for s in self.stats.values())

    def render(self) -> str:
        """The human-readable sweep summary the CLI prints."""
        lines = [
            f"conformance: seed={self.seed} budget={self.budget} "
            f"({self.total_cases} cases, {self.total_checks} checks, "
            f"{self.elapsed:.2f}s)"
        ]
        for name, stats in sorted(self.stats.items()):
            laws = ", ".join(
                f"{law}×{count}" for law, count in sorted(stats.laws.items())
            )
            status = "ok" if not stats.failures else f"{stats.failures} FAILED"
            lines.append(
                f"  {name:11s} {stats.cases:4d} cases  [{status}]  {laws}"
            )
        for failure in self.failures:
            detail = next(
                (v.detail for v in failure.shrunk_verdicts if not v.ok), ""
            )
            lines.append(
                f"  FAIL {failure.pair}/{','.join(failure.laws)}: shrunk to "
                f"{len(failure.shrunk.atoms)} atoms — {detail}"
            )
        return "\n".join(lines)

    def to_bundle(self) -> dict:
        """The replayable JSON repro bundle of this run."""
        return {
            "version": BUNDLE_FORMAT_VERSION,
            "repro_version": __version__,
            "seed": self.seed,
            "budget": self.budget,
            "total_cases": self.total_cases,
            "total_checks": self.total_checks,
            "ok": self.ok,
            "failures": [f.to_json() for f in self.failures],
        }


def budget_shares(pairs, budget: int) -> dict[str, int]:
    """Split a case budget across pairs proportionally to their weights.

    Every selected pair gets at least one case; remainders go to the
    heaviest-weighted pairs first (deterministically, by name).
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    total_weight = sum(p.weight for p in pairs)
    shares = {
        p.name: max(1, budget * p.weight // total_weight) for p in pairs
    }
    leftover = budget - sum(shares.values())
    for pair in sorted(pairs, key=lambda p: (-p.weight, p.name)):
        if leftover <= 0:
            break
        shares[pair.name] += 1
        leftover -= 1
    return shares


def run_conformance(
    seed: int = 0,
    budget: int = 200,
    layers=None,
    pair_names=None,
    shrink_failures: bool = True,
    max_failures_per_pair: int = 1,
) -> ConformanceReport:
    """Fuzz every selected oracle pair from one deterministic seed stream.

    ``budget`` is the total number of cases across all pairs.  Only the
    first ``max_failures_per_pair`` failures of each pair are shrunk and
    recorded (later cases still run and are tallied) — one minimized
    counterexample per pair is what a human debugs first.
    """
    if pair_names:
        pairs = tuple(get_pair(name) for name in pair_names)
    else:
        pairs = pairs_for_layers(layers)
    shares = budget_shares(pairs, budget)
    stats = {p.name: PairStats() for p in pairs}
    failures: list[Failure] = []
    start = time.perf_counter()
    for pair in pairs:
        pair_stats = stats[pair.name]
        recorded = 0
        for index in range(shares[pair.name]):
            case = pair.case_for(seed, index)
            verdicts = pair.check(case)
            pair_stats.cases += 1
            pair_stats.checks += len(verdicts)
            for verdict in verdicts:
                pair_stats.laws[verdict.law] = (
                    pair_stats.laws.get(verdict.law, 0) + 1
                )
            laws = failed_laws(verdicts)
            if not laws:
                continue
            pair_stats.failures += 1
            if recorded >= max_failures_per_pair:
                continue
            recorded += 1
            if shrink_failures:
                shrunk, shrunk_verdicts = shrink_case(pair, case, laws)
            else:
                shrunk, shrunk_verdicts = case, verdicts
            failures.append(
                Failure(
                    pair=pair.name,
                    case=case,
                    verdicts=verdicts,
                    shrunk=shrunk,
                    shrunk_verdicts=shrunk_verdicts,
                )
            )
    elapsed = time.perf_counter() - start
    return ConformanceReport(
        seed=seed,
        budget=budget,
        stats=stats,
        failures=failures,
        elapsed=elapsed,
    )


# ----------------------------------------------------------------------
# Bundle replay
# ----------------------------------------------------------------------
def load_bundle(path) -> dict:
    """Read and version-check a repro bundle written by ``cmd_run``."""
    bundle = json.loads(Path(path).read_text())
    version = bundle.get("version")
    if version != BUNDLE_FORMAT_VERSION:
        raise ValueError(
            f"bundle format v{version} not supported (expected "
            f"v{BUNDLE_FORMAT_VERSION})"
        )
    return bundle


def replay_bundle(bundle: dict, reshrink: bool = True) -> list[Failure]:
    """Re-run every failure of a bundle; returns those that still fail.

    With ``reshrink`` each reproduced failure is minimized again from
    its *original* case — the live code may fail on a different (often
    smaller) frontier than the code that produced the bundle.
    """
    reproduced: list[Failure] = []
    for record in bundle.get("failures", []):
        case = Case.from_json(record["case"])
        pair = get_pair(case.pair)
        verdicts = pair.check(case)
        laws = failed_laws(verdicts)
        if not laws:
            continue
        if reshrink:
            shrunk, shrunk_verdicts = shrink_case(pair, case, laws)
        else:
            shrunk, shrunk_verdicts = case, verdicts
        reproduced.append(
            Failure(
                pair=pair.name,
                case=case,
                verdicts=verdicts,
                shrunk=shrunk,
                shrunk_verdicts=shrunk_verdicts,
            )
        )
    return reproduced
