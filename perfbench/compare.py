#!/usr/bin/env python3
"""Compare two benchmark results against the bounds the benchmark fixes.

    python3 perfbench/compare.py BASE.json CANDIDATE.json

Both files are ``harness.py --out`` results.  For every (metric,
workload) pair the script prints a verdict, both medians, and the ratio
with its base:

* ``worse`` — the candidate's median is worse than the base's by more
  than the metric's bound;
* ``better`` — it is better by more than the bound, or the spread is
  wide but every candidate sample beats every base sample;
* ``unresolved`` — the distance between the quartiles of either side,
  as a share of its median, is wider than the bound, and neither side
  wins every sample;
* ``same`` — otherwise.

Bounds come from ``BENCHMARK.json`` (end-to-end metrics) and
``harness.SWEEP_PHASE_BOUNDS`` (the ``sweep_store`` phases).  A workload
whose failed/attempted ratio rose reads ``worse``.  The exit code is 1
when any pair is worse or unresolved.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import harness


def bounds() -> dict[str, tuple[str, float]]:
    """``{metric: (better, bound)}`` for every compared metric."""
    spec = json.loads(harness.BENCHMARK_JSON.read_text())
    table = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    table.update({name: ("lower", b) for name, b in harness.SWEEP_PHASE_BOUNDS.items()})
    return table


def _spread(summary: dict) -> float:
    return (summary["q3"] - summary["q1"]) / summary["median"]


def verdict(base: dict, cand: dict, better: str, bound: float) -> str:
    """The verdict for one pair of metric summaries (see module docs)."""
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (cand["median"] - base["median"]) / base["median"]
    cand_wins = all(sign * c < sign * b for c in cand["values"] for b in base["values"])
    base_wins = all(sign * b < sign * c for c in cand["values"] for b in base["values"])
    if max(_spread(base), _spread(cand)) > bound and not (cand_wins or base_wins):
        return "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -bound or (cand_wins and worsening < 0):
        return "better"
    return "same"


def compare(base: dict, cand: dict) -> list[tuple]:
    """Rows ``(workload, metric, verdict, base, candidate, bound)``."""
    table = bounds()
    rows = []
    for workload, b in base["workloads"].items():
        c = cand["workloads"].get(workload)
        if c is None:
            continue
        for metric, (better, bound) in table.items():
            if metric in b.get("e2e", {}) and metric in c.get("e2e", {}):
                bs, cs = b["e2e"][metric], c["e2e"][metric]
                rows.append((workload, metric, verdict(bs, cs, better, bound),
                             bs["median"], cs["median"], bound))
        b_ratio = b["failed"] / b["attempted"]
        c_ratio = c["failed"] / c["attempted"]
        rows.append((workload, "failed_ratio", "worse" if c_ratio > b_ratio else "same",
                     b_ratio, c_ratio, 0.0))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare.py BASE.json CANDIDATE.json", file=sys.stderr)
        return 2
    base, cand = (json.loads(Path(p).read_text()) for p in argv)
    print(f"base {argv[0]} ({base['fingerprint']['git_rev'][:12]}), "
          f"candidate {argv[1]} ({cand['fingerprint']['git_rev'][:12]})")
    rows = compare(base, cand)
    for workload, metric, result, b, c, bound in rows:
        ratio = f"{c / b:.4f}x of base {b:.6g}" if b else f"base {b:.6g}"
        print(f"{workload:<12} {metric:<14} {result:<10} base {b:<12.6g} "
              f"candidate {c:<12.6g} {ratio} (bound {bound:g})")
    bad = [r for r in rows if r[2] in ("worse", "unresolved")]
    print(f"{len(rows)} pairs: {len(bad)} worse or unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
