"""Experiment STAB: seed stability of the headline conclusions.

Every Monte-Carlo experiment fixes seeds for reproducibility; this one
checks the conclusions are not seed artifacts.  Three headline claims
are re-derived under several independent seeds, and the table reports
the per-seed values with their spread:

* T1b's threshold shape — zero-budget failure and full-budget success;
* C31's regime split — in-regime holds-rate minus below-regime rate;
* T2's reduction — exact recovery by the correct MIS protocol.

Each seed's cell is an independent work unit, so the engine fans the
seeds out across its backend; within a cell every sub-experiment
derives its own hash-based seed stream, so the row for seed ``s`` is a
pure function of ``s`` regardless of scheduling.
"""

from __future__ import annotations

import random

from ..engine import ExecutionEngine, derive_seed, resolve_engine
from ..lowerbound import (
    attack_with_matching_protocol,
    micro_distribution,
    min_unique_unique_edges,
    run_reduction,
    sample_dmm,
    scaled_distribution,
)
from ..model import PublicCoins
from ..protocols import FullNeighborhoodMIS, SampledEdgesMatching
from ..runs.spec import ParamSpec
from .registry import register
from .tables import render_rows


def _stability_cell(item: tuple) -> dict:
    """Re-derive every headline conclusion at one seed (module-level so
    process pools can run whole cells in parallel; inner loops stay
    serial inside the worker)."""
    seed, trials = item
    hard = scaled_distribution(m=12, k=4)
    zero = attack_with_matching_protocol(
        hard, SampledEdgesMatching(0), trials=trials, seed=seed
    ).strict_success_rate
    full = attack_with_matching_protocol(
        hard, SampledEdgesMatching(hard.n), trials=trials, seed=seed
    ).strict_success_rate

    # C31 regime split at this seed.
    below = scaled_distribution(m=10, k=3)
    in_regime = micro_distribution(r=2, t=2, k=30)
    below_rate = sum(
        min_unique_unique_edges(
            sample_dmm(below, random.Random(derive_seed(seed, "stab-below", t))),
            heuristic_trials=3,
        )
        >= below.claim31_threshold
        for t in range(trials)
    ) / trials
    in_rate = sum(
        min_unique_unique_edges(
            sample_dmm(in_regime, random.Random(derive_seed(seed, "stab-in", t))),
            heuristic_trials=3,
        )
        >= in_regime.claim31_threshold
        for t in range(trials)
    ) / trials

    # T2 exact recovery at this seed.
    reduction_hard = scaled_distribution(m=8, k=2)
    reduction_trials = max(3, trials // 2)
    recoveries = sum(
        run_reduction(
            sample_dmm(
                reduction_hard,
                random.Random(derive_seed(seed, "stab-reduction", t)),
            ),
            FullNeighborhoodMIS(),
            PublicCoins(derive_seed(seed, "stab-reduction-coins", t)),
        ).output_is_exactly_survivors
        for t in range(reduction_trials)
    ) / reduction_trials

    return {
        "seed": seed,
        "t1b_zero_budget": zero,
        "t1b_full_budget": full,
        "c31_below_rate": below_rate,
        "c31_in_rate": in_rate,
        "t2_recovery": recoveries,
    }


@register(
    "STAB",
    "Seed stability of the headline conclusions",
    "methodology",
    params=(
        ParamSpec("seeds", "int_list", None, help="independent seeds rerun"),
        ParamSpec("trials", "int", 10, help="trials per seed"),
    ),
    smoke={"seeds": [1, 2], "trials": 4},
    # Each headline conclusion holds at every seed.
    checks={
        "t1b_zero_budget_fails": lambda d, p: all(
            row["t1b_zero_budget"] <= 0.2 for row in d["rows"]
        ),
        "t1b_full_budget_succeeds": lambda d, p: all(
            row["t1b_full_budget"] == 1.0 for row in d["rows"]
        ),
        "c31_holds_in_regime": lambda d, p: all(
            row["c31_in_rate"] >= 0.8 for row in d["rows"]
        ),
        "c31_regime_gap": lambda d, p: all(
            row["c31_below_rate"] <= row["c31_in_rate"] - 0.5 for row in d["rows"]
        ),
        "t2_full_mis_recovers": lambda d, p: all(
            row["t2_recovery"] == 1.0 for row in d["rows"]
        ),
    },
)
def run_stability(
    seeds: list[int] | None = None,
    trials: int = 10,
    engine: ExecutionEngine | None = None,
) -> tuple[list[str], dict]:
    """Re-derive the headline conclusions under independent seeds."""
    if seeds is None:
        seeds = [1, 2, 3, 4, 5]
    engine = resolve_engine(engine)
    rows = engine.map(_stability_cell, [(seed, trials) for seed in seeds])
    table = render_rows(
        [
            ("seed", "seed"),
            ("T1b zero-budget", "t1b_zero_budget"),
            ("T1b full-budget", "t1b_full_budget"),
            ("C31 below-regime", "c31_below_rate"),
            ("C31 in-regime", "c31_in_rate"),
            ("T2 recovery", "t2_recovery"),
        ],
        rows,
    )
    lines = [
        f"{trials} trials per cell; every conclusion must hold at every seed:",
        "zero-budget fails, full-budget succeeds, the regime split is wide,",
        "and the reduction recovers exactly.",
        "",
        *table,
    ]
    return lines, {"rows": rows}
