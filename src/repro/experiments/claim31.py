"""Experiment C31: Monte-Carlo validation of Claim 3.1.

Claim 3.1 is a *large-parameter* statement: the counting half of its
proof needs  k·r/3 - (N - 2r) >= k·r/4, i.e.  k·r >= 12(N - 2r), which
the paper obtains from k = t with r = N/e^Θ(sqrt(log N)) at huge N.  At
laptop scale the regime matters, so this experiment runs *both* kinds of
configuration:

* below-regime (small k): the threshold k·r/4 fails often — public
  vertices can absorb the special edges.  This is expected and shows the
  claim's hypothesis doing real work;
* in-regime (k >= 12(N - 2r)/r plus Chernoff slack): the claim holds at
  a rate tracking the paper's 1 - 2^(-kr/10) bound.

The table reports the proof's own counting floor k·r/3 - (N - 2r)
alongside, so the mechanism is visible, not just the verdict.
"""

from __future__ import annotations

import random

from ..lowerbound import (
    HardDistribution,
    micro_distribution,
    min_unique_unique_edges,
    sample_dmm,
    scaled_distribution,
    union_matching_size,
)
from ..runs.spec import ParamSpec
from .registry import register
from .tables import render_rows


def in_claim_regime(hard: HardDistribution) -> bool:
    """The counting half's requirement k*r >= 12(N - 2r)."""
    return hard.k * hard.r >= 12 * hard.num_public


def default_configurations() -> list[tuple[str, HardDistribution]]:
    """The C31 default mix of below-regime and in-regime configurations."""
    return [
        ("scaled m=10 k=3 (below regime)", scaled_distribution(m=10, k=3)),
        ("scaled m=12 k=4 (below regime)", scaled_distribution(m=12, k=4)),
        ("micro r=1 t=2 k=40 (in regime)", micro_distribution(r=1, t=2, k=40)),
        ("micro r=2 t=2 k=30 (in regime)", micro_distribution(r=2, t=2, k=30)),
        ("micro r=2 t=3 k=60 (in regime)", micro_distribution(r=2, t=3, k=60)),
        # A scaled configuration with genuine RS structure (public vertices
        # carry many non-special edges) pushed into the claim's regime.
        ("scaled m=8 k=150 (in regime)", scaled_distribution(m=8, k=150)),
    ]


@register(
    "C31",
    "Every maximal matching is unique-heavy (Claim 3.1)",
    "Claim 3.1",
    params=(
        ParamSpec("configs", "object", None,
                  help="(name, HardDistribution) pairs; default mix inside"),
        ParamSpec("trials", "int", 30, help="matchings sampled per config"),
        ParamSpec("seed", "int", 0, help="base RNG seed"),
    ),
    smoke={"trials": 6, "seed": 0},
    checks={
        "both_regimes_sampled": lambda d, p: (
            {row["in_regime"] for row in d["rows"]} == {True, False}
        ),
        # Up to Monte-Carlo slack of 0.2 below the paper's 1 - 2^(-kr/10).
        "holds_in_regime": lambda d, p: all(
            r["holds_rate"] >= r["paper_probability_bound"] - 0.2
            for r in d["rows"] if r["in_regime"]
        ),
        # The regime hypothesis does real work: below it the claim fails.
        "fails_below_regime": lambda d, p: any(
            row["holds_rate"] < 0.5 for row in d["rows"] if not row["in_regime"]
        ),
    },
)
def run_claim31(
    configs: list[tuple[str, HardDistribution]] | None = None,
    trials: int = 30,
    seed: int = 0,
) -> tuple[list[str], dict]:
    """Monte-Carlo Claim 3.1 across parameter regimes."""
    if configs is None:
        configs = default_configurations()
    rows = []
    rng = random.Random(seed)
    for name, hard in configs:
        threshold = hard.claim31_threshold
        hold = 0
        union_total = 0.0
        min_total = 0.0
        for _ in range(trials):
            inst = sample_dmm(hard, rng)
            min_uu = min_unique_unique_edges(inst, heuristic_trials=4)
            union_total += union_matching_size(inst)
            min_total += min_uu
            if min_uu >= threshold:
                hold += 1
        rows.append(
            {
                "config": name,
                "in_regime": in_claim_regime(hard),
                "threshold": threshold,
                "counting_floor": hard.k * hard.r / 3.0 - hard.num_public,
                "mean_min_unique_unique": min_total / trials,
                "mean_union_size": union_total / trials,
                "expected_union_size": hard.k * hard.r / 2.0,
                "holds_rate": hold / trials,
                "paper_probability_bound": hard.claim31_probability_bound,
            }
        )
    table = render_rows(
        [
            ("configuration", "config"),
            ("in regime", "in_regime"),
            ("kr/4", "threshold"),
            ("kr/3-(N-2r)", "counting_floor"),
            ("mean min-UU", "mean_min_unique_unique"),
            ("mean |∪M_i|", "mean_union_size"),
            ("E=kr/2", "expected_union_size"),
            ("holds", "holds_rate"),
            ("paper bound", "paper_probability_bound"),
        ],
        rows,
    )
    return table, {"rows": rows, "trials": trials}
