"""Experiment L41: exhaustive + Monte-Carlo validation of Lemma 4.1."""

from __future__ import annotations

import random

from ..graphs import all_maximal_independent_sets, greedy_mis, random_mis
from ..lowerbound import (
    build_reduction_graph,
    check_lemma41,
    left_public,
    micro_distribution,
    right_public,
    sample_dmm,
    scaled_distribution,
)
from ..runs.spec import ParamSpec
from .registry import register
from .tables import render_table


@register(
    "L41",
    "MIS -> matching decode correctness (Lemma 4.1)",
    "Lemma 4.1",
    params=(
        ParamSpec("monte_carlo_trials", "int", 20,
                  help="sampled H instances for the Monte-Carlo pass"),
        ParamSpec("seed", "int", 0, help="base RNG seed"),
    ),
    smoke={"monte_carlo_trials": 4, "seed": 0},
    # Per pass: the iff held on every clean side, and the easy direction
    # on both sides of every MIS.
    checks={
        "iff_on_every_clean_side": lambda d, p: all(
            d[name]["iff_holds"] == d[name]["clean_sides"]
            for name in ("exhaustive", "monte_carlo")
        ),
        "easy_direction_on_every_side": lambda d, p: all(
            d[name]["easy_direction_checks"] == 2 * d[name]["mis_count"]
            for name in ("exhaustive", "monte_carlo")
        ),
    },
)
def run_lemma41(
    monte_carlo_trials: int = 20, seed: int = 0
) -> tuple[list[str], dict]:
    """Two passes:

    * exhaustive — every maximal independent set of H for a micro
      instance, checking the easy direction unconditionally and the iff
      on every clean side;
    * Monte-Carlo — random maximal independent sets of H at a larger
      scale, same checks.
    """
    rows = []
    data = {}

    # Exhaustive pass on a micro instance.
    hard = micro_distribution(r=1, t=2, k=2)
    inst = sample_dmm(hard, random.Random(seed))
    h = build_reduction_graph(inst)
    total = clean_sides = iff_ok = easy_ok = 0
    for mis in all_maximal_independent_sets(h):
        total += 1
        lc = not (mis & left_public(inst))
        rc = not (mis & right_public(inst))
        for side, clean in (("left", lc), ("right", rc)):
            check = check_lemma41(inst, mis, side)
            easy_ok += check.easy_direction_holds
            if clean:
                clean_sides += 1
                iff_ok += check.iff_holds
    rows.append(("exhaustive (micro)", total, clean_sides, iff_ok, easy_ok))
    data["exhaustive"] = {
        "mis_count": total,
        "clean_sides": clean_sides,
        "iff_holds": iff_ok,
        "easy_direction_checks": easy_ok,
    }

    # Monte-Carlo pass at scale.
    hard2 = scaled_distribution(m=10, k=3)
    rng = random.Random(seed + 1)
    total = clean_sides = iff_ok = easy_ok = 0
    for trial in range(monte_carlo_trials):
        inst2 = sample_dmm(hard2, rng)
        h2 = build_reduction_graph(inst2)
        mis = random_mis(h2, rng) if trial % 2 else greedy_mis(h2)
        total += 1
        lc = not (mis & left_public(inst2))
        rc = not (mis & right_public(inst2))
        for side, clean in (("left", lc), ("right", rc)):
            check = check_lemma41(inst2, mis, side)
            easy_ok += check.easy_direction_holds
            if clean:
                clean_sides += 1
                iff_ok += check.iff_holds
    rows.append(("monte-carlo (m=10,k=3)", total, clean_sides, iff_ok, easy_ok))
    data["monte_carlo"] = {
        "mis_count": total,
        "clean_sides": clean_sides,
        "iff_holds": iff_ok,
        "easy_direction_checks": easy_ok,
    }

    table = render_table(
        ["pass", "MIS checked", "clean sides", "iff holds", "easy-dir holds"],
        rows,
    )
    return table, data
