"""Experiment R36: the four relaxations of Remark 3.6, demonstrated.

The lower bound survives even when (i) the base RS graph is public,
(ii) the referee knows sigma and j*, (iii) public vertices know each
other, and (iv) the referee only needs a (possibly non-maximal) matching
of size k*r/4 between unique vertices.  Each row below runs the piece of
the pipeline that *uses* the relaxation and reports that it suffices.
"""

from __future__ import annotations

import random

from ..graphs import greedy_mis
from ..lowerbound import (
    build_reduction_graph,
    decode_matching_from_mis,
    matching_relaxed_check,
    sample_dmm,
    scaled_distribution,
)
from ..lowerbound.claims import public_first_adversarial_matching
from ..runs.spec import ParamSpec
from .registry import register
from .tables import render_table


@register(
    "R36",
    "The four relaxations (Remark 3.6)",
    "Remark 3.6",
    params=(
        ParamSpec("m", "int", 10, help="Behrend scale of D_MM"),
        ParamSpec("k", "int", 3, help="number of copies"),
        ParamSpec("seed", "int", 0, help="instance sample seed"),
    ),
    checks={
        "rs_shared": lambda d, p: d["rs_shared"],
        "referee_slots": lambda d, p: d["referee_slots"],
        "biclique_public_only": lambda d, p: d["biclique_public_only"],
        "relaxed_output_ok": lambda d, p: d["relaxed_output_ok"],
    },
)
def run_remark36(m: int = 10, k: int = 3, seed: int = 0) -> tuple[list[str], dict]:
    """Demonstrate each of Remark 3.6's four relaxations in code."""
    hard = scaled_distribution(m=m, k=k)
    rng = random.Random(seed)
    inst = sample_dmm(hard, rng)

    rows = []
    data = {}

    # (i) GRS is shared: the HardDistribution object (base graph +
    # matchings) is common knowledge to players, referee, and adversary.
    shared = inst.hard.rs is hard.rs
    rows.append(("(i) base RS graph public", shared))
    data["rs_shared"] = shared

    # (ii) referee knows sigma and j*: the decode step consumes them via
    # the instance's slot tables and still needs the players' messages to
    # learn the subsampling coins.
    slots = inst.special_slot_pairs(0)
    referee_knows_slots = len(slots) == hard.r
    survivors_hidden = set(inst.special_surviving_edges(0)) != set(slots) or (
        inst.indicators[0][inst.j_star] == (1 << hard.r) - 1
    )
    rows.append(("(ii) referee gets sigma, j* (slots computable)", referee_knows_slots))
    data["referee_slots"] = referee_knows_slots
    data["subsampling_still_hidden"] = survivors_hidden

    # (iii) public vertices know each other: the reduction's biclique is
    # built from public labels only — verify its edges stay within the
    # public blocks.
    h = build_reduction_graph(inst)
    n = hard.n
    public = inst.public_labels
    cross_ok = all(
        (u in public and (v - n) in public)
        for u, v in h.edges()
        if u < n <= v
    )
    rows.append(("(iii) biclique uses only public knowledge", cross_ok))
    data["biclique_public_only"] = cross_ok

    # (iv) relaxed output suffices: the reduction's decoded matching is
    # not maximal in G, yet passes the relaxed check when MIS is correct.
    mis = greedy_mis(h)
    decode = decode_matching_from_mis(inst, mis)
    relaxed_ok = matching_relaxed_check(inst, decode.matching)
    # ... while a full adversarial maximal matching also passes:
    strict_matching = public_first_adversarial_matching(inst, rng)
    strict_ok = matching_relaxed_check(inst, strict_matching)
    rows.append(("(iv) relaxed (non-maximal) output accepted", relaxed_ok))
    rows.append(("(iv') maximal matchings also pass the relaxed task", strict_ok))
    data["relaxed_output_ok"] = relaxed_ok
    data["maximal_passes_relaxed"] = strict_ok

    return render_table(["relaxation", "demonstrated"], rows), data
