"""Experiment F2: regenerate Figure 2 (the reduction graph H)."""

from __future__ import annotations

import random

from ..engine import derive_seed
from ..graphs import greedy_mis, is_maximal_independent_set
from ..lowerbound import (
    build_reduction_graph,
    check_lemma41,
    decode_matching_from_mis,
    sample_dmm,
    scaled_distribution,
)
from .ascii_art import render_figure2
from ..runs.spec import ParamSpec
from .registry import register
from .tables import render_kv


@register(
    "F2",
    "Reduction graph H (Figure 2)",
    "Section 4, Figure 2",
    params=(
        ParamSpec("m", "int", 10, help="Behrend scale of D_MM"),
        ParamSpec("k", "int", 2, help="number of copies"),
        ParamSpec("seed", "int", 0, help="instance sample seed"),
        ParamSpec("side_trials", "int", 8, help="samples for the side stats"),
    ),
    smoke={"m": 8, "k": 2, "seed": 0, "side_trials": 4},
    checks={
        "h_has_2n_vertices": lambda d, p: d["h_vertices"] == 2 * d["n"],
        "lemma41_iff": lambda d, p: d["lemma41_iff"],
        "matching_recovered_exactly": lambda d, p: d["recovered_exactly"],
    },
)
def run_figure2(
    m: int = 10, k: int = 2, seed: int = 0, side_trials: int = 8
) -> tuple[list[str], dict]:
    """Build H from one D_MM sample, solve MIS on it exactly (greedy on
    the full graph — the referee-side ideal), and validate the Lemma 4.1
    decode round-trip Figure 2 illustrates.

    ``side_trials`` fresh samples additionally feed the empirical joint
    distribution of (decode side, Lemma 4.1 verdict) — its entropy
    summarizes how variable the reduction's side choice is across
    instances (0 bits = the side is forced; the iff margin must stay
    deterministic at 0 bits for the lemma to hold everywhere).
    """
    hard = scaled_distribution(m=m, k=k)
    instance = sample_dmm(hard, random.Random(seed))
    h = build_reduction_graph(instance)

    mis = greedy_mis(h)
    assert is_maximal_independent_set(h, mis)
    decode = decode_matching_from_mis(instance, mis)
    lemma = check_lemma41(instance, mis, decode.side)

    side_samples = []
    for trial in range(side_trials):
        inst_t = sample_dmm(hard, random.Random(derive_seed(seed, "f2-side", trial)))
        h_t = build_reduction_graph(inst_t)
        mis_t = greedy_mis(h_t)
        decode_t = decode_matching_from_mis(inst_t, mis_t)
        lemma_t = check_lemma41(inst_t, mis_t, decode_t.side)
        side_samples.append((decode_t.side, lemma_t.iff_holds))
    side_entropy = 0.0
    iff_entropy = 0.0
    if side_samples:
        from ..infotheory import TableDistribution

        side_dist = TableDistribution.from_samples(("side", "iff"), side_samples)
        side_entropy = side_dist.entropy(["side"])
        iff_entropy = side_dist.entropy(["iff"])

    data = {
        "n": hard.n,
        "h_vertices": h.num_vertices(),
        "h_edges": h.num_edges(),
        "copy_edges": instance.graph.num_edges(),
        "biclique_edges": len(instance.public_labels) ** 2,
        "mis_size": len(mis),
        "decode_side": decode.side,
        "left_clean": decode.left_clean,
        "right_clean": decode.right_clean,
        "lemma41_iff": lemma.iff_holds,
        "recovered_exactly": decode.matching == instance.union_special_matching,
        "side_trials": side_trials,
        "side_entropy_bits": side_entropy,
        "iff_entropy_bits": iff_entropy,
    }
    return [*render_figure2(instance), "", *render_kv(list(data.items()))], data
