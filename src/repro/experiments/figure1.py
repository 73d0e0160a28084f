"""Experiment F1: regenerate Figure 1 (the hard distribution D_MM)."""

from __future__ import annotations

import random

from ..lowerbound import sample_dmm, scaled_distribution
from .ascii_art import render_figure1
from ..runs.spec import ParamSpec
from .registry import register
from .tables import render_table


@register(
    "F1",
    "Hard distribution D_MM (Figure 1)",
    "Section 3.1, Figure 1",
    params=(
        ParamSpec("m", "int", 10, help="Behrend scale of D_MM"),
        ParamSpec("k", "int", 2, help="number of copies"),
        ParamSpec("seed", "int", 0, help="instance sample seed"),
    ),
    smoke={"m": 8, "k": 2, "seed": 0},
    checks={
        "n_is_N_minus_2r_plus_2rk": lambda d, p: (
            d["n"] == d["N"] - 2 * d["r"] + 2 * d["r"] * d["k"]
        ),
        "special_union_at_most_kr": lambda d, p: (
            d["union_special_size"] <= d["k"] * d["r"]
        ),
        "2rk_unique_vertices": lambda d, p: d["num_unique"] == 2 * d["r"] * p["k"],
    },
)
def run_figure1(m: int = 10, k: int = 2, seed: int = 0) -> tuple[list[str], dict]:
    """Sample one instance at the requested scale and report the structure
    Figure 1 illustrates: shared public block, per-copy unique blocks,
    and each copy's special matching with its dropped edges."""
    hard = scaled_distribution(m=m, k=k)
    instance = sample_dmm(hard, random.Random(seed))

    rows = []
    for i in range(hard.k):
        survivors = instance.special_surviving_edges(i)
        rows.append(
            (
                f"G_{i}",
                len(instance.copy_edges(i)),
                len(instance.unique_labels(i)),
                hard.r,
                len(survivors),
            )
        )
    table = render_table(
        ["copy", "surviving edges", "unique vertices", "special slots", "M_i size"],
        rows,
    )
    art = render_figure1(instance)
    data = {
        "N": hard.N,
        "r": hard.r,
        "t": hard.t,
        "k": hard.k,
        "n": hard.n,
        "num_public": hard.num_public,
        "num_unique": hard.num_unique,
        "union_special_size": len(instance.union_special_matching),
        "expected_union_special": hard.k * hard.r / 2.0,
        "graph_edges": instance.graph.num_edges(),
    }
    lines = [
        *table,
        "",
        f"|∪ M_i| = {data['union_special_size']} "
        f"(E = k*r/2 = {data['expected_union_special']})",
        "",
        *art,
    ]
    return lines, data
