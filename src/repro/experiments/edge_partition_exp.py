"""Experiment EPART: vertex-partition vs edge-partition power (§1.2).

The paper lifts [14]'s lower bound from the edge-partition model to the
vertex-partition (sketching) model, and Section 1.2 explains why the
lift is nontrivial: vertex players see whole neighborhoods and every
edge twice.  This experiment quantifies that power gap: the same
sampling budget recovers strictly more of the hidden special matching
in the vertex-partition model, on the same D_MM samples.
"""

from __future__ import annotations

import random

from ..engine import derive_seed
from ..graphs import is_valid_matching
from ..lowerbound import sample_dmm, scaled_distribution
from ..lowerbound.claims import count_unique_unique
from ..lowerbound.edge_partition import (
    SampledEdgesEdgePartition,
    run_edge_partition_protocol,
)
from ..model import PublicCoins, run_protocol
from ..protocols import SampledEdgesMatching
from ..runs.spec import ParamSpec
from .registry import register
from .tables import render_kv, render_table


@register(
    "EPART",
    "Vertex- vs edge-partition power (§1.2)",
    "Section 1.2, [14]",
    params=(
        ParamSpec("m", "int", 12, help="Behrend scale of D_MM"),
        ParamSpec("k", "int", 4, help="number of copies"),
        ParamSpec("budgets", "int_list", None, help="edge budgets per player"),
        ParamSpec("trials", "int", 15, help="shared D_MM samples"),
        ParamSpec("seed", "int", 0, help="base RNG seed"),
    ),
    smoke={"m": 8, "k": 2, "budgets": [1], "trials": 4, "seed": 0},
    checks={
        "vertex_model_competitive": lambda d, p: all(
            r["vertex_unique_unique"] >= r["edge_unique_unique"] - 0.5
            for r in d["rows"] if isinstance(r["budget"], int)
        ),
        # The degree-threshold attack has no edge-partition counterpart.
        "degree_threshold_attack_vertex_only": lambda d, p: [
            r["edge_unique_unique"]
            for r in d["rows"] if not isinstance(r["budget"], int)
        ][0] is None,
    },
)
def run_edge_partition(
    m: int = 12,
    k: int = 4,
    budgets: list[int] | None = None,
    trials: int = 15,
    seed: int = 0,
) -> tuple[list[str], dict]:
    """Compare vertex- and edge-partition protocols on shared D_MM samples."""
    hard = scaled_distribution(m=m, k=k)
    if budgets is None:
        budgets = [1, 2, 4]
    rng = random.Random(seed)
    instances = [sample_dmm(hard, rng) for _ in range(trials)]
    rows = []
    data_rows = []
    for budget in budgets:
        vertex_protocol = SampledEdgesMatching(budget)
        edge_protocol = SampledEdgesEdgePartition(budget)
        v_uu = e_uu = 0.0
        v_sizes = e_sizes = 0.0
        for trial, inst in enumerate(instances):
            coins = PublicCoins(derive_seed(seed, "ep-coins", trial))
            vrun = run_protocol(inst.graph, vertex_protocol, coins, n=hard.n)
            if is_valid_matching(inst.graph, vrun.output):
                v_uu += count_unique_unique(inst, vrun.output)
                v_sizes += len(vrun.output)
            erun = run_edge_partition_protocol(
                inst.graph,
                edge_protocol,
                num_players=hard.n,  # same player count as vertices
                coins=coins,
                rng=random.Random(derive_seed(seed, "ep-partition", trial)),
                n=hard.n,
            )
            if is_valid_matching(inst.graph, erun.output):
                e_uu += count_unique_unique(inst, erun.output)
                e_sizes += len(erun.output)
        rows.append(
            (
                budget,
                v_sizes / trials,
                v_uu / trials,
                e_sizes / trials,
                e_uu / trials,
            )
        )
        data_rows.append(
            {
                "budget": budget,
                "vertex_matching_size": v_sizes / trials,
                "vertex_unique_unique": v_uu / trials,
                "edge_matching_size": e_sizes / trials,
                "edge_unique_unique": e_uu / trials,
            }
        )
    # The structural separation: degree-based policies need whole
    # neighborhoods, which edge-partition players never see.  Run the
    # low-degree-only attack in the vertex model for contrast.
    from ..protocols import LowDegreeOnlyMatching

    threshold = max(2, hard.rs.graph.max_degree() // 2)
    ld_uu = 0.0
    ld_protocol = LowDegreeOnlyMatching(threshold)
    for trial, inst in enumerate(instances):
        run = run_protocol(
            inst.graph, ld_protocol, PublicCoins(derive_seed(seed, "ep-coins", trial)), n=hard.n
        )
        if is_valid_matching(inst.graph, run.output):
            ld_uu += count_unique_unique(inst, run.output)
    rows.append(("deg<=%d" % threshold, "-", ld_uu / trials, "-", "inexpressible"))
    data_rows.append(
        {
            "budget": f"low-degree-only({threshold})",
            "vertex_unique_unique": ld_uu / trials,
            "edge_unique_unique": None,
        }
    )

    info = render_kv(
        [
            ("distribution", f"m={m}, k={k}: n={hard.n}"),
            ("kr/4 threshold", hard.claim31_threshold),
            ("players", f"{hard.n} in both models (edges split uniformly)"),
            ("trials", trials),
            (
                "note",
                "degree-threshold policies need the whole neighborhood: "
                "expressible only in the vertex-partition model",
            ),
        ]
    )
    table = render_table(
        [
            "budget",
            "vertex: matching",
            "vertex: UU edges",
            "edge-part: matching",
            "edge-part: UU edges",
        ],
        rows,
    )
    return [*info, "", *table], {"rows": data_rows}
