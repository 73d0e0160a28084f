"""The sketching landscape: what fits in small sketches and what doesn't.

Runs every problem the paper's introduction discusses, on comparable
inputs, and prints one table: spanning forest (polylog), the footnote-1
bridge recovery (polylog), (Δ+1)-coloring (polylog), one-round maximal
matching / MIS at several budgets (fails until ~linear), and the
two-round escapes (O(sqrt n) filtering MM, Luby-phase MIS).

Run:  python examples/sketching_landscape.py
"""

import random

from repro.experiments import render_table
from repro.graphs import (
    erdos_renyi,
    is_maximal_independent_set,
    is_maximal_matching,
    is_spanning_forest,
    two_random_components_with_bridge,
)
from repro.model import PublicCoins, run_adaptive_protocol, run_protocol
from repro.protocols import (
    FilteringMatching,
    FullNeighborhoodMatching,
    LubyAdaptiveMIS,
    OneRoundLocalMinMIS,
    SampledEdgesMatching,
)
from repro.sketches import (
    AGMSpanningForest,
    CrossingEdgeProtocol,
    PaletteSparsificationColoring,
    is_proper_coloring,
)


def main() -> None:
    n = 32
    rng = random.Random(3)
    graph = erdos_renyi(n, 0.3, rng)
    coins = PublicCoins(seed=11)
    rows = []

    run = run_protocol(graph, AGMSpanningForest(), coins)
    rows.append(
        ("spanning forest (AGM)", 1, run.max_bits, is_spanning_forest(graph, run.output))
    )

    bridge_graph, bridge = two_random_components_with_bridge(n // 2, 0.6, rng)
    run = run_protocol(bridge_graph, CrossingEdgeProtocol(), coins)
    rows.append(
        (
            "bridge recovery (footnote 1)",
            1,
            run.max_bits,
            run.output.bridge == (min(bridge), max(bridge)),
        )
    )

    delta = graph.max_degree()
    run = run_protocol(graph, PaletteSparsificationColoring(delta), coins)
    rows.append(
        (
            "(Δ+1)-coloring (palette spars.)",
            1,
            run.max_bits,
            run.output.complete
            and is_proper_coloring(graph, run.output.colors, delta + 1),
        )
    )

    for budget in (1, 4):
        run = run_protocol(graph, SampledEdgesMatching(budget), coins)
        rows.append(
            (
                f"maximal matching, budget {budget}",
                1,
                run.max_bits,
                is_maximal_matching(graph, run.output),
            )
        )
    run = run_protocol(graph, FullNeighborhoodMatching(), coins)
    rows.append(
        ("maximal matching, full Θ(n)", 1, run.max_bits, is_maximal_matching(graph, run.output))
    )

    run = run_protocol(graph, OneRoundLocalMinMIS(), coins)
    rows.append(
        ("MIS, one Luby round (1 bit)", 1, run.max_bits,
         is_maximal_independent_set(graph, run.output))
    )

    arun = run_adaptive_protocol(graph, FilteringMatching(num_rounds=2), coins)
    rows.append(
        ("maximal matching, 2-round √n", 2, arun.max_bits,
         is_maximal_matching(graph, arun.output))
    )

    arun = run_adaptive_protocol(graph, LubyAdaptiveMIS(num_phases=8), coins)
    rows.append(
        ("MIS, adaptive Luby (8 phases)", 16, arun.max_bits,
         is_maximal_independent_set(graph, arun.output))
    )

    print(f"n = {n} vertices, {graph.num_edges()} edges")
    print()
    for line in render_table(
        ["problem / protocol", "rounds", "max bits/player", "solved"], rows
    ):
        print(line)
    print()
    print(
        "One-round MM/MIS only succeed near the Θ(n) trivial cost — the "
        "separation Theorems 1 and 2 prove is real, while everything "
        "else on the table fits in small sketches."
    )
    print(
        "(AGM's absolute bits are dominated by constants — 61-bit "
        "fingerprints x levels x rounds; its polylog growth is what "
        "matters and is checked by experiment UB-SF.)"
    )


if __name__ == "__main__":
    main()
