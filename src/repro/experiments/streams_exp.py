"""Experiment STR: the dynamic-stream / linear-sketch equivalence (§1.1).

Three measurements on the same final graphs:

* AGM sketches maintained under churny dynamic streams decode correct
  spanning forests (linear sketches survive deletions);
* the maintained per-vertex messages are bit-identical to what the
  one-round distributed protocol's players send — the equivalence [1]
  that makes dynamic-stream lower bounds speak about linear distributed
  sketches ([14], discussed in §1.1);
* insertion-only greedy matching succeeds on insertion-only streams and
  structurally cannot process deletions, while the linear L0 matching
  can — but only finds what its samplers recover.
"""

from __future__ import annotations

import random

from ..engine import derive_seed
from ..graphs import erdos_renyi, is_maximal_matching, is_spanning_forest
from ..model import PublicCoins, run_protocol
from ..sketches import AGMParameters, AGMSpanningForest
from ..streams import (
    InsertionOnlyGreedyMatching,
    StreamingL0Matching,
    StreamingSpanningForest,
    churn_stream,
    random_order_stream,
    stream_to_distributed_sketches,
)
from ..runs.spec import ParamSpec
from .registry import register
from .tables import render_table


@register(
    "STR",
    "Dynamic streams = linear sketches (§1.1)",
    "Section 1.1, [1]/[14]",
    params=(
        ParamSpec("n", "int", 14, help="vertices per streamed graph"),
        ParamSpec("trials", "int", 5, help="stream/sketch comparisons"),
        ParamSpec("seed", "int", 0, help="base RNG seed"),
    ),
    smoke={"n": 10, "trials": 2, "seed": 0},
    # Every trial, not most: these are exact equivalences.
    checks={
        "churn_stream_forest_correct": lambda d, p: d["forest_ok"] == d["trials"],
        "stream_sketch_bit_identical": lambda d, p: d["identical"] == d["trials"],
        "insertion_greedy_maximal": lambda d, p: d["greedy_ok"] == d["trials"],
    },
)
def run_streams(
    n: int = 14, trials: int = 5, seed: int = 0
) -> tuple[list[str], dict]:
    """Measure the dynamic-stream / linear-sketch equivalences."""
    rng = random.Random(seed)
    rows = []
    forest_ok = 0
    identical = 0
    greedy_ok = 0
    l0_sizes = []
    stream_lengths = []
    for trial in range(trials):
        # Frozen CSR input: reused by the stream generators, the
        # protocol run, and both correctness checks below.
        g = erdos_renyi(n, 0.35, rng).freeze()
        coins = PublicCoins(derive_seed(seed, "stream-coins", trial))
        params = AGMParameters.for_n(n)
        events = churn_stream(g, rng, churn_rounds=2)
        stream_lengths.append(len(events))

        alg = StreamingSpanningForest(n, coins, params.num_rounds, params.repetitions)
        alg.process(events)
        forest_ok += is_spanning_forest(g, alg.result())

        stream_msgs = stream_to_distributed_sketches(n, events, coins, params)
        protocol_msgs = run_protocol(
            g, AGMSpanningForest(params), coins
        ).transcript.sketches
        identical += stream_msgs == protocol_msgs

        greedy = InsertionOnlyGreedyMatching().process(random_order_stream(g, rng))
        greedy_ok += is_maximal_matching(g, greedy.result())

        l0 = StreamingL0Matching(n, samplers_per_vertex=3, coins=coins)
        l0_sizes.append(len(l0.process(events).result()))

    rows = [
        ("AGM forest under churny dynamic stream", f"{forest_ok}/{trials}", "correct"),
        ("stream sketches == protocol messages", f"{identical}/{trials}", "bit-identical"),
        ("greedy MM on insertion-only stream", f"{greedy_ok}/{trials}", "maximal"),
        (
            "linear L0 MM on dynamic stream",
            f"mean size {sum(l0_sizes) / trials:.1f}",
            "partial (linear)",
        ),
        (
            "mean stream length (with churn)",
            f"{sum(stream_lengths) / trials:.0f} events",
            "-",
        ),
    ]
    data = {
        "forest_ok": forest_ok,
        "identical": identical,
        "greedy_ok": greedy_ok,
        "trials": trials,
        "mean_l0_matching": sum(l0_sizes) / trials,
    }
    return render_table(["measurement", "result", "note"], rows), data
