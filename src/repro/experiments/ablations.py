"""Experiment ABL: ablations of the repository's own design choices.

Not a paper figure — these sweeps justify the default knobs the other
experiments rely on:

* AGM repetitions per Borůvka round (failure boosting): success rate vs
  bits; the default (3) sits at the knee.
* Palette-sparsification list size: the Θ(log n) constant; success
  collapses below it, bits grow linearly above it.
* Filtering-matching cap multiplier: maximality rate of the 2-round
  protocol vs per-round bits.
* RS uniformization: choosing r to maximize r·t (our default) vs the
  extremes (max r, max t) — surviving edge mass of the resulting hard
  distributions.
"""

from __future__ import annotations

import random

from ..engine import derive_seed
from ..graphs import erdos_renyi, is_maximal_matching, is_spanning_forest
from ..model import PublicCoins, run_adaptive_protocol, run_protocol
from ..protocols import FilteringMatching
from ..rsgraphs import best_uniform, sum_class_rs_graph, uniformize
from ..sketches import (
    AGMParameters,
    AGMSpanningForest,
    PaletteSparsificationColoring,
    is_proper_coloring,
)
from ..runs.spec import ParamSpec
from .registry import ExperimentReport, register
from .tables import render_table


def _agm_ablation(trials: int, seed: int) -> tuple[list, list[dict]]:
    rows, data = [], []
    n = 24
    for repetitions in (1, 2, 3, 5):
        ok = 0
        bits = 0
        rng = random.Random(seed)
        for trial in range(trials):
            g = erdos_renyi(n, 0.25, rng).freeze()
            params = AGMParameters.for_n(n, repetitions=repetitions)
            run = run_protocol(g, AGMSpanningForest(params), PublicCoins(seed + trial))
            bits = max(bits, run.max_bits)
            ok += is_spanning_forest(g, run.output)
        rows.append(("agm repetitions", repetitions, bits, ok / trials))
        data.append(
            {"knob": "agm_repetitions", "value": repetitions, "bits": bits,
             "success": ok / trials}
        )
    return rows, data


def _coloring_ablation(trials: int, seed: int) -> tuple[list, list[dict]]:
    rows, data = [], []
    n = 24
    for list_size in (1, 2, 4, 8, 16):
        ok = 0
        bits = 0
        rng = random.Random(seed + 1)
        for trial in range(trials):
            g = erdos_renyi(n, 0.35, rng).freeze()
            delta = g.max_degree()
            protocol = PaletteSparsificationColoring(delta, list_size=list_size)
            run = run_protocol(g, protocol, PublicCoins(derive_seed(seed, "abl-coloring", trial)))
            bits = max(bits, run.max_bits)
            ok += run.output.complete and is_proper_coloring(
                g, run.output.colors, delta + 1
            )
        rows.append(("coloring list size", list_size, bits, ok / trials))
        data.append(
            {"knob": "coloring_list_size", "value": list_size, "bits": bits,
             "success": ok / trials}
        )
    return rows, data


def _filtering_ablation(trials: int, seed: int) -> tuple[list, list[dict]]:
    rows, data = [], []
    n = 30
    for cap in (0.5, 1.0, 2.0):
        ok = 0
        bits = 0
        rng = random.Random(seed + 2)
        for trial in range(trials):
            g = erdos_renyi(n, 0.4, rng).freeze()
            run = run_adaptive_protocol(
                g,
                FilteringMatching(num_rounds=2, cap_multiplier=cap),
                PublicCoins(derive_seed(seed, "abl-filtering", trial)),
            )
            bits = max(bits, max(run.max_bits_per_round))
            ok += is_maximal_matching(g, run.output)
        rows.append(("filtering cap multiplier", cap, bits, ok / trials))
        data.append(
            {"knob": "filtering_cap", "value": cap, "bits": bits, "success": ok / trials}
        )
    return rows, data


def _kernel_ablation() -> tuple[list, list[dict]]:
    """Columnar table kernel vs dict oracle on the exact lemma check.

    Times ``analyze_protocol`` + the full Lemma 3.3–3.5 evaluation under
    both kernels on one micro instance — the in-repo justification for
    the columnar default.
    """
    import time

    from ..lowerbound import analyze_protocol, micro_distribution
    from ..lowerbound.transcripts import ExactAnalysis
    from ..model import PublicCoins
    from ..protocols import SampledEdgesMatching

    hard = micro_distribution(r=1, t=2, k=2)
    protocol = SampledEdgesMatching(1)
    coins = PublicCoins(seed=2020)
    rows, data = [], []
    timings: dict[str, float] = {}
    num_rows = 0
    for kernel in ("table", "reference"):
        # Enumerate once outside the timer — the protocol simulation is
        # kernel-independent; what's compared is the lemma evaluation.
        a = analyze_protocol(hard, protocol, coins, kernel=kernel)
        num_rows = a.dist.num_rows if kernel == "table" else num_rows
        reps = 5
        start = time.perf_counter()
        for _ in range(reps):
            # Fresh ExactAnalysis per rep defeats the cached_property
            # memoization, so every lemma quantity is recomputed.
            fresh = ExactAnalysis(
                hard=a.hard, dist=a.dist, expected_mu=a.expected_mu,
                error_probability=a.error_probability,
                worst_case_bits=a.worst_case_bits,
            )
            fresh.information_revealed
            fresh.lemma33_holds()
            fresh.lemma34_holds()
            fresh.lemma35_all_hold()
        timings[kernel] = (time.perf_counter() - start) / reps
    speedup = timings["reference"] / timings["table"] if timings["table"] else 0.0
    for kernel in ("table", "reference"):
        rows.append(
            (
                kernel,
                num_rows,
                f"{timings[kernel] * 1e3:.2f} ms",
                f"{speedup:.2f}x" if kernel == "table" else "1.00x",
            )
        )
        data.append(
            {"knob": "infotheory_kernel", "value": kernel,
             "seconds": timings[kernel],
             "speedup_vs_reference": speedup if kernel == "table" else 1.0}
        )
    return rows, data


def _uniformization_ablation() -> tuple[list, list[dict]]:
    rows, data = [], []
    base = sum_class_rs_graph(16)
    sizes = base.matching_sizes
    variants = {
        "max r (few matchings)": uniformize(base, max(sizes)),
        "best r*t (default)": best_uniform(base),
        "max t (r = 1)": uniformize(base, 1),
    }
    for name, rs in variants.items():
        rows.append(
            (
                "uniformization: " + name,
                rs.r,
                rs.num_matchings,
                rs.r * rs.num_matchings,
            )
        )
        data.append(
            {"knob": "uniformization", "value": name, "r": rs.r,
             "t": rs.num_matchings, "edges": rs.r * rs.num_matchings}
        )
    return rows, data


@register(
    "ABL",
    "Design-choice ablations",
    "DESIGN.md §design choices",
    params=(
        ParamSpec("trials", "int", 6, help="trials per ablation point"),
        ParamSpec("seed", "int", 0, help="base RNG seed"),
    ),
    smoke={"trials": 2, "seed": 0},
)
def run_ablations(trials: int = 6, seed: int = 0) -> ExperimentReport:
    """Run every ablation sweep and tabulate the knees."""
    all_rows: list = []
    all_data: list[dict] = []
    for rows, data in (
        _agm_ablation(trials, seed),
        _coloring_ablation(trials, seed),
        _filtering_ablation(trials, seed),
    ):
        all_rows.extend(rows)
        all_data.extend(data)
    table = render_table(["knob", "value", "max bits", "success"], all_rows)

    uni_rows, uni_data = _uniformization_ablation()
    all_data.extend(uni_data)
    uni_table = render_table(["variant", "r", "t", "edges = r*t"], uni_rows)

    kernel_rows, kernel_data = _kernel_ablation()
    all_data.extend(kernel_data)
    kernel_table = render_table(
        ["kernel", "rows", "lemma check time", "speedup"], kernel_rows
    )

    lines = [
        *table,
        "",
        "RS uniformization variants (m=16 sum-class):",
        "",
        *uni_table,
        "",
        "Infotheory kernel (exact lemma check, micro r=1 t=2 k=2):",
        "",
        *kernel_table,
    ]
    return ExperimentReport(
        experiment_id="ABL",
        title="Design-choice ablations",
        lines=tuple(lines),
        data={"rows": all_data},
    )
