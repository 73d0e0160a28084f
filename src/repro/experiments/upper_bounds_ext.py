"""Experiment UB-EXT: the rest of the intro's polylog catalog.

Section 1 lists more problems with efficient sketches than the three we
benchmark in UB-SF/UB-COL: edge connectivity [1] and densest subgraph
[22, 48] among them.  This experiment measures our implementations of
both — the k-edge-connectivity certificate via AGM forest peeling, and
densest subgraph via consistent public-coin edge sampling.
"""

from __future__ import annotations

import random

from ..engine import derive_seed
from ..graphs import (
    charikar_peeling,
    complete_graph,
    count_triangles,
    cycle_graph,
    erdos_renyi,
    path_graph,
)
from ..model import PublicCoins, run_protocol
from ..sketches import (
    ConnectivityCertificate,
    DegeneracySketch,
    DensestSubgraphSketch,
    TriangleCountSketch,
    certificate_min_cut,
)
from ..runs.spec import ParamSpec
from .registry import register
from .tables import render_table


@register(
    "UB-EXT",
    "Connectivity, densest subgraph, triangles, degeneracy",
    "Section 1, [1]/[2]/[22]/[31]/[48]",
    params=(
        ParamSpec("trials", "int", 4, help="trials per sketch family"),
        ParamSpec("seed", "int", 0, help="base RNG seed"),
    ),
    smoke={"trials": 2, "seed": 0},
    checks={
        "connectivity_at_least_2_3": lambda d, p: all(
            row["rate"] >= 2 / 3 for row in d["connectivity"]
        ),
        "densest_recovered_at_least_2_3": lambda d, p: (
            d["densest"][0]["recovery_rate"] >= 2 / 3
        ),
        "densest_density_error_below_half": lambda d, p: (
            d["densest"][0]["mean_rel_density_error"] < 0.5
        ),
        "triangle_estimate_within_30pct": lambda d, p: (
            abs(d["triangles"]["mean_estimate"] - d["triangles"]["truth"])
            < 0.3 * d["triangles"]["truth"]
        ),
    },
)
def run_upper_bounds_ext(trials: int = 4, seed: int = 0) -> tuple[list[str], dict]:
    """Measure edge connectivity, densest subgraph, and triangle sketches."""
    rows = []
    data: dict = {"connectivity": [], "densest": []}

    # Edge connectivity: three graphs with known lambda.
    # Frozen inputs take the batched sketch-construction fast path and
    # make the per-graph construction cache effective across trials.
    cases = [
        ("path (λ=1)", path_graph(8).freeze(), 1),
        ("cycle (λ=2)", cycle_graph(8).freeze(), 2),
        ("K7 (λ>=3, capped)", complete_graph(7).freeze(), 3),
    ]
    for name, g, expected in cases:
        correct = 0
        bits = 0
        for trial in range(trials):
            run = run_protocol(
                g, ConnectivityCertificate(k=3), PublicCoins(derive_seed(seed, "ubx-connectivity", trial))
            )
            value = certificate_min_cut(run.output, set(g.vertices), 3)
            bits = max(bits, run.max_bits)
            correct += value == expected
        rows.append((f"connectivity: {name}", bits, correct / trials))
        data["connectivity"].append(
            {"case": name, "expected": expected, "rate": correct / trials, "bits": bits}
        )

    # Densest subgraph: planted K8 in sparse noise.
    recovered = 0
    bits = 0
    rel_errors = []
    rng = random.Random(seed)
    for trial in range(trials):
        g = erdos_renyi(36, 0.05, rng)
        for u in range(8):
            for v in range(u + 1, 8):
                g.add_edge(u, v)
        run = run_protocol(
            g.freeze(), DensestSubgraphSketch(0.8), PublicCoins(derive_seed(seed, "ubx-densest", trial))
        )
        bits = max(bits, run.max_bits)
        overlap = len(run.output.vertices & set(range(8)))
        if overlap >= 6:
            recovered += 1
        _, truth = charikar_peeling(g)
        if truth > 0:
            rel_errors.append(abs(run.output.estimated_density - truth) / truth)
    rows.append(("densest: planted K8 recovery", bits, recovered / trials))
    data["densest"].append(
        {
            "recovery_rate": recovered / trials,
            "mean_rel_density_error": sum(rel_errors) / len(rel_errors),
            "bits": bits,
        }
    )

    # Triangle counting ([2]): unbiasedness over coins on K12.
    g = complete_graph(12)
    truth = count_triangles(g)
    frozen = g.freeze()
    estimates = []
    bits = 0
    for seed_offset in range(max(trials * 6, 18)):
        run = run_protocol(
            frozen, TriangleCountSketch(0.6), PublicCoins(derive_seed(seed, "ubx-triangle", seed_offset))
        )
        bits = max(bits, run.max_bits)
        estimates.append(run.output.estimate)
    mean_estimate = sum(estimates) / len(estimates)
    ok = abs(mean_estimate - truth) / truth < 0.3
    rows.append(("triangles: K12 mean estimate vs 220", bits, ok))
    data["triangles"] = {
        "truth": truth,
        "mean_estimate": mean_estimate,
        "bits": bits,
    }
    # Degeneracy ([31]): estimator tracks the truth over coins.
    from ..graphs import degeneracy as exact_degeneracy

    g = erdos_renyi(40, 0.3, random.Random(seed + 1))
    truth_d = exact_degeneracy(g)
    frozen_d = g.freeze()
    bits = 0
    d_estimates = []
    for seed_offset in range(max(trials * 3, 9)):
        run = run_protocol(
            frozen_d, DegeneracySketch(0.7), PublicCoins(derive_seed(seed, "ubx-degeneracy", seed_offset))
        )
        bits = max(bits, run.max_bits)
        d_estimates.append(run.output.estimate)
    mean_d = sum(d_estimates) / len(d_estimates)
    ok_d = truth_d > 0 and abs(mean_d - truth_d) / truth_d < 0.35
    rows.append((f"degeneracy: G(40,.3) vs {truth_d}", bits, ok_d))
    data["degeneracy"] = {"truth": truth_d, "mean_estimate": mean_d, "bits": bits}
    table = render_table(["problem / case", "max bits", "success"], rows)
    lines = [
        *table,
        "",
        f"densest subgraph mean relative density error: "
        f"{sum(rel_errors) / len(rel_errors):.3f}",
    ]
    return lines, data
