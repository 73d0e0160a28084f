"""Experiment ATK: the attack landscape on D_MM.

Theorem 1 quantifies over all protocols; this experiment pits every
one-round attack family in the repository against the same hard
distribution at comparable budgets and reports worst-case *and* average
bits — the latter because the paper remarks (after Theorem 1, via [50])
that the bound extends to average communication.

The most instructive row is the low-degree-only attack: it identifies
the unique vertices by their degree (an honest consequence of how D_MM
is built) and succeeds at the *relaxed* task for about (|A|/2)·log n
bits from the players that talk — which in the paper's regime is
Θ(r log n), i.e. the lower bound is tight at the r scale against this
attack.  Its tiny average cost also shows why the average-communication
extension needs a different input distribution trick.
"""

from __future__ import annotations

from ..lowerbound import (
    attack_with_matching_protocol,
    proof_chain_bound,
    scaled_distribution,
)
from ..protocols import (
    DegreeAdaptiveMatching,
    HybridMatching,
    LinearL0Matching,
    LowDegreeOnlyMatching,
    PriorityEdgeMatching,
    SampledEdgesMatching,
)
from ..runs.spec import ParamSpec
from .registry import register
from .tables import render_kv, render_rows


@register(
    "ATK",
    "Attack landscape on D_MM",
    "Theorem 1 + remark (avg case)",
    params=(
        ParamSpec("m", "int", 12, help="Behrend scale of D_MM"),
        ParamSpec("k", "int", 4, help="number of copies"),
        ParamSpec("trials", "int", 20, help="trials per attack family"),
        ParamSpec("seed", "int", 0, help="base RNG seed"),
    ),
    smoke={"m": 8, "k": 2, "trials": 4, "seed": 0},
    checks={
        # The lower bound is never violated: an attack that succeeds
        # pays at least the proof chain's required bits.
        "successful_attacks_pay_required_bits": lambda d, p: all(
            r["max_bits"] >= d["required_bits"]
            for r in d["rows"] if r["strict_rate"] > 0.99
        ),
        # Only the sparse players talk, so average bits sit below max.
        "low_degree_only_mean_at_most_max": lambda d, p: next(
            r["mean_bits"] <= r["max_bits"]
            for r in d["rows"] if r["protocol"].startswith("low-degree-only")
        ),
    },
)
def run_attacks(
    m: int = 12, k: int = 4, trials: int = 20, seed: int = 0
) -> tuple[list[str], dict]:
    """Run every one-round attack family against one D_MM."""
    hard = scaled_distribution(m=m, k=k)
    # A threshold between the unique-vertex degree (~|A|/2) and the
    # public-vertex degree (~k|A|/2); |A| tracked by r * 3 / trim slack.
    unique_degree_cap = max(2, hard.rs.graph.max_degree() // 2)
    protocols = [
        SampledEdgesMatching(1),
        SampledEdgesMatching(2),
        PriorityEdgeMatching(2),
        LinearL0Matching(1),
        DegreeAdaptiveMatching(2),
        LowDegreeOnlyMatching(unique_degree_cap),
        HybridMatching(unique_degree_cap, 2),
    ]
    rows = []
    for protocol in protocols:
        result = attack_with_matching_protocol(hard, protocol, trials, seed)
        rows.append(
            {
                "protocol": protocol.name,
                "max_bits": result.max_bits,
                "mean_bits": result.mean_bits,
                "strict_rate": result.strict_success_rate,
                "relaxed_rate": result.relaxed_success_rate,
                "mean_unique_unique": result.mean_unique_unique,
            }
        )
    chain = proof_chain_bound(hard)
    info = render_kv(
        [
            ("distribution", f"m={m}, k={k}: N={hard.N}, r={hard.r}, t={hard.t}, n={hard.n}"),
            ("kr/4 (relaxed task threshold)", hard.claim31_threshold),
            ("proof-chain required bits (this instance)", chain.required_bits),
            ("low-degree-only threshold", unique_degree_cap),
            ("trials per protocol", trials),
        ]
    )
    table = render_rows(
        [
            ("protocol", "protocol"),
            ("max bits", "max_bits"),
            ("avg bits", "mean_bits"),
            ("strict", "strict_rate"),
            ("relaxed", "relaxed_rate"),
            ("mean UU", "mean_unique_unique"),
        ],
        rows,
    )
    return [*info, "", *table], {"rows": rows, "required_bits": chain.required_bits}
