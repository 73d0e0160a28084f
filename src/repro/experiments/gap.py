"""Experiment GAP: the open question's empirical landscape (§1.1).

The paper leaves a gap between its Ω(n^(1/2-ε)) lower bound and the
trivial O(n) upper bound for one-round protocols.  This experiment maps
the territory empirically across instance sizes: for each scaled D_MM,
binary-search the smallest sampling budget whose strict success rate
reaches a target, and tabulate the *measured* bits next to the
proof-chain requirement and the trivial n.

What the curve shows at laptop scale: the needed bits track the special
matching scale (≈ r·log n for the sampling family), sitting far below
the trivial n and above the scaled proof-chain bound — consistent with
the open gap, resolving nothing, and measuring exactly where real
attacks land.
"""

from __future__ import annotations

from ..lowerbound import (
    attack_with_matching_protocol,
    proof_chain_bound,
    scaled_distribution,
)
from ..protocols import SampledEdgesMatching
from ..runs.spec import ParamSpec
from .registry import register
from .tables import render_rows


def minimal_budget_for_success(
    hard, target: float, trials: int, seed: int, max_budget: int | None = None
) -> tuple[int, int]:
    """Smallest edges-per-vertex budget reaching the target strict
    success rate, plus its measured max bits (binary search; the rate is
    monotone in expectation, noise absorbed by the trial count)."""
    if max_budget is None:
        max_budget = hard.n
    lo, hi = 0, max_budget
    best_bits = 0
    while lo < hi:
        mid = (lo + hi) // 2
        result = attack_with_matching_protocol(
            hard, SampledEdgesMatching(mid), trials=trials, seed=seed
        )
        if result.strict_success_rate >= target:
            hi = mid
            best_bits = result.max_bits
        else:
            lo = mid + 1
    if best_bits == 0:
        result = attack_with_matching_protocol(
            hard, SampledEdgesMatching(lo), trials=trials, seed=seed
        )
        best_bits = result.max_bits
    return lo, best_bits


@register(
    "GAP",
    "The open gap, measured (§1.1)",
    "Section 1.1 open question",
    params=(
        ParamSpec("ms", "int_list", None, help="Behrend scales to map"),
        ParamSpec("k", "int", 4, help="number of copies"),
        ParamSpec("target", "float", 0.9, help="success rate defining the knee"),
        ParamSpec("trials", "int", 12, help="trials per budget point"),
        ParamSpec("seed", "int", 0, help="base RNG seed"),
    ),
    smoke={"ms": [8, 12], "k": 3, "trials": 4, "seed": 0},
    # Every measured point sits inside the open gap, and the cost tracks
    # the special-matching scale: across the sweep it grows by far less
    # than n does.
    checks={
        "above_proof_chain_bound": lambda d, p: all(
            row["measured_bits"] >= row["proof_chain_bits"] for row in d["rows"]
        ),
        "below_trivial_n": lambda d, p: all(
            row["measured_bits"] < row["trivial_bits"] for row in d["rows"]
        ),
        "grows_slower_than_n": lambda d, p: (
            d["rows"][-1]["measured_bits"] / d["rows"][0]["measured_bits"]
            <= 2 * d["rows"][-1]["trivial_bits"] / d["rows"][0]["trivial_bits"]
        ),
    },
)
def run_gap(
    ms: list[int] | None = None,
    k: int = 4,
    target: float = 0.9,
    trials: int = 12,
    seed: int = 0,
) -> tuple[list[str], dict]:
    """Map the measured attack cost against the bound landscape across sizes."""
    if ms is None:
        ms = [8, 12, 16, 20]
    rows = []
    for m in ms:
        hard = scaled_distribution(m=m, k=k)
        budget, bits = minimal_budget_for_success(hard, target, trials, seed)
        rows.append(
            {
                "m": m,
                "n": hard.n,
                "r": hard.r,
                "budget": budget,
                "measured_bits": bits,
                "proof_chain_bits": proof_chain_bound(hard).required_bits,
                "trivial_bits": hard.n,
            }
        )
    table = render_rows(
        [
            ("m", "m"),
            ("n", "n"),
            ("r", "r"),
            ("min budget (90%)", "budget"),
            ("measured bits", "measured_bits"),
            ("proof-chain LB", "proof_chain_bits"),
            ("trivial n", "trivial_bits"),
        ],
        rows,
    )
    lines = [
        f"Smallest sampling budget reaching {target:.0%} strict success "
        f"({trials} trials/point), vs the bound landscape:",
        "",
        *table,
    ]
    return lines, {"rows": rows}
