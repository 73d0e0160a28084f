"""Experiment T2: the MIS lower bound via the Section-4 reduction.

Theorem 2's content, made empirical: a *correct* MIS protocol on H lets
the referee recover the entire special matching of G (at 2b bits per
player), while budgeted MIS protocols fail — so MIS sketches inherit the
matching lower bound.
"""

from __future__ import annotations

from ..engine import ExecutionEngine, derive_seed, resolve_engine
from ..lowerbound import (
    budget_sweep,
    run_reduction,
    sample_dmm_family,
    scaled_distribution,
)
from ..model import PublicCoins
from ..protocols import FullNeighborhoodMIS, SampledEdgesMIS
from ..runs.spec import ParamSpec
from .registry import register
from .tables import render_kv, render_rows


def _reduction_trial(item: tuple) -> tuple[bool, bool, int]:
    """Run one MIS protocol through the reduction (module-level for pools)."""
    instance, coins_seed, protocol = item
    run = run_reduction(instance, protocol, PublicCoins(coins_seed))
    return (
        run.output_is_exactly_survivors,
        run.recovered_all_survivors,
        run.per_player_bits,
    )


def _recovery_rate(data: dict, protocol: str) -> float:
    """One MIS protocol's exact matching-recovery rate."""
    rows = [r for r in data["rows"] if r["protocol"] == protocol]
    return rows[0]["exact_recovery_rate"]


@register(
    "T2",
    "MIS lower bound via reduction (Theorem 2)",
    "Section 4, Theorem 2",
    params=(
        ParamSpec("m", "int", 10, help="Behrend scale of D_MM"),
        ParamSpec("k", "int", 3, help="number of copies"),
        ParamSpec("trials", "int", 15, help="trials per budget point"),
        ParamSpec("budgets", "int_list", None, help="MIS sampling budgets"),
        ParamSpec("seed", "int", 0, help="base RNG seed"),
    ),
    smoke={"m": 8, "k": 2, "trials": 4, "budgets": [0], "seed": 0},
    checks={
        # A correct MIS protocol recovers the special matching every time;
        # a budgeted one fails the recovery, Theorem 2's empirical face.
        "full_mis_recovers_matching": lambda d, p: (
            _recovery_rate(d, "full-neighborhood-mis") == 1.0
        ),
        "zero_budget_mis_fails": lambda d, p: (
            _recovery_rate(d, "sampled-edges-mis(0)") < 0.5
        ),
    },
)
def run_theorem2(
    m: int = 10,
    k: int = 3,
    trials: int = 15,
    budgets: list[int] | None = None,
    seed: int = 0,
    engine: ExecutionEngine | None = None,
) -> tuple[list[str], dict]:
    """Drive MIS protocols through the reduction and attack G directly."""
    engine = resolve_engine(engine)
    hard = scaled_distribution(m=m, k=k)
    if budgets is None:
        budgets = [0, 1, 2, 4]
    protocols = [FullNeighborhoodMIS()] + [SampledEdgesMIS(b) for b in budgets]
    rows = []
    instances = sample_dmm_family(hard, trials, seed)
    for protocol in protocols:
        outcomes = engine.map(
            _reduction_trial,
            [
                (inst, derive_seed(seed, "t2-reduction", trial), protocol)
                for trial, inst in enumerate(instances)
            ],
        )
        rows.append(
            {
                "protocol": protocol.name,
                "per_player_bits": max((o[2] for o in outcomes), default=0),
                "exact_recovery_rate": sum(o[0] for o in outcomes) / trials,
                "superset_recovery_rate": sum(o[1] for o in outcomes) / trials,
            }
        )
    table = render_rows(
        [
            ("MIS protocol on H", "protocol"),
            ("2b bits/player", "per_player_bits"),
            ("exact recovery", "exact_recovery_rate"),
            ("contains survivors", "superset_recovery_rate"),
        ],
        rows,
    )

    # Complementary view: MIS protocols attacked *directly* on G ~ D_MM
    # (no reduction) — the strict-task failure Theorem 2 also implies.
    direct_points = budget_sweep(
        hard,
        make_protocol=SampledEdgesMIS,
        knobs=[0, 1, 2, hard.n],
        trials=trials,
        seed=seed,
        mis=True,
        engine=engine,
    )
    direct = [
        {"knob": p.knob, "bits": p.result.max_bits,
         "strict_rate": p.result.strict_success_rate}
        for p in direct_points
    ]
    direct_table = render_rows(
        [
            ("MIS budget (edges/vertex)", "knob"),
            ("max bits", "bits"),
            ("maximal-MIS success", "strict_rate"),
        ],
        direct,
    )
    info = render_kv(
        [
            ("distribution", f"m={m}, k={k}: n={hard.n}, H has {2 * hard.n} vertices"),
            ("trials", trials),
            (
                "reading",
                "a correct MIS protocol recovers the matching exactly => "
                "MIS needs >= half the matching bound (Theorem 2)",
            ),
        ]
    )
    lines = [
        *info, "", *table, "", "Direct MIS attack on G (no reduction):", "",
        *direct_table,
    ]
    return lines, {"rows": rows, "direct_sweep": direct}
