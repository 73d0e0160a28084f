"""Experiment T1: the maximal matching lower bound (Theorem 1).

Two complementary views:

* T1a — the analytic landscape: lower-bound and upper-bound curves
  across n, in both the headline Ω(n^(1/2-ε)) form and the
  constant-explicit Behrend form.
* T1b — the adversarial sweep: the success probability of budgeted
  matching protocols on D_MM as the sketch budget grows, against the
  exact proof-chain requirement for that concrete distribution.
"""

from __future__ import annotations

from ..engine import ExecutionEngine
from ..lowerbound import (
    bound_table,
    budget_sweep,
    empirical_information,
    proof_chain_bound,
    scaled_distribution,
)
from ..lowerbound.bounds import theorem1_behrend_form_bits
from ..protocols import SampledEdgesMatching
from ..runs.spec import ParamSpec
from .charts import bar_chart
from .registry import register
from .tables import render_kv, render_rows, render_table


@register(
    "T1a",
    "Bound landscape (Theorem 1, analytic)",
    "Theorem 1 / Section 1",
    params=(
        ParamSpec("ns", "int_list", None, help="graph sizes to tabulate"),
    ),
    smoke={"ns": [10**3, 10**6]},
    # The separation the paper proves, at the largest tabulated n.
    checks={
        "agm_polylog_below_theorem1": lambda d, p: (
            d["rows"][-1]["agm_log3"] < d["rows"][-1]["theorem1_epsilon_form"]
        ),
        "theorem1_below_two_round_sqrt": lambda d, p: (
            d["rows"][-1]["theorem1_epsilon_form"] < d["rows"][-1]["two_round_sqrt"]
        ),
        "two_round_sqrt_below_trivial": lambda d, p: (
            d["rows"][-1]["two_round_sqrt"] < d["rows"][-1]["trivial"]
        ),
    },
)
def run_theorem1_landscape(ns: list[int] | None = None) -> tuple[list[str], dict]:
    """Tabulate the analytic bound landscape across n."""
    if ns is None:
        ns = [10**3, 10**6, 10**9, 10**12]
    rows = [
        {
            "n": row.n,
            "agm_log3": row.agm_bits,
            "theorem1_epsilon_form": row.theorem1_bits,
            "theorem1_behrend_form": theorem1_behrend_form_bits(row.n),
            "two_round_sqrt": row.two_round_bits,
            "trivial": row.trivial_bits,
        }
        for row in bound_table(ns)
    ]
    table = render_rows(
        [
            ("n", "n"),
            ("AGM/coloring log^3 n", "agm_log3"),
            ("LB n^0.45", "theorem1_epsilon_form"),
            ("LB √n/e^c√ln n", "theorem1_behrend_form"),
            ("2-round √n·log n", "two_round_sqrt"),
            ("trivial n", "trivial"),
        ],
        rows,
    )
    lines = [
        "Sketch-size landscape (bits per player).  The paper's separation:",
        "spanning forest / coloring sit on the polylog curve; MM and MIS",
        "sit above the LB curves; one extra round collapses them to √n.",
        "",
        *table,
    ]
    return lines, {"rows": rows}


@register(
    "T1b",
    "Adversarial budget sweep (Theorem 1, empirical)",
    "Theorem 1",
    params=(
        ParamSpec("m", "int", 12, help="Behrend scale of D_MM"),
        ParamSpec("k", "int", 4, help="number of copies"),
        ParamSpec("trials", "int", 25, help="trials per budget knob"),
        ParamSpec("knobs", "int_list", None, help="edges-per-vertex budgets"),
        ParamSpec("seed", "int", 0, help="base RNG seed"),
        ParamSpec("information", "bool", False,
                  help="add the plug-in I(J;Π) column (reruns per knob)"),
    ),
    smoke={"m": 10, "k": 3, "trials": 6, "knobs": [0, 2], "seed": 0},
    checks={
        "full_budget_succeeds": lambda d, p: d["rows"][-1]["strict_rate"] == 1.0,
        "starved_budget_fails": lambda d, p: d["rows"][0]["strict_rate"] < 0.5,
        "success_improves_with_budget": lambda d, p: (
            d["rows"][0]["strict_rate"] <= d["rows"][-1]["strict_rate"]
        ),
    },
)
def run_theorem1_sweep(
    m: int = 12,
    k: int = 4,
    trials: int = 25,
    knobs: list[int] | None = None,
    seed: int = 0,
    engine: ExecutionEngine | None = None,
    information: bool = False,
) -> tuple[list[str], dict]:
    """Sweep sampling budgets against D_MM and chart the success threshold.

    The sweep's inner Monte-Carlo loops route through the execution
    engine: every knob shares the cached instance family, and trials fan
    out over the engine's backend with backend-independent results.

    ``information=True`` adds a plug-in I(J ; Π) column per knob
    (estimated on the same instance family via the columnar empirical
    distribution) — the Monte-Carlo shadow of Lemma 3.3's revealed
    information.  Off by default: it reruns the protocol per knob.
    """
    hard = scaled_distribution(m=m, k=k)
    if knobs is None:
        knobs = [0, 1, 2, 4, 8, 16, hard.n]
    chain = proof_chain_bound(hard)
    points = budget_sweep(
        hard, SampledEdgesMatching, knobs, trials=trials, seed=seed, engine=engine
    )
    rows = []
    for p in points:
        r = p.result
        row = {
            "knob": p.knob,
            "max_bits": r.max_bits,
            "strict_rate": r.strict_success_rate,
            "relaxed_rate": r.relaxed_success_rate,
            "mean_unique_unique": r.mean_unique_unique,
        }
        if information:
            row["plugin_information"] = empirical_information(
                hard,
                SampledEdgesMatching(p.knob),
                trials=trials,
                seed=seed,
                engine=engine,
            )
        rows.append(row)
    headers = [
        "edges/vertex",
        "max bits",
        "strict success",
        "relaxed success",
        "mean UU edges",
        "kr/4",
    ]
    if information:
        headers.append("I(J;Π) plug-in")
    # The kr/4 column is the instance's constant, not a data key.
    table = render_table(
        headers,
        [
            [row["knob"], row["max_bits"], row["strict_rate"], row["relaxed_rate"],
             row["mean_unique_unique"], hard.claim31_threshold]
            + ([row["plugin_information"]] if information else [])
            for row in rows
        ],
    )
    info = render_kv(
        [
            ("distribution", f"m={m}, k={k}: N={hard.N}, r={hard.r}, t={hard.t}, n={hard.n}"),
            ("proof-chain information bound kr/6", chain.information_bound),
            ("proof-chain required bits", chain.required_bits),
            ("trials per point", trials),
        ]
    )
    chart = bar_chart(
        labels=[f"b={row['max_bits']} bits" for row in rows],
        values=[row["strict_rate"] for row in rows],
        maximum=1.0,
    )
    lines = [*info, "", *table, "", "strict success vs measured bits:", "", *chart]
    return lines, {"rows": rows, "required_bits": chain.required_bits}
