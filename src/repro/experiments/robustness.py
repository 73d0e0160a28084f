"""Experiment ROB: protocol robustness across graph families.

The paper's algorithms are analyzed for worst-case graphs; a library
user wants to know how the implementations behave across standard
families.  This experiment runs the main upper-bound protocols on
grids, random regular graphs, preferential-attachment graphs, and
G(n, p), reporting success rates with Wilson 95% intervals.

Each (family, trial) cell is an independent work unit with its own
hash-derived generator and coin seeds, so the engine can fan cells out
across workers and the table is identical under every backend.
"""

from __future__ import annotations

import random

from ..engine import ExecutionEngine, derive_seed, resolve_engine
from ..graphs import (
    barabasi_albert,
    erdos_renyi,
    grid_graph,
    is_maximal_independent_set,
    is_maximal_matching,
    is_spanning_forest,
    random_regular,
)
from ..model import PublicCoins, run_adaptive_protocol, run_protocol
from ..protocols import FilteringMatching, SampleAndPruneMIS
from ..sketches import (
    AGMSpanningForest,
    PaletteSparsificationColoring,
    is_proper_coloring,
)
from ..runs.spec import ParamSpec
from .registry import register
from .stats import wilson_interval
from .tables import render_table

_FAMILIES = ("grid", "random-regular(4)", "barabasi-albert(2)", "gnp(0.3)")


def _family_graph(family: str, n: int, rng: random.Random):
    side = max(2, int(n**0.5))
    if family == "grid":
        return grid_graph(side, side)
    if family == "random-regular(4)":
        return random_regular(n - (n % 2), 4, rng)
    if family == "barabasi-albert(2)":
        return barabasi_albert(n, 2, rng)
    if family == "gnp(0.3)":
        return erdos_renyi(n, 0.3, rng)
    raise ValueError(f"unknown family {family!r}")


def _robustness_cell(item: tuple) -> tuple[bool, bool, bool, bool]:
    """Run all four protocols on one (family, trial) cell."""
    family, n, trial, seed = item
    # One frozen graph feeds four protocol runs and four checkers.
    g = _family_graph(family, n, random.Random(derive_seed(seed, "rob", family, trial))).freeze()
    coins = PublicCoins(derive_seed(seed, "rob-coins", family, trial))

    run = run_protocol(g, AGMSpanningForest(), coins)
    agm_ok = is_spanning_forest(g, run.output)

    arun = run_adaptive_protocol(g, FilteringMatching(num_rounds=2), coins)
    mm_ok = is_maximal_matching(g, arun.output)

    arun = run_adaptive_protocol(g, SampleAndPruneMIS(cap_multiplier=1.5), coins)
    mis_ok = is_maximal_independent_set(g, arun.output)

    delta = g.max_degree()
    run = run_protocol(g, PaletteSparsificationColoring(delta), coins)
    col_ok = run.output.complete and is_proper_coloring(
        g, run.output.colors, delta + 1
    )
    return agm_ok, mm_ok, mis_ok, col_ok


@register(
    "ROB",
    "Protocol robustness across graph families",
    "library validation",
    params=(
        ParamSpec("n", "int", 25, help="vertices per family graph"),
        ParamSpec("trials", "int", 6, help="trials per protocol/family cell"),
        ParamSpec("seed", "int", 0, help="base RNG seed"),
    ),
    smoke={"n": 16, "trials": 3, "seed": 0},
    # AGM and coloring carry w.h.p. guarantees; the adaptive MM/MIS are
    # heuristically capped, so they need solid-but-not-perfect rates.
    checks={
        "agm_at_least_80pct": lambda d, p: all(r["agm"] >= 0.8 for r in d["rows"]),
        "coloring_at_least_80pct": lambda d, p: all(
            row["coloring"] >= 0.8 for row in d["rows"]
        ),
        "filtering_mm_at_least_60pct": lambda d, p: all(
            row["filtering-mm"] >= 0.6 for row in d["rows"]
        ),
        "sap_mis_at_least_60pct": lambda d, p: all(
            row["sap-mis"] >= 0.6 for row in d["rows"]
        ),
    },
)
def run_robustness(
    n: int = 25,
    trials: int = 6,
    seed: int = 0,
    engine: ExecutionEngine | None = None,
) -> tuple[list[str], dict]:
    """Run the main protocols across standard graph families with Wilson CIs."""
    engine = resolve_engine(engine)
    items = [
        (family, n, trial, seed)
        for family in _FAMILIES
        for trial in range(trials)
    ]
    outcomes = engine.map(_robustness_cell, items)
    rows = []
    data_rows = []
    for index, family in enumerate(_FAMILIES):
        cells = outcomes[index * trials : (index + 1) * trials]
        agm_ok = sum(c[0] for c in cells)
        mm_ok = sum(c[1] for c in cells)
        mis_ok = sum(c[2] for c in cells)
        col_ok = sum(c[3] for c in cells)
        estimates = {
            "agm": wilson_interval(agm_ok, trials),
            "filtering-mm": wilson_interval(mm_ok, trials),
            "sap-mis": wilson_interval(mis_ok, trials),
            "coloring": wilson_interval(col_ok, trials),
        }
        rows.append(
            (
                family,
                str(estimates["agm"]),
                str(estimates["filtering-mm"]),
                str(estimates["sap-mis"]),
                str(estimates["coloring"]),
            )
        )
        data_rows.append(
            {
                "family": family,
                **{name: est.point for name, est in estimates.items()},
            }
        )
    table = render_table(
        ["family", "AGM forest", "2-round MM", "3-round MIS", "(Δ+1)-coloring"],
        rows,
    )
    lines = [
        f"n ≈ {n}, {trials} trials per cell; entries are success "
        "rate [Wilson 95% interval]",
        "",
        *table,
    ]
    return lines, {"rows": data_rows, "trials": trials}
