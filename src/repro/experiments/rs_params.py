"""Experiment P21: measured RS-graph parameters vs Proposition 2.1."""

from __future__ import annotations

from ..rsgraphs import (
    best_uniform,
    build_catalog_entry,
    proposition21_r,
    proposition21_t,
    tripartite_rs_graph,
)
from ..runs.spec import ParamSpec
from .registry import register
from .tables import render_rows, render_table


def _sum_class(data: dict) -> list[dict]:
    """The sum-class construction's rows, by increasing m."""
    return [row for row in data["rows"] if "construction" not in row]


@register(
    "P21",
    "RS graph parameters (Proposition 2.1)",
    "Section 2.2, Prop 2.1",
    params=(
        ParamSpec("ms", "int_list", None, help="Behrend scales to tabulate"),
    ),
    smoke={"ms": [4, 8]},
    checks={
        # The t = Θ(N) half of Proposition 2.1, on the sum-class rows.
        "sum_class_t_grows_with_N": lambda d, p: (
            _sum_class(d)[-1]["t"] > _sum_class(d)[0]["t"]
        ),
        "sum_class_t_at_least_N_over_10": lambda d, p: (
            _sum_class(d)[-1]["t"] >= _sum_class(d)[-1]["n"] / 10
        ),
        "uniform_partition_edges_r_times_t": lambda d, p: all(
            row["edges"] == row["r"] * row["t"] for row in d["rows"]
        ),
    },
)
def run_rs_params(ms: list[int] | None = None) -> tuple[list[str], dict]:
    """Tabulate achieved (r, t) of the sum-class construction against the
    asymptotic r = N/e^Θ(sqrt(log N)), t = N/3 of Proposition 2.1."""
    if ms is None:
        ms = [4, 8, 16, 32, 64, 128]
    rows = []
    for m in ms:
        _, params = build_catalog_entry(m)
        rows.append(
            {
                "m": m,
                "n": params.n,
                "ap_free": params.ap_free_size,
                "r": params.r,
                "t": params.t,
                "edges": params.num_edges,
                "r_asymptotic": proposition21_r(params.n),
                "t_asymptotic": proposition21_t(params.n),
            }
        )
    # The t ratio is printed for the reader; no check reads it.
    table = render_table(
        ["m", "N", "|A|", "r", "t", "edges", "r~N/e^Θ(√logN)", "t~N/3", "t ratio"],
        [
            [row[key] for key in ("m", "n", "ap_free", "r", "t", "edges",
                                  "r_asymptotic", "t_asymptotic")]
            + [row["t"] / row["t_asymptotic"] if row["t_asymptotic"] else 0.0]
            for row in rows
        ],
    )

    # The original RS78 tripartite construction, for comparison: same
    # AP-free sets, three matching families, larger N for the same m.
    tripartite = []
    for m in ms[: min(4, len(ms))]:
        uni = best_uniform(tripartite_rs_graph(m))
        tripartite.append(
            {"m": m, "construction": "tripartite", "n": uni.num_vertices,
             "r": uni.r, "t": uni.num_matchings,
             "edges": uni.r * uni.num_matchings}
        )
    tri_table = render_rows(
        [("m", "m"), ("N", "n"), ("r", "r"), ("t", "t"), ("edges", "edges")],
        tripartite,
    )
    lines = [*table, "", "RS78 tripartite construction (same |A|):", "", *tri_table]
    return lines, {"rows": rows + tripartite}
