"""Experiments L33 / L34 / L35: exact lemma verification tables.

Each runner enumerates the exact joint distribution of (J, indicators,
transcript) for a family of protocols on micro D_MM instances and
tabulates both sides of the lemma's inequality per protocol.  In exact
mode L35 enumerates one copy at a time (:func:`analyze_copies`), which
reaches the paper's k = t up to 6.
"""

from __future__ import annotations

from ..engine import ExecutionEngine, resolve_engine
from ..lowerbound import analyze_copies, analyze_protocol, micro_distribution
from ..model import PublicCoins
from ..protocols import make_protocol
from ..runs.spec import ParamSpec
from .charts import bar_chart
from .registry import register
from .tables import render_rows, render_table

_COINS = PublicCoins(seed=2020)


#: The protocols every lemma table reports, as registry specs.
SUITE_SPECS = ("full", "sampled:2", "sampled:1", "sampled:0")


def _protocol_suite():
    return [make_protocol(spec) for spec in SUITE_SPECS]


def _analyze_one(item: tuple):
    """Exact-enumeration analysis of one protocol (module-level for pools).

    ``per_copy`` selects the per-copy Lemma 3.5 tables, which are exact.
    """
    hard, protocol, exact, per_copy = item
    if per_copy:
        return analyze_copies(hard, protocol, _COINS)
    return analyze_protocol(hard, protocol, _COINS, exact=exact)


def _full_rows(data: dict) -> list[dict]:
    """The full-neighborhood protocol's rows of a lemma table."""
    return [r for r in data["rows"] if r["protocol"] == "full-neighborhood-matching"]


def _analyses(
    r: int,
    t: int,
    k: int,
    engine: ExecutionEngine | None = None,
    exact: bool = False,
    per_copy: bool = False,
):
    """Per-protocol exact analyses, fanned out over the engine.

    Each protocol's joint-distribution enumeration is independent and
    expensive (2^(k·t·r) indicator tables), so protocols — not trials —
    are the engine's work units here.  ``exact`` switches the columnar
    kernel to Fraction probabilities (the CLI's ``--exact``).
    ``per_copy``, which is exact, enumerates each copy's 2^(t·r) rows
    alone: all that Lemma 3.5 reads.
    """
    engine = resolve_engine(engine)
    hard = micro_distribution(r=r, t=t, k=k)
    suite = _protocol_suite()
    analyses = engine.map(_analyze_one, [(hard, p, exact, per_copy) for p in suite])
    return hard, list(zip(suite, analyses))


@register(
    "L33",
    "Information lower bound (Lemma 3.3)",
    "Lemma 3.3",
    params=(
        ParamSpec("r", "int", 1, help="edges per induced matching"),
        ParamSpec("t", "int", 2, help="induced matchings per RS graph"),
        ParamSpec("k", "int", 2, help="number of copies"),
    ),
    checks={
        # For every protocol in the suite, as for L34 and L35.
        "lemma33_holds": lambda d, p: all(r["holds"] for r in d["rows"]),
        # Claim 3.2: a protocol with error <= 0.01 has E|M^U| >= kr/5.
        "claim32_low_error_mu_at_least_kr_over_5": lambda d, p: all(
            r["expected_mu"] >= p["k"] * p["r"] / 5
            for r in d["rows"] if r["error"] <= 0.01
        ),
    },
)
def run_lemma33(
    r: int = 1,
    t: int = 2,
    k: int = 2,
    engine: ExecutionEngine | None = None,
    exact: bool = False,
) -> tuple[list[str], dict]:
    """I(M;Π|Σ,J) vs the proof's implied bound E|M^U| - Pr[err]·kr - 1.

    The table prints the analysis's own values, Fractions in exact mode,
    where the data rows hold floats."""
    hard, analyses = _analyses(r, t, k, engine, exact)
    rows = []
    data_rows = []
    for protocol, a in analyses:
        rows.append(
            (
                protocol.name,
                a.worst_case_bits,
                a.error_probability,
                a.expected_mu,
                a.information_revealed,
                a.lemma33_implied_bound,
                a.lemma33_holds(),
            )
        )
        data_rows.append(
            {
                "protocol": protocol.name,
                "bits": a.worst_case_bits,
                "error": float(a.error_probability),
                "expected_mu": float(a.expected_mu),
                "information": a.information_revealed,
                "implied_bound": float(a.lemma33_implied_bound),
                "holds": a.lemma33_holds(),
            }
        )
    table = render_table(
        ["protocol", "b (bits)", "Pr[err]", "E|M^U|", "I(M;Π|J)", "bound", "holds"],
        rows,
    )
    chart = bar_chart(
        labels=[row[0] for row in rows],
        values=[row[4] for row in rows],
        maximum=float(hard.k * hard.r),
    )
    lines = [
        f"micro D_MM: r={hard.r}, t={hard.t}, k={hard.k} "
        f"(kr/6 = {hard.k * hard.r / 6:.3f}, kr/5 = {hard.k * hard.r / 5:.3f})",
        "",
        *table,
        "",
        f"information revealed (full scale = kr = {hard.k * hard.r} bits):",
        "",
        *chart,
    ]
    return lines, {"rows": data_rows}


@register(
    "L34",
    "Public/unique decomposition (Lemma 3.4)",
    "Lemma 3.4",
    params=(
        ParamSpec("r", "int", 1, help="edges per induced matching"),
        ParamSpec("t", "int", 2, help="induced matchings per RS graph"),
        ParamSpec("k", "int", 2, help="number of copies"),
    ),
    checks={
        "lemma34_holds": lambda d, p: all(r["holds"] for r in d["rows"]),
    },
)
def run_lemma34(
    r: int = 1,
    t: int = 2,
    k: int = 2,
    engine: ExecutionEngine | None = None,
    exact: bool = False,
) -> tuple[list[str], dict]:
    """I(M;Π|Σ,J) <= H(Π(P)) + Σ_i I(M_{i,J};Π(U_i)|Σ,J), exactly."""
    hard, analyses = _analyses(r, t, k, engine, exact)
    rows = []
    for protocol, a in analyses:
        unique_sum = sum(a.unique_information(i) for i in range(hard.k))
        rows.append(
            {
                "protocol": protocol.name,
                "lhs": a.lemma34_lhs,
                "public_entropy": a.public_entropy,
                "unique_information_sum": unique_sum,
                "rhs": a.lemma34_rhs,
                "holds": a.lemma34_holds(),
            }
        )
    table = render_rows(
        [
            ("protocol", "protocol"),
            ("I(M;Π|J)", "lhs"),
            ("H(Π(P))", "public_entropy"),
            ("Σ I(M_i;Π(U_i)|J)", "unique_information_sum"),
            ("rhs", "rhs"),
            ("holds", "holds"),
        ],
        rows,
    )
    return table, {"rows": rows}


@register(
    "L35",
    "Direct-sum for unique players (Lemma 3.5)",
    "Lemma 3.5",
    params=(
        ParamSpec("r", "int", 1, help="edges per induced matching"),
        ParamSpec("t", "int", 3, help="induced matchings per RS graph"),
        ParamSpec("k", "int", 2, help="number of copies"),
    ),
    smoke={"r": 1, "t": 2, "k": 2},
    checks={
        "lemma35_holds": lambda d, p: all(r["holds"] for r in d["rows"]),
        # The 1/t factor leaves slack for the full protocol, whose unique
        # players describe all t matchings, not just the special one ...
        "full_protocol_within_entropy_over_t": lambda d, p: all(
            row["entropy_over_t"] >= row["information"] - 1e-6
            for row in _full_rows(d)
        ),
        # ... while its per-copy information stays r bits at every t.
        "full_protocol_reveals_r_bits_per_copy": lambda d, p: all(
            abs(row["information"] - p["r"]) < 1e-6 for row in _full_rows(d)
        ),
    },
)
def run_lemma35(
    r: int = 1,
    t: int = 3,
    k: int = 2,
    engine: ExecutionEngine | None = None,
    exact: bool = False,
) -> tuple[list[str], dict]:
    """Per copy i: I(M_{i,J};Π(U_i)|Σ,J) <= H(Π(U_i))/t — the 1/t factor
    is the direct-sum engine of the whole lower bound, so the table
    reports it per copy.  In exact mode each copy's table is enumerated
    on its own: the same Fractions, at t·2^(t·r) outcomes per copy."""
    hard, analyses = _analyses(r, t, k, engine, exact, per_copy=exact)
    rows = []
    for protocol, a in analyses:
        for i in range(hard.k):
            info = a.unique_information(i)
            entropy = a.unique_entropy(i)
            rows.append(
                {
                    "protocol": protocol.name,
                    "copy": i,
                    "information": info,
                    "entropy": entropy,
                    "entropy_over_t": entropy / hard.t,
                    "holds": a.lemma35_holds(i),
                }
            )
    table = render_rows(
        [
            ("protocol", "protocol"),
            ("copy i", "copy"),
            ("I(M_i;Π(U_i)|J)", "information"),
            ("H(Π(U_i))", "entropy"),
            ("H/t", "entropy_over_t"),
            ("holds", "holds"),
        ],
        rows,
    )
    return table, {"rows": rows}
