"""Conformance subsystem: oracle registry, metamorphic laws, fuzz driver.

The standing correctness gate of the reproduction (see
``docs/testing.md``): every fast↔reference implementation pair is
declared once in :mod:`~repro.conformance.oracles`, every cross-cutting
invariant once in :mod:`~repro.conformance.laws`, and the deterministic
fuzz driver in :mod:`~repro.conformance.fuzz` exercises all of them from
SHA-256 seed streams with greedy counterexample shrinking and replayable
JSON repro bundles.  ``repro conformance run / shrink`` is the CLI.
"""

from .cases import Case, case_rng, case_seed
from .fuzz import (
    ConformanceReport,
    Failure,
    PairStats,
    budget_shares,
    failed_laws,
    load_bundle,
    replay_bundle,
    run_conformance,
    shrink_case,
)
from .laws import LAWS, CheckContext, Law, all_layers, laws_for
from .oracles import (
    ORACLE_PAIRS,
    OraclePair,
    Verdict,
    all_pairs,
    get_pair,
    pairs_for_layers,
)

__all__ = [
    "Case",
    "CheckContext",
    "ConformanceReport",
    "Failure",
    "LAWS",
    "Law",
    "ORACLE_PAIRS",
    "OraclePair",
    "PairStats",
    "Verdict",
    "all_layers",
    "all_pairs",
    "budget_shares",
    "case_rng",
    "case_seed",
    "failed_laws",
    "get_pair",
    "laws_for",
    "load_bundle",
    "pairs_for_layers",
    "replay_bundle",
    "run_conformance",
    "shrink_case",
]
