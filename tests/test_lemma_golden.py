"""Golden regression: ExactAnalysis quantities on seed micro-instances.

``tests/data/golden_lemmas.json`` pins every lemma quantity the dict
oracle produced on the seed micro-instances.  The columnar kernel (and
its exact Fraction mode) must reproduce them — any drift means the
refactor changed the math, not just the representation — and so must
the dict oracle, built over the columnar table's rows.
"""

import json
import re
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from repro.infotheory import JointDistribution
from repro.lowerbound import analyze_protocol, micro_distribution
from repro.model import PublicCoins
from repro.protocols import FullNeighborhoodMatching, SampledEdgesMatching

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_lemmas.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())
COIN_SEED = 2020


def protocol_from_name(name: str):
    if name == "full-neighborhood-matching":
        return FullNeighborhoodMatching()
    match = re.fullmatch(r"sampled-edges-matching\((\d+)\)", name)
    if match:
        return SampledEdgesMatching(int(match.group(1)))
    raise ValueError(f"unknown golden protocol {name!r}")


def case_id(record: dict) -> str:
    return f"r{record['r']}t{record['t']}k{record['k']}-{record['protocol']}"


@pytest.mark.parametrize("record", GOLDEN, ids=[case_id(r) for r in GOLDEN])
class TestGoldenLemmas:
    def _analyze(self, record, **kwargs):
        hard = micro_distribution(r=record["r"], t=record["t"], k=record["k"])
        protocol = protocol_from_name(record["protocol"])
        return analyze_protocol(
            hard, protocol, PublicCoins(seed=COIN_SEED), **kwargs
        )

    def test_table_kernel_matches_golden(self, record):
        a = self._analyze(record)
        assert a.expected_mu == pytest.approx(record["expected_mu"], abs=1e-12)
        assert a.error_probability == pytest.approx(
            record["error_probability"], abs=1e-12
        )
        assert a.worst_case_bits == record["worst_case_bits"]
        assert a.information_revealed == pytest.approx(
            record["information_revealed"], abs=1e-9
        )
        assert a.lemma33_implied_bound == pytest.approx(
            record["lemma33_implied_bound"], abs=1e-9
        )
        assert a.public_entropy == pytest.approx(
            record["public_entropy"], abs=1e-9
        )
        assert a.lemma34_rhs == pytest.approx(record["lemma34_rhs"], abs=1e-9)
        for j, (info, entropy) in enumerate(
            zip(record["unique_information"], record["unique_entropy"])
        ):
            assert a.unique_information(j) == pytest.approx(info, abs=1e-9)
            assert a.unique_entropy(j) == pytest.approx(entropy, abs=1e-9)
        assert a.lemma33_holds() == record["lemma33_holds"]
        assert a.lemma34_holds() == record["lemma34_holds"]
        assert a.lemma35_all_hold() == record["lemma35_all_hold"]

    def test_exact_mode_bit_identical_probabilities(self, record):
        a = self._analyze(record, exact=True)
        # mu and Pr[err] are dyadic rationals on these instances, so the
        # exact Fractions must convert to the golden floats bit-for-bit.
        assert isinstance(a.expected_mu, Fraction)
        assert float(a.expected_mu) == record["expected_mu"]
        assert float(a.error_probability) == record["error_probability"]
        assert a.worst_case_bits == record["worst_case_bits"]
        # Entropic quantities are floats computed from exact masses.
        assert a.information_revealed == pytest.approx(
            record["information_revealed"], abs=1e-9
        )
        assert a.lemma34_rhs == pytest.approx(record["lemma34_rhs"], abs=1e-9)
        assert a.lemma33_holds() == record["lemma33_holds"]
        assert a.lemma34_holds() == record["lemma34_holds"]
        assert a.lemma35_all_hold() == record["lemma35_all_hold"]

    def test_reference_kernel_matches_golden(self, record):
        # The dict oracle, built over the table's rows.
        table = self._analyze(record)
        a = replace(table, dist=JointDistribution(table.dist.variables, table.dist.pmf))
        assert a.expected_mu == pytest.approx(record["expected_mu"], abs=1e-12)
        assert a.information_revealed == pytest.approx(
            record["information_revealed"], abs=1e-9
        )
        assert a.lemma35_all_hold() == record["lemma35_all_hold"]
