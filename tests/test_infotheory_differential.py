"""Differential suite: columnar TableDistribution vs the dict oracle.

The queries (pmf, supports, marginals, conditionals, entropies, mutual
informations, probabilities) are compared by the registry's
``infotheory`` pair, which ``TestDistributionEquivalence`` runs.  Here
too: divergences across kernels, exact mode bit-identical across
construction orders, and the lemma quantities of ``analyze_protocol``'s
table against the dict oracle built over the same rows.
"""

import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.infotheory import (
    JointDistribution,
    TableDistribution,
    kl_divergence,
    total_variation,
)

from .pair_runner import PairRun

ABS = 1e-9


def random_pmf(seed: int, arity: int, values: int) -> dict:
    rng = random.Random(seed)
    weights = {
        outcome: rng.random() + 1e-6
        for outcome in itertools.product(range(values), repeat=arity)
    }
    # Randomly zero some outcomes so supports are irregular.
    for outcome in list(weights):
        if rng.random() < 0.25 and len(weights) > 2:
            del weights[outcome]
    total = sum(weights.values())
    return {o: w / total for o, w in weights.items()}


@pytest.fixture(scope="module")
def infotheory():
    """One run of the ``infotheory`` pair's first 40 cases for every id
    of :class:`TestDistributionEquivalence`."""
    return PairRun("infotheory", 40)


class TestDistributionEquivalence:
    """Runs of the registry's ``infotheory`` pair: random tables (float,
    or exact with per-row Fraction weights) against the dict oracle."""

    def test_pmf_and_support(self, infotheory):
        infotheory.check(40, "differential")

    def test_marginals(self, infotheory):
        infotheory.check(40, "differential")

    def test_conditionals(self, infotheory):
        infotheory.check(40, "differential")

    def test_entropies(self, infotheory):
        infotheory.check(40, "differential")

    def test_mutual_information(self, infotheory):
        infotheory.check(40, "differential")

    def test_probability_queries(self, infotheory):
        infotheory.check(30, "differential")


class TestDivergenceEquivalence:
    @given(st.integers(0, 300))
    @settings(max_examples=30, deadline=None)
    def test_kl_and_tv_cross_kernel(self, seed):
        names = ("v0", "v1")
        p, q = random_pmf(seed, 2, 3), random_pmf(seed + 10_000, 2, 3)
        ref_p, tab_p = JointDistribution(names, p), TableDistribution(names, p)
        ref_q, tab_q = JointDistribution(names, q), TableDistribution(names, q)
        kl_ref = kl_divergence(ref_p, ref_q)
        kl_tab = kl_divergence(tab_p, tab_q)
        if math.isinf(kl_ref):
            assert math.isinf(kl_tab)
        else:
            assert kl_tab == pytest.approx(kl_ref, abs=1e-8)
        assert total_variation(tab_p, tab_q) == pytest.approx(
            total_variation(ref_p, ref_q), abs=ABS
        )
        # Mixed-kernel calls agree too (shared items()/get() surface).
        assert total_variation(ref_p, tab_q) == pytest.approx(
            total_variation(tab_p, ref_q), abs=ABS
        )


class TestExactModeBitIdentical:
    @given(st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_construction_order_bit_identical(self, seed):
        rng = random.Random(seed)
        outcomes = list(itertools.product(range(2), repeat=3))
        weights = [rng.randrange(1, 20) for _ in outcomes]
        total = sum(weights)
        pmf = {
            o: Fraction(w, total) for o, w in zip(outcomes, weights)
        }
        names = ("a", "b", "c")
        d1 = TableDistribution(names, pmf, exact=True)
        shuffled = list(pmf.items())
        rng.shuffle(shuffled)
        d2 = TableDistribution(names, dict(shuffled), exact=True)
        assert d1.to_bytes() == d2.to_bytes()
        assert d1.digest == d2.digest
        assert d1.marginal(["b"]).pmf == d2.marginal(["b"]).pmf
        assert d1.entropy(["a", "b"]) == d2.entropy(["a", "b"])

    @given(st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_exact_agrees_with_float_kernel(self, seed):
        rng = random.Random(seed)
        outcomes = list(itertools.product(range(2), repeat=3))
        weights = [rng.randrange(1, 20) for _ in outcomes]
        total = sum(weights)
        names = ("a", "b", "c")
        exact = TableDistribution(
            names, {o: Fraction(w, total) for o, w in zip(outcomes, weights)},
            exact=True,
        )
        approx = TableDistribution(
            names, {o: w / total for o, w in zip(outcomes, weights)},
            normalize=True,
        )
        assert float(exact.probability(a=1)) == pytest.approx(
            approx.probability(a=1), abs=ABS
        )
        assert exact.entropy(["a"], given=["b"]) == pytest.approx(
            approx.entropy(["a"], given=["b"]), abs=1e-9
        )
        assert exact.mutual_information(["a"], ["c"]) == pytest.approx(
            approx.mutual_information(["a"], ["c"]), abs=1e-9
        )


class TestLemmaPipelineEquivalence:
    """analyze_protocol's table, the dict oracle over the same rows, and
    exact mode on micro instances."""

    def _analyses(self, t: int):
        from repro.lowerbound import analyze_protocol, micro_distribution
        from repro.model import PublicCoins
        from repro.protocols import SampledEdgesMatching

        hard = micro_distribution(r=1, t=t, k=2)
        coins = PublicCoins(seed=2020)
        protocol = SampledEdgesMatching(1)
        table = analyze_protocol(hard, protocol, coins)
        oracle = JointDistribution(table.dist.variables, table.dist.pmf)
        return (
            table,
            replace(table, dist=oracle),
            analyze_protocol(hard, protocol, coins, exact=True),
        )

    def _assert_agree(self, t: int):
        table, reference, exact = self._analyses(t)
        for query in (
            lambda d: d.entropy(["PiU_0", "PiU_1"], given=["J"]),
            lambda d: d.mutual_information(["J"], ["PiP"], given=["M_0_0"]),
        ):
            assert query(table.dist) == pytest.approx(
                query(reference.dist), abs=1e-9
            )
        for name in ("information_revealed", "public_entropy", "lemma34_rhs"):
            assert getattr(table, name) == pytest.approx(
                getattr(reference, name), abs=1e-9
            )
            assert getattr(exact, name) == pytest.approx(
                getattr(reference, name), abs=1e-9
            )
        assert float(exact.expected_mu) == pytest.approx(table.expected_mu, abs=1e-9)
        for analysis in (table, reference):
            assert analysis.lemma33_holds() and analysis.lemma34_holds()
            assert analysis.lemma35_all_hold()
        return table, reference, exact

    def test_lemma_quantities_agree(self):
        table, _, exact = self._assert_agree(t=2)
        # At t = 2 every probability is dyadic, so float mode is exact.
        assert Fraction(exact.expected_mu) == Fraction(table.expected_mu)

    def test_lemma_quantities_agree_at_t3(self):
        """The largest micro instance the lemma experiments enumerate:
        r=1, t=3, k=2, 192 transcript rows."""
        self._assert_agree(t=3)
