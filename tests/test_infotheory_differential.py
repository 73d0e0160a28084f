"""Differential suite: columnar TableDistribution vs the dict oracle.

Every randomized case builds the same pmf in both implementations and
checks marginals, conditionals, entropies, mutual informations, and
divergences agree within float tolerance — and that the exact Fraction
mode agrees bit-for-bit with itself across construction orders.  This is
the same proof-of-equivalence pattern the frozen graph core used.
"""

import itertools
import math
import random
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


def both(seed: int, arity: int = 3, values: int = 2):
    pmf = random_pmf(seed, arity, values)
    names = tuple(f"v{i}" for i in range(arity))
    return JointDistribution(names, pmf), TableDistribution(names, pmf)


class TestDistributionEquivalence:
    @given(st.integers(0, 400))
    @settings(max_examples=40, deadline=None)
    def test_pmf_and_support(self, seed):
        ref, tab = both(seed)
        assert set(ref.pmf) == set(tab.pmf)
        for outcome, p in ref.pmf.items():
            assert tab.get(outcome) == pytest.approx(p, abs=ABS)
        assert ref.support() == tab.support()
        assert ref.support(["v0", "v2"]) == tab.support(["v0", "v2"])

    @given(st.integers(0, 400))
    @settings(max_examples=40, deadline=None)
    def test_marginals(self, seed):
        ref, tab = both(seed)
        for names in (["v0"], ["v2", "v0"], ["v1", "v2"]):
            mr, mt = ref.marginal(names), tab.marginal(names)
            assert mr.variables == mt.variables
            for outcome, p in mr.pmf.items():
                assert mt.get(outcome) == pytest.approx(p, abs=ABS)

    @given(st.integers(0, 400))
    @settings(max_examples=40, deadline=None)
    def test_conditionals(self, seed):
        ref, tab = both(seed)
        for value in (0, 1):
            if (ref.probability(v1=value) or 0.0) <= 0:
                continue
            cr, ct = ref.condition(v1=value), tab.condition(v1=value)
            assert cr.variables == ct.variables
            for outcome, p in cr.pmf.items():
                assert ct.get(outcome) == pytest.approx(p, abs=1e-8)

    @given(st.integers(0, 400))
    @settings(max_examples=40, deadline=None)
    def test_entropies(self, seed):
        ref, tab = both(seed, arity=4)
        groups = (["v0"], ["v1", "v3"], ["v0", "v1", "v2"])
        givens = ((), ["v2"], ["v3", "v0"])
        for names in groups:
            for given_names in givens:
                assert tab.entropy(names, given=given_names) == pytest.approx(
                    ref.entropy(names, given=given_names), abs=1e-8
                )

    @given(st.integers(0, 400))
    @settings(max_examples=40, deadline=None)
    def test_mutual_information(self, seed):
        ref, tab = both(seed, arity=4)
        cases = (
            (["v0"], ["v1"], ()),
            (["v0", "v2"], ["v1"], ()),
            (["v0"], ["v1"], ["v2"]),
            (["v0"], ["v3"], ["v1", "v2"]),
        )
        for a, b, c in cases:
            assert tab.mutual_information(a, b, given=c) == pytest.approx(
                ref.mutual_information(a, b, given=c), abs=1e-8
            )
            assert tab.is_independent(a, b, given=c) == ref.is_independent(
                a, b, given=c
            )

    @given(st.integers(0, 400))
    @settings(max_examples=30, deadline=None)
    def test_probability_queries(self, seed):
        ref, tab = both(seed)
        for v0 in (0, 1):
            assert tab.probability(v0=v0) == pytest.approx(
                ref.probability(v0=v0), abs=ABS
            )
            assert tab.probability(v0=v0, v2=1) == pytest.approx(
                ref.probability(v0=v0, v2=1), abs=ABS
            )


class TestDivergenceEquivalence:
    @given(st.integers(0, 300))
    @settings(max_examples=30, deadline=None)
    def test_kl_and_tv_cross_kernel(self, seed):
        ref_p, tab_p = both(seed, arity=2, values=3)
        ref_q, tab_q = both(seed + 10_000, arity=2, values=3)
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
    """analyze_protocol under both kernels on micro instances."""

    def _analyses(self, t: int):
        from repro.lowerbound import analyze_protocol, micro_distribution
        from repro.model import PublicCoins
        from repro.protocols import SampledEdgesMatching

        hard = micro_distribution(r=1, t=t, k=2)
        coins = PublicCoins(seed=2020)
        protocol = SampledEdgesMatching(1)
        return (
            analyze_protocol(hard, protocol, coins),
            analyze_protocol(hard, protocol, coins, kernel="reference"),
            analyze_protocol(hard, protocol, coins, exact=True),
        )

    def _assert_agree(self, t: int):
        table, reference, exact = self._analyses(t)
        assert table.dist.pmf.keys() == reference.dist.pmf.keys()
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
        assert table.expected_mu == reference.expected_mu
        assert table.error_probability == reference.error_probability
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

    def test_exact_mode_rejects_reference_kernel(self):
        from repro.lowerbound import analyze_protocol, micro_distribution
        from repro.model import PublicCoins
        from repro.protocols import SampledEdgesMatching

        hard = micro_distribution(r=1, t=2, k=2)
        with pytest.raises(ValueError, match="exact mode"):
            analyze_protocol(
                hard,
                SampledEdgesMatching(1),
                PublicCoins(seed=2020),
                kernel="reference",
                exact=True,
            )
