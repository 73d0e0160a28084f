"""Tests for the adversary harness and the Theorem 1/2 analytic bounds."""

import random

import pytest

from repro.graphs import FrozenGraph, greedy_maximal_matching
from repro.lowerbound import (
    attack_with_matching_protocol,
    attack_with_mis_protocol,
    bound_table,
    budget_sweep,
    paper_required_bits,
    proof_chain_bound,
    scaled_distribution,
    theorem1_lower_bound_bits,
    theorem2_lower_bound_bits,
    trivial_upper_bound_bits,
    agm_upper_bound_bits,
    two_round_upper_bound_bits,
    count_unique_unique,
    matching_relaxed_check,
    matching_strict_check,
    sample_dmm,
    sample_dmm_family,
)
from repro.lowerbound.adversary import _attack_trial, score_matching
from repro.protocols import (
    FullNeighborhoodMIS,
    FullNeighborhoodMatching,
    SampledEdgesMatching,
    SampledEdgesMIS,
)


class TestAttackHarness:
    def test_full_protocol_always_succeeds(self):
        hd = scaled_distribution(m=8, k=2)
        result = attack_with_matching_protocol(
            hd, FullNeighborhoodMatching(), trials=5, seed=0
        )
        assert result.strict_success_rate == 1.0
        assert result.relaxed_success_rate >= 0.0  # threshold may bind at micro scale
        assert result.max_bits == hd.n

    def test_zero_budget_always_fails(self):
        hd = scaled_distribution(m=8, k=2)
        result = attack_with_matching_protocol(
            hd, SampledEdgesMatching(0), trials=5, seed=1
        )
        assert result.strict_success_rate < 0.5
        assert result.mean_unique_unique == 0.0

    def test_mis_attack(self):
        hd = scaled_distribution(m=8, k=2)
        good = attack_with_mis_protocol(hd, FullNeighborhoodMIS(), trials=4, seed=2)
        bad = attack_with_mis_protocol(hd, SampledEdgesMIS(0), trials=4, seed=2)
        assert good.strict_success_rate == 1.0
        assert bad.strict_success_rate < good.strict_success_rate

    def test_t2_direct_trials_build_no_adjacency_view(self, monkeypatch):
        """Scoring an MIS output on a cached D_MM instance reads the CSR
        rows: T2's direct sweep at the dmm_trials workload's (m, k) =
        (20, 4) leaves no frozenset adjacency view on the instances it
        scores."""
        hd = scaled_distribution(m=20, k=4)
        built = []
        adjacency = FrozenGraph.adjacency

        def spy(graph):
            built.append(graph)
            return adjacency(graph)

        monkeypatch.setattr(FrozenGraph, "adjacency", spy)
        verdicts = {
            _attack_trial((instance, 5, SampledEdgesMIS(knob), True))[0]
            for instance in sample_dmm_family(hd, 3, 0)
            for knob in (0, 2, hd.n)
        }
        assert verdicts == {True, False}
        assert built == []

    def test_rejects_zero_trials(self):
        hd = scaled_distribution(m=8, k=2)
        with pytest.raises(ValueError):
            attack_with_matching_protocol(hd, FullNeighborhoodMatching(), trials=0)

    def test_budget_sweep_monotone_tendency(self):
        """Success should (weakly) improve as the sketch budget grows —
        the empirical face of the Theorem 1 threshold."""
        hd = scaled_distribution(m=10, k=3)
        points = budget_sweep(
            hd,
            make_protocol=SampledEdgesMatching,
            knobs=[0, 2, hd.n],
            trials=6,
            seed=3,
        )
        rates = [p.result.strict_success_rate for p in points]
        bits = [p.result.max_bits for p in points]
        assert rates[-1] == 1.0  # full budget recovers everything
        assert rates[0] <= rates[-1]
        assert bits[0] < bits[-1]

    def test_sweep_records_knobs(self):
        hd = scaled_distribution(m=8, k=2)
        points = budget_sweep(hd, SampledEdgesMatching, [0, 1], trials=2, seed=4)
        assert [p.knob for p in points] == [0, 1]


class TestScoreMatching:
    """``score_matching`` validates once and agrees with the public checks."""

    def _outputs(self):
        instance = sample_dmm(scaled_distribution(m=8, k=2), random.Random(3))
        graph = instance.graph
        maximal = sorted(greedy_maximal_matching(graph))
        hub = max(graph.vertices, key=graph.degree)
        a, b = sorted(graph.neighbors(hub))[:2]
        non_edge = next(
            (u, v)
            for u in sorted(graph.vertices)
            for v in sorted(graph.vertices)
            if u < v and not graph.has_edge(u, v)
        )
        return instance, {
            "maximal": maximal,
            "not maximal": maximal[1:],
            "non-edge": [*maximal, non_edge],
            "doubly matched": [(hub, a), (hub, b)],
            "self-loop": [(hub, hub)],
        }

    def test_agrees_with_public_checks(self):
        instance, outputs = self._outputs()
        strict_seen = set()
        for name, output in outputs.items():
            strict = matching_strict_check(instance, output)
            relaxed = matching_relaxed_check(instance, output)
            valid = name in ("maximal", "not maximal")
            unique = count_unique_unique(instance, output) if valid else 0
            assert score_matching(instance, output) == (strict, relaxed, unique), name
            strict_seen.add(strict)
        assert strict_seen == {True, False}

    def test_self_loop_scores_invalid(self):
        instance, outputs = self._outputs()
        for output in (outputs["self-loop"], [*outputs["maximal"], (1, 1)]):
            assert score_matching(instance, output) == (False, False, 0)
            assert not matching_strict_check(instance, output)
            assert not matching_relaxed_check(instance, output)


class TestAnalyticBounds:
    def test_theorem1_shape(self):
        # sqrt-ish growth: increasing, and dominated by sqrt(n).
        values = [theorem1_lower_bound_bits(n) for n in (10**3, 10**6, 10**9)]
        assert values[0] < values[1] < values[2]
        for n in (10**3, 10**6, 10**9):
            assert theorem1_lower_bound_bits(n) < n**0.5

    def test_theorem1_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            theorem1_lower_bound_bits(100, epsilon=0.7)

    def test_behrend_form_is_weaker_at_laptop_scale(self):
        """With the explicit constant, the e^(c sqrt(log n)) loss keeps
        the bound below polylog until astronomical n — the honest
        reading of the Θ in Theorem 1 (reported by experiment T1)."""
        from repro.lowerbound.bounds import theorem1_behrend_form_bits

        n = 10**9
        assert theorem1_behrend_form_bits(n) < agm_upper_bound_bits(n)
        assert theorem1_behrend_form_bits(10**6) < theorem1_behrend_form_bits(10**12)

    def test_theorem2_is_half(self):
        assert theorem2_lower_bound_bits(10**6) == pytest.approx(
            theorem1_lower_bound_bits(10**6) / 2
        )

    def test_landscape_ordering_at_large_n(self):
        """The paper's picture at n = 10^12 (ε = 0.05): polylog <<
        lower bound << sqrt(n) two-round << trivial O(n)."""
        n = 10**12
        assert agm_upper_bound_bits(n) < theorem1_lower_bound_bits(n)
        assert theorem1_lower_bound_bits(n) < two_round_upper_bound_bits(n)
        assert two_round_upper_bound_bits(n) < trivial_upper_bound_bits(n)

    def test_edge_cases(self):
        assert theorem1_lower_bound_bits(1) == 0.0
        assert paper_required_bits(1) == 0.0
        assert agm_upper_bound_bits(1) == 1.0

    def test_bound_table_rows(self):
        rows = bound_table([100, 1000])
        assert len(rows) == 2
        assert rows[0].n == 100
        assert rows[1].trivial_bits == 1000.0


class TestProofChain:
    def test_required_bits_formula(self):
        hd = scaled_distribution(m=10, k=3)
        chain = proof_chain_bound(hd)
        expected = (hd.k * hd.r / 6) / (hd.num_public + hd.k * hd.N / hd.t)
        assert chain.required_bits == pytest.approx(expected)

    def test_paper_algebra_at_k_equals_t(self):
        """With k = t the chain reduces to b >= kr/6 / (|P| + N); the
        paper simplifies both capacity terms to <= N·b each, giving the
        r/36 closed form — our exact version is at least as strong."""
        from repro.lowerbound import paper_scale_distribution

        hd = paper_scale_distribution(m=8)
        chain = proof_chain_bound(hd)
        paper_style = (hd.k * hd.r / 6) / (2 * hd.N)
        assert chain.required_bits >= paper_style - 1e-9

    def test_information_bound_scales_with_k(self):
        a = proof_chain_bound(scaled_distribution(m=10, k=2))
        b = proof_chain_bound(scaled_distribution(m=10, k=4))
        assert b.information_bound > a.information_bound


class TestRegimeFeasibility:
    def test_small_m_not_in_regime(self):
        from repro.lowerbound.bounds import regime_feasibility

        f = regime_feasibility(16)
        assert not f.in_claim_regime
        assert f.simulable

    def test_regime_boundary_quantified(self):
        """The paper's exact k = t configuration first enters Claim 3.1's
        regime around m ~ 512 — where the instance already needs ~10^7
        edges.  This is the measured justification for the scaled-k
        substitution documented in DESIGN.md."""
        from repro.lowerbound.bounds import regime_feasibility

        f512 = regime_feasibility(512)
        assert f512.in_claim_regime
        assert not f512.simulable
        assert f512.max_edges > 10_000_000

    def test_fields_consistent(self):
        from repro.lowerbound.bounds import regime_feasibility

        f = regime_feasibility(32)
        assert f.n == f.N - 2 * f.r + 2 * f.r * f.t
        assert f.max_edges == f.t * f.r * f.t


class TestAdaptiveAttack:
    def test_rejects_zero_trials(self):
        from repro.lowerbound import attack_with_adaptive_matching
        from repro.protocols import FilteringMatching

        hd = scaled_distribution(m=8, k=2)
        with pytest.raises(ValueError):
            attack_with_adaptive_matching(hd, FilteringMatching(2), trials=0)

    def test_adaptivity_beats_one_round_at_equal_per_round_budget(self):
        """Paper §1.1 on the hard family: with one edge per vertex per
        round, the 2-round filtering protocol solves D_MM where the
        1-round sampler fails."""
        from repro.lowerbound import (
            attack_with_adaptive_matching,
            attack_with_matching_protocol,
        )
        from repro.protocols import FilteringMatching, SampledEdgesMatching

        hd = scaled_distribution(m=12, k=4)
        one = attack_with_matching_protocol(
            hd, SampledEdgesMatching(1), trials=12, seed=1
        )
        two = attack_with_adaptive_matching(
            hd, FilteringMatching(num_rounds=2, cap_multiplier=0.16),
            trials=12, seed=1,
        )
        assert two.strict_success_rate >= one.strict_success_rate + 0.3
        assert two.strict_success_rate >= 0.9
