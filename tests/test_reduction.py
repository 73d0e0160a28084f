"""Tests for the Section-4 MM -> MIS reduction and Lemma 4.1 (F2, L41, T2)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    FrozenGraph,
    all_maximal_independent_sets,
    greedy_mis,
    is_maximal_independent_set,
    is_matching,
)
from repro.lowerbound import (
    SideRule,
    build_reduction_graph,
    check_lemma41,
    decode_matching_from_mis,
    left_public,
    micro_distribution,
    right_public,
    run_reduction,
    sample_dmm,
    scaled_distribution,
)
from repro.lowerbound import reduction
from repro.model import PublicCoins, views_of
from repro.protocols import FullNeighborhoodMIS, SampledEdgesMIS


def small_instance(seed=0, m=8, k=2):
    return sample_dmm(scaled_distribution(m=m, k=k), random.Random(seed))


def reference_reduction_graph(instance):
    """H edge by edge, as Section 4 states it: the left copy of G, the
    right copy shifted by n, and the public biclique across them."""
    n = instance.hard.n
    public = sorted(instance.public_labels)
    edges = [
        *instance.graph.edges(),
        *((u + n, v + n) for u, v in instance.graph.edges()),
        *((u, v + n) for u in public for v in public),
    ]
    return FrozenGraph.from_edges(range(2 * n), edges)


class TestHConstruction:
    @given(st.integers(0, 1000), st.sampled_from([(8, 2), (10, 3), (20, 4)]))
    @settings(max_examples=20, deadline=None)
    def test_frozen_and_equal_to_reference(self, seed, params):
        m, k = params
        inst = small_instance(seed, m=m, k=k)
        h = build_reduction_graph(inst)
        assert isinstance(h, FrozenGraph)
        assert h == reference_reduction_graph(inst)

    def test_frozen_on_micro(self):
        inst = sample_dmm(micro_distribution(r=1, t=2, k=2), random.Random(3))
        assert build_reduction_graph(inst) == reference_reduction_graph(inst)

    def test_vertex_count(self):
        inst = small_instance()
        h = build_reduction_graph(inst)
        assert h.num_vertices() == 2 * inst.hard.n

    def test_both_copies_present(self):
        inst = small_instance(1)
        h = build_reduction_graph(inst)
        n = inst.hard.n
        for u, v in inst.graph.edges():
            assert h.has_edge(u, v)
            assert h.has_edge(u + n, v + n)

    def test_public_biclique(self):
        inst = small_instance(2)
        h = build_reduction_graph(inst)
        n = inst.hard.n
        pub = sorted(inst.public_labels)
        for u in pub[:4]:
            for v in pub[:4]:
                assert h.has_edge(u, v + n)

    def test_no_extra_cross_edges_for_unique(self):
        inst = small_instance(3)
        h = build_reduction_graph(inst)
        n = inst.hard.n
        for u in inst.all_unique_labels:
            for w in h.neighbors(u):
                # Unique left-copy vertices have neighbors only on the left.
                assert w < n

    def test_edge_count(self):
        inst = small_instance(4)
        h = build_reduction_graph(inst)
        m = inst.graph.num_edges()
        p = len(inst.public_labels)
        assert h.num_edges() == 2 * m + p * p


class TestLemma41:
    def test_exhaustive_on_micro(self):
        """For EVERY maximal independent set of H on a micro instance,
        each clean side satisfies the Lemma 4.1 iff exactly."""
        hd = micro_distribution(r=1, t=2, k=2)
        inst = sample_dmm(hd, random.Random(5))
        h = build_reduction_graph(inst)
        checked_clean = 0
        for mis in all_maximal_independent_sets(h):
            left_clean = not (mis & left_public(inst))
            right_clean = not (mis & right_public(inst))
            assert left_clean or right_clean  # the biclique forces this
            for side, clean in (("left", left_clean), ("right", right_clean)):
                result = check_lemma41(inst, mis, side)
                assert result.easy_direction_holds  # unconditional direction
                if clean:
                    assert result.iff_holds
                    checked_clean += 1
        assert checked_clean > 0

    def test_monte_carlo_greedy_mis(self):
        for seed in range(6):
            inst = small_instance(seed, m=8, k=2)
            h = build_reduction_graph(inst)
            mis = greedy_mis(h)
            assert is_maximal_independent_set(h, mis)
            left_clean = not (mis & left_public(inst))
            right_clean = not (mis & right_public(inst))
            assert left_clean or right_clean
            side = "left" if left_clean else "right"
            assert check_lemma41(inst, mis, side).iff_holds


class TestDecode:
    def test_clean_side_decodes_exact_survivors(self):
        inst = small_instance(6)
        h = build_reduction_graph(inst)
        mis = greedy_mis(h)
        decode = decode_matching_from_mis(inst, mis, rule=SideRule.EMPTY_PUBLIC)
        assert decode.matching == inst.union_special_matching
        assert is_matching(decode.matching)

    def test_both_sides_contain_survivors(self):
        inst = small_instance(7)
        h = build_reduction_graph(inst)
        mis = greedy_mis(h)
        decode = decode_matching_from_mis(inst, mis, rule=SideRule.LARGER)
        assert inst.union_special_matching <= decode.matching

    def test_decode_records_cleanliness(self):
        inst = small_instance(8)
        h = build_reduction_graph(inst)
        mis = greedy_mis(h)
        decode = decode_matching_from_mis(inst, mis)
        assert decode.left_clean or decode.right_clean
        assert decode.side in ("left", "right")


class TestEndToEnd:
    @pytest.mark.parametrize(
        "protocol", [FullNeighborhoodMIS(), SampledEdgesMIS(1)], ids=lambda p: p.name
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_transcript_matches_per_view_oracle(self, monkeypatch, protocol, seed):
        """H is frozen, so the MIS protocol runs batched; its transcript
        must equal the per-view oracle player by player."""
        runs = []

        def spy(*args, **kwargs):
            runs.append(run_protocol(*args, **kwargs))
            return runs[-1]

        run_protocol = reduction.run_protocol
        monkeypatch.setattr(reduction, "run_protocol", spy)
        inst = small_instance(seed, m=10, k=3)
        coins = PublicCoins(seed)
        result = run_reduction(inst, protocol, coins)

        h = build_reduction_graph(inst)
        oracle = {
            v: protocol.sketch(view, coins)
            for v, view in views_of(h, n=2 * inst.hard.n).items()
        }
        [run] = runs
        assert run.transcript.sketches == oracle
        assert result.mis_output == protocol.decode(2 * inst.hard.n, oracle, coins)

    def test_full_neighborhood_mis_drives_reduction(self):
        """A correct MIS protocol + the reduction recovers the entire
        special matching — the constructive content of Theorem 2."""
        for seed in range(4):
            inst = small_instance(seed, m=8, k=2)
            run = run_reduction(inst, FullNeighborhoodMIS(), PublicCoins(seed))
            assert run.output_is_exactly_survivors
            assert run.recovered_all_survivors

    def test_cost_is_two_messages_per_player(self):
        inst = small_instance(9)
        run = run_reduction(inst, FullNeighborhoodMIS(), PublicCoins(9))
        # Each copy message is 2n bits (adjacency row of H), two per player.
        assert run.per_player_bits == 2 * (2 * inst.hard.n)

    def test_cheap_mis_protocol_fails_reduction(self):
        """A low-budget MIS protocol on H does not recover the matching —
        the empirical face of Theorem 2."""
        failures = 0
        for seed in range(6):
            inst = small_instance(seed, m=10, k=3)
            run = run_reduction(inst, SampledEdgesMIS(1), PublicCoins(40 + seed))
            if not run.output_is_exactly_survivors:
                failures += 1
        assert failures >= 4

    def test_paper_side_rule_supported(self):
        inst = small_instance(10)
        run = run_reduction(
            inst, FullNeighborhoodMIS(), PublicCoins(10), rule=SideRule.LARGER
        )
        assert inst.union_special_matching <= run.decode.matching
