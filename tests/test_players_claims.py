"""Tests for the public/unique player split and Claim 3.1 (C31)."""

import random

import pytest

from repro.experiments.claim31 import default_configurations
from repro.graphs import all_maximal_matchings, is_maximal_matching
from repro.lowerbound import (
    claim31_holds,
    count_unique_unique,
    micro_distribution,
    min_unique_unique_edges,
    paper_scale_distribution,
    player_split,
    public_first_adversarial_matching,
    public_player_views,
    sample_dmm,
    scaled_distribution,
    union_matching_size,
    unique_player_views,
    vertex_player_views,
)
from repro.model import views_of


class TestPlayerSplit:
    def _instance(self, seed=0):
        return sample_dmm(scaled_distribution(m=8, k=2), random.Random(seed))

    def test_public_player_count(self):
        inst = self._instance()
        assert len(public_player_views(inst)) == inst.hard.num_public

    def test_unique_player_count(self):
        inst = self._instance()
        assert len(unique_player_views(inst)) == inst.hard.k * inst.hard.N

    def test_public_views_see_full_neighborhood(self):
        inst = self._instance(1)
        for label, view in public_player_views(inst).items():
            assert view.neighbors == inst.graph.neighbors(label)
            assert view.vertex == label

    def test_unique_views_restricted_to_copy(self):
        inst = self._instance(2)
        for (i, rs_v), view in unique_player_views(inst).items():
            copy_edges = set(inst.copy_edges(i))
            for u in view.neighbors:
                edge = (min(view.vertex, u), max(view.vertex, u))
                assert edge in copy_edges

    def test_vertex_views_reconstruct_original_model(self):
        """The Section 3.1 model is at least as strong as the original."""
        inst = self._instance(3)
        rebuilt = vertex_player_views(inst)
        original = views_of(inst.graph, n=inst.hard.n)
        assert rebuilt == original

    def test_split_covers_both_groups(self):
        inst = self._instance(4)
        split = player_split(inst)
        assert set(split.public) == set(inst.public_labels)
        # Unique players exist for every (copy, RS vertex) pair.
        assert len(split.unique) == inst.hard.k * inst.hard.N

    def test_unique_player_of_public_vertex_sees_slice(self):
        """A unique player holding a public vertex sees at most the
        public player's edges (its slice of one copy)."""
        inst = self._instance(5)
        split = player_split(inst)
        for (i, rs_v), view in split.unique.items():
            if view.vertex in inst.public_labels:
                assert view.neighbors <= split.public[view.vertex].neighbors


class TestClaim31:
    def test_union_matching_size_counts_survivors(self):
        inst = sample_dmm(scaled_distribution(m=8, k=2), random.Random(0))
        total_bits = sum(
            bin(inst.indicators[i][inst.j_star]).count("1")
            for i in range(inst.hard.k)
        )
        assert union_matching_size(inst) == total_bits

    def test_adversarial_matching_is_maximal(self):
        inst = sample_dmm(scaled_distribution(m=10, k=3), random.Random(1))
        m = public_first_adversarial_matching(inst, random.Random(0))
        assert is_maximal_matching(inst.graph, m)

    def test_count_unique_unique(self):
        inst = sample_dmm(scaled_distribution(m=8, k=2), random.Random(2))
        survivors = inst.union_special_matching
        assert count_unique_unique(inst, survivors) == len(survivors)

    def test_min_unique_unique_lower_bounded_by_counting_argument(self):
        """The proof's counting: min >= |∪M_i| - (N - 2r)."""
        for seed in range(6):
            inst = sample_dmm(scaled_distribution(m=10, k=3), random.Random(seed))
            floor = union_matching_size(inst) - inst.hard.num_public
            assert min_unique_unique_edges(inst, heuristic_trials=4) >= floor

    def test_every_maximal_matching_contains_isolated_survivors(self):
        """Stronger structural fact used by the claim: a surviving special
        edge whose endpoints touch nothing else must be in every maximal
        matching; verify via the adversarial matching."""
        inst = sample_dmm(scaled_distribution(m=10, k=2), random.Random(7))
        m = public_first_adversarial_matching(inst, random.Random(1))
        matched = {v for e in m for v in e}
        for edge in inst.union_special_matching:
            u, v = edge
            if inst.graph.degree(u) == 1 and inst.graph.degree(v) == 1:
                assert edge in m, "an isolated special edge was left unmatched"

    def test_claim31_on_paper_scale_micro(self):
        """With k = t on a small instance, the claim's inequality holds
        (the probability bound is weak at micro scale, so we check many
        seeds and require a clear majority)."""
        hd = paper_scale_distribution(m=6)
        holds = sum(
            claim31_holds(
                sample_dmm(hd, random.Random(seed)), heuristic_trials=4
            )
            for seed in range(10)
        )
        assert holds >= 5

    def test_exhaustive_path_on_micro(self):
        hd = micro_distribution(r=1, t=2, k=2)
        inst = sample_dmm(hd, random.Random(3))
        # Micro graphs have few edges: the exhaustive branch runs.
        value = min_unique_unique_edges(inst, exhaustive_limit=100)
        assert 0 <= value <= hd.k * hd.r

    def test_zero_heuristic_trials_rejected(self):
        # Above the exhaustive limit, no heuristic run means no matching:
        # the search must refuse rather than report 0 and refute the claim.
        inst = sample_dmm(scaled_distribution(m=8, k=150), random.Random(0))
        assert inst.graph.num_edges() > 14
        for trials in (0, -1):
            with pytest.raises(ValueError, match="heuristic_trials"):
                min_unique_unique_edges(inst, heuristic_trials=trials)
            with pytest.raises(ValueError, match="heuristic_trials"):
                claim31_holds(inst, heuristic_trials=trials)
        assert min_unique_unique_edges(inst, heuristic_trials=1) == 141
        assert claim31_holds(inst, heuristic_trials=1)


#: min_unique_unique_edges(sample_dmm(hard, Random(s)), heuristic_trials=h,
#: seed=seed) for C31's default configurations, s = 0, 1, 2; each tuple is
#: (h=1 seed=0, h=1 seed=5, h=4 seed=0, h=4 seed=5).  Every instance is
#: above the exhaustive limit, so these pin the heuristic's shuffles.
SEARCH_VALUES = {
    "scaled m=10 k=3 (below regime)": ((1, 2, 1, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
    "scaled m=12 k=4 (below regime)": ((1, 2, 1, 0), (1, 1, 1, 0), (2, 2, 1, 1)),
    "micro r=1 t=2 k=40 (in regime)": ((23,) * 4, (25,) * 4, (22,) * 4),
    "micro r=2 t=2 k=30 (in regime)": ((30,) * 4, (33,) * 4, (32,) * 4),
    "micro r=2 t=3 k=60 (in regime)": ((66,) * 4, (64,) * 4, (76,) * 4),
    "scaled m=8 k=150 (in regime)": (
        (141, 141, 141, 139),
        (154, 154, 154, 153),
        (152, 152, 152, 150),
    ),
}

#: (number of maximal matchings, min unique-unique edges) of
#: sample_dmm(scaled_distribution(m, k), Random(s)), s = 0, 1, 2: graphs of
#: 7-11 edges, so the search is exhaustive at the default limit.
EXHAUSTIVE_VALUES = {
    (4, 2): ((6, 1), (3, 1), (8, 0)),
    (5, 1): ((11, 0), (8, 0), (6, 1)),
    (6, 1): ((18, 0), (17, 0), (11, 0)),
}


CONFIGS = default_configurations()


class TestSearchPins:
    """Literal values of the Claim 3.1 search away from C31's defaults."""

    @pytest.mark.parametrize(
        "name, hard",
        CONFIGS,
        ids=[name.split(" (")[0].replace(" ", "-") for name, _ in CONFIGS],
    )
    def test_heuristic_search_is_pinned(self, name, hard):
        got = []
        for s in range(3):
            inst = sample_dmm(hard, random.Random(s))
            got.append(
                tuple(
                    min_unique_unique_edges(inst, heuristic_trials=h, seed=seed)
                    for h in (1, 4)
                    for seed in (0, 5)
                )
            )
        assert tuple(got) == SEARCH_VALUES[name]

    @pytest.mark.parametrize("m, k", sorted(EXHAUSTIVE_VALUES))
    def test_exhaustive_search_is_pinned(self, m, k):
        got = []
        for s in range(3):
            inst = sample_dmm(scaled_distribution(m=m, k=k), random.Random(s))
            assert inst.graph.num_edges() <= 14
            got.append(
                (len(all_maximal_matchings(inst.graph)), min_unique_unique_edges(inst))
            )
        assert tuple(got) == EXHAUSTIVE_VALUES[(m, k)]
