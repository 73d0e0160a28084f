"""Unit + property tests for matchings."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import matching as matching_module
from repro.graphs import (
    Graph,
    all_maximal_matchings,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    greedy_maximal_matching,
    is_matching,
    is_maximal_matching,
    is_valid_matching,
    is_vertex_cover,
    matched_vertices,
    maximum_matching,
    path_graph,
    random_maximal_matching,
    star_graph,
)


class TestIsMatching:
    def test_empty_is_matching(self):
        assert is_matching([])

    def test_disjoint_edges(self):
        assert is_matching([(0, 1), (2, 3)])

    def test_shared_vertex(self):
        assert not is_matching([(0, 1), (1, 2)])

    def test_self_loop(self):
        assert not is_matching([(1, 1)])


class TestValidity:
    def test_valid_subset_of_graph(self):
        g = path_graph(4)
        assert is_valid_matching(g, [(0, 1), (2, 3)])

    def test_nonedge_invalid(self):
        g = path_graph(4)
        assert not is_valid_matching(g, [(0, 2)])

    def test_accepts_unordered_edges(self):
        for g in (path_graph(2), path_graph(2).freeze()):
            assert is_valid_matching(g, [(1, 0)])
            assert is_maximal_matching(g, [(1, 0)])

    def test_self_loop_pair_is_invalid(self):
        # Section 2.1 lets a referee output pairs that are not a valid
        # matching; a self-loop is one of them, not a crash.
        for g in (path_graph(3), path_graph(3).freeze()):
            assert not is_valid_matching(g, [(1, 1)])
            assert not is_valid_matching(g, [(0, 1), (2, 2)])


class TestMaximality:
    def test_maximal_on_path(self):
        g = path_graph(4)
        assert is_maximal_matching(g, [(1, 2)])
        assert not is_maximal_matching(g, [(0, 1)])  # (2,3) addable

    def test_empty_matching_maximal_only_on_empty_graph(self):
        assert is_maximal_matching(Graph(vertices=[0, 1]), [])
        assert not is_maximal_matching(path_graph(2), [])

    def test_invalid_matching_not_maximal(self):
        g = path_graph(4)
        assert not is_maximal_matching(g, [(0, 2)])

    def test_self_loop_pair_is_not_maximal(self):
        for g in (path_graph(3), path_graph(3).freeze()):
            assert not is_maximal_matching(g, [(1, 1)])
            assert is_maximal_matching(g, [(0, 1)])


class TestGreedy:
    def test_greedy_is_maximal(self):
        g = erdos_renyi(20, 0.3, random.Random(0))
        m = greedy_maximal_matching(g)
        assert is_maximal_matching(g, m)

    def test_greedy_deterministic(self):
        g = erdos_renyi(15, 0.4, random.Random(1))
        assert greedy_maximal_matching(g) == greedy_maximal_matching(g)

    def test_random_maximal_matching_is_maximal(self):
        g = erdos_renyi(20, 0.3, random.Random(2))
        for seed in range(5):
            m = random_maximal_matching(g, random.Random(seed))
            assert is_maximal_matching(g, m)

    def test_matched_vertices(self):
        assert matched_vertices([(0, 1), (4, 5)]) == {0, 1, 4, 5}


class TestMaximumMatching:
    def test_path(self):
        assert len(maximum_matching(path_graph(5))) == 2
        assert len(maximum_matching(path_graph(6))) == 3

    def test_odd_cycle_needs_blossom(self):
        # C5: maximum matching has 2 edges; a bipartite-only algorithm
        # would still find this, but C5 plus a pendant tests blossoms.
        g = cycle_graph(5)
        assert len(maximum_matching(g)) == 2
        g.add_edge(0, 5)
        assert len(maximum_matching(g)) == 3

    def test_complete_graph(self):
        assert len(maximum_matching(complete_graph(6))) == 3
        assert len(maximum_matching(complete_graph(7))) == 3

    def test_star(self):
        assert len(maximum_matching(star_graph(5))) == 1

    def test_petersen_like_blossoms(self):
        # Two triangles joined by a path: maximum matching = 3.
        g = Graph(edges=[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])
        assert len(maximum_matching(g)) == 3

    @given(st.integers(min_value=0, max_value=60), st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_maximum_at_least_greedy_and_valid(self, seed, p):
        g = erdos_renyi(12, p, random.Random(seed))
        mm = maximum_matching(g)
        assert is_valid_matching(g, mm)
        greedy = greedy_maximal_matching(g)
        assert len(mm) >= len(greedy)
        # A maximum matching is maximal.
        if g.num_edges():
            assert is_maximal_matching(g, mm)


class TestAllMaximalMatchings:
    def test_path3(self):
        # P3 (0-1-2): maximal matchings are {(0,1)} and {(1,2)}.
        result = all_maximal_matchings(path_graph(3))
        assert sorted(map(sorted, result)) == [[(0, 1)], [(1, 2)]]

    def test_triangle(self):
        result = all_maximal_matchings(cycle_graph(3))
        assert len(result) == 3
        assert all(len(m) == 1 for m in result)

    def test_every_enumerated_matching_is_maximal(self):
        g = erdos_renyi(7, 0.5, random.Random(3))
        for m in all_maximal_matchings(g):
            assert is_maximal_matching(g, m)

    def test_disjoint_edges_reach_one_leaf(self, monkeypatch):
        # Skipping any of these edges leaves it uncoverable, so every
        # branch but the one taking all of them stops before its leaf.
        leaves = []

        def counting_cover(graph, vertices):
            leaves.append(set(vertices))
            return is_vertex_cover(graph, vertices)

        monkeypatch.setattr(matching_module, "is_vertex_cover", counting_cover)
        g = Graph(edges=[(2 * i, 2 * i + 1) for i in range(12)])
        assert all_maximal_matchings(g) == [set(g.edges())]
        assert leaves == [set(range(24))]

    def test_contains_greedy_result(self):
        g = erdos_renyi(7, 0.5, random.Random(4))
        enumerated = {frozenset(m) for m in all_maximal_matchings(g)}
        assert frozenset(greedy_maximal_matching(g)) in enumerated

    @given(st.integers(min_value=0, max_value=40))
    @settings(max_examples=15, deadline=None)
    def test_min_maximal_at_least_half_maximum(self, seed):
        # Classic fact: any maximal matching is >= 1/2 maximum matching.
        g = erdos_renyi(7, 0.4, random.Random(seed))
        mm = len(maximum_matching(g))
        for m in all_maximal_matchings(g):
            assert 2 * len(m) >= mm
