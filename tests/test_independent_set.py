"""Unit + property tests for independent sets."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    FrozenGraph,
    Graph,
    all_maximal_independent_sets,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    greedy_mis,
    is_independent_set,
    is_maximal_independent_set,
    luby_mis,
    maximum_independent_set,
    path_graph,
    random_mis,
    star_graph,
)


class TestIndependence:
    def test_empty_set_independent(self):
        assert is_independent_set(path_graph(3), set())

    def test_adjacent_pair_not_independent(self):
        assert not is_independent_set(path_graph(2), {0, 1})

    def test_unknown_vertex_rejected(self):
        assert not is_independent_set(path_graph(2), {9})

    def test_alternating_path(self):
        assert is_independent_set(path_graph(5), {0, 2, 4})


class TestMaximality:
    def test_maximal_on_path(self):
        g = path_graph(4)
        assert is_maximal_independent_set(g, {0, 2})
        assert is_maximal_independent_set(g, {1, 3})
        assert not is_maximal_independent_set(g, {0})  # 2 or 3 addable

    def test_non_independent_not_maximal(self):
        assert not is_maximal_independent_set(path_graph(2), {0, 1})

    def test_complete_graph_singletons(self):
        g = complete_graph(4)
        for v in range(4):
            assert is_maximal_independent_set(g, {v})

    def test_isolated_vertex_must_be_chosen(self):
        g = Graph(vertices=[0, 1, 2], edges=[(0, 1)])
        for form in (g, g.freeze()):
            assert not form.is_dominating_set({0})
            assert form.is_dominating_set({0, 2})
            assert is_maximal_independent_set(form, {1, 2})


def _edge_scan(vertices, edges, chosen):
    """(independent, maximal independent) straight from the vertex and
    edge lists."""
    independent = chosen <= vertices and not any(
        u in chosen and v in chosen for u, v in edges
    )
    dominating = all(
        any(v in chosen for u, v in edges if u == x)
        or any(u in chosen for u, v in edges if v == x)
        for x in vertices - chosen
    )
    return independent, independent and dominating


class TestAgainstEdgeScan:
    def test_both_forms_agree_with_an_edge_scan(self):
        """Random graphs with isolated vertices and scattered labels;
        candidate sets are maximal independent sets, perturbed ones and
        random ones, some holding labels that are not vertices."""
        seen = set()
        for seed in range(300):
            rng = random.Random(seed)
            vertices = set(rng.sample(range(12), rng.randint(1, 9)))
            ordered = sorted(vertices)
            edges = [
                (u, v)
                for i, u in enumerate(ordered)
                for v in ordered[i + 1 :]
                if rng.random() < 0.3
            ]
            builder = Graph(vertices=vertices, edges=edges)
            frozen = builder.freeze()
            kind = seed % 4
            if kind == 0:
                chosen = greedy_mis(builder, rng.sample(ordered, len(ordered)))
            elif kind == 1:
                chosen = greedy_mis(builder) ^ {rng.choice(ordered)}
            elif kind == 2:
                chosen = {v for v in ordered if rng.random() < 0.4}
            else:
                chosen = greedy_mis(builder) | {rng.randrange(12, 15)}
            expected = _edge_scan(vertices, edges, chosen)
            for graph in (builder, frozen):
                got = (
                    is_independent_set(graph, chosen),
                    is_maximal_independent_set(graph, chosen),
                )
                assert got == expected, (seed, type(graph).__name__)
            assert builder.is_dominating_set(chosen) == frozen.is_dominating_set(
                chosen
            )
            seen.update(enumerate(expected))
        # Both answers occur for both predicates.
        assert seen == {(0, True), (0, False), (1, True), (1, False)}

    def test_mis_checks_never_build_the_adjacency_view(self, monkeypatch):
        built = []
        adjacency = FrozenGraph.adjacency

        def spy(graph):
            built.append(graph)
            return adjacency(graph)

        monkeypatch.setattr(FrozenGraph, "adjacency", spy)
        graph = erdos_renyi(20, 0.2, random.Random(3)).freeze()
        mis = greedy_mis(Graph(graph.vertices, graph.edges()))
        assert is_maximal_independent_set(graph, mis)
        assert not is_maximal_independent_set(graph, set(list(mis)[1:]))
        assert built == []


class TestGreedyAndLuby:
    def test_greedy_is_maximal(self):
        g = erdos_renyi(25, 0.2, random.Random(0))
        assert is_maximal_independent_set(g, greedy_mis(g))

    def test_random_mis_is_maximal(self):
        g = erdos_renyi(25, 0.2, random.Random(1))
        for seed in range(5):
            assert is_maximal_independent_set(g, random_mis(g, random.Random(seed)))

    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=20, deadline=None)
    def test_luby_is_maximal(self, seed):
        rng = random.Random(seed)
        g = erdos_renyi(20, 0.3, rng)
        mis = luby_mis(g, rng)
        assert is_maximal_independent_set(g, mis)

    def test_luby_on_empty_graph(self):
        g = Graph(vertices=range(5))
        assert luby_mis(g, random.Random(0)) == {0, 1, 2, 3, 4}

    def test_star_center_or_leaves(self):
        g = star_graph(6)
        mis = luby_mis(g, random.Random(3))
        assert mis == {0} or mis == set(range(1, 7))


class TestExactMIS:
    def test_path(self):
        assert len(maximum_independent_set(path_graph(5))) == 3

    def test_cycle(self):
        assert len(maximum_independent_set(cycle_graph(5))) == 2
        assert len(maximum_independent_set(cycle_graph(6))) == 3

    def test_complete(self):
        assert len(maximum_independent_set(complete_graph(5))) == 1

    @given(st.integers(min_value=0, max_value=40))
    @settings(max_examples=15, deadline=None)
    def test_exact_at_least_greedy(self, seed):
        g = erdos_renyi(10, 0.4, random.Random(seed))
        exact = maximum_independent_set(g)
        assert is_independent_set(g, exact)
        assert len(exact) >= len(greedy_mis(g))


class TestEnumeration:
    def test_path3(self):
        result = all_maximal_independent_sets(path_graph(3))
        assert sorted(map(sorted, result)) == [[0, 2], [1]]

    def test_all_enumerated_are_maximal(self):
        g = erdos_renyi(8, 0.4, random.Random(5))
        sets = all_maximal_independent_sets(g)
        assert sets  # every graph has at least one MIS
        for s in sets:
            assert is_maximal_independent_set(g, s)

    def test_contains_greedy(self):
        g = erdos_renyi(8, 0.4, random.Random(6))
        enumerated = {frozenset(s) for s in all_maximal_independent_sets(g)}
        assert frozenset(greedy_mis(g)) in enumerated

    def test_complete_graph_enumeration(self):
        assert len(all_maximal_independent_sets(complete_graph(4))) == 4
