"""Tests for the AGM spanning forest / connectivity sketches (UB-SF)."""

import math
import random

import pytest

from repro.graphs import (
    complete_graph,
    cycle_graph,
    erdos_renyi,
    is_spanning_forest,
    matching_graph,
    path_graph,
)
from repro.model import PublicCoins, run_protocol
from repro.sketches import (
    AGMConnectivity,
    AGMParameters,
    AGMSpanningForest,
    coordinate_edge,
    edge_coordinate,
    incidence_entries,
)
from repro.model import views_of


class TestIncidence:
    def test_edge_coordinate_roundtrip(self):
        n = 10
        for u, v in [(0, 1), (3, 7), (8, 9)]:
            assert coordinate_edge(edge_coordinate(u, v, n), n) == (u, v)
            assert edge_coordinate(v, u, n) == edge_coordinate(u, v, n)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            edge_coordinate(3, 3, 10)

    def test_endpoint_outside_vertex_range_rejected(self):
        # Either endpoint >= n would alias another edge's slot: (1, 15)
        # at n = 10 is coordinate 25, which reads back as edge (2, 5).
        for u, v in [(1, 15), (12, 3)]:
            with pytest.raises(ValueError):
                edge_coordinate(u, v, 10)

    def test_non_canonical_coordinate_rejected(self):
        with pytest.raises(ValueError):
            coordinate_edge(5 * 10 + 2, 10)  # j < i slot

    def test_incidence_signs_cancel_over_components(self):
        g = cycle_graph(5)
        views = views_of(g)
        totals: dict[int, int] = {}
        for view in views.values():
            for coord, val in incidence_entries(view):
                totals[coord] = totals.get(coord, 0) + val
        assert all(v == 0 for v in totals.values())

    def test_incidence_boundary_survives(self):
        g = path_graph(3)
        views = views_of(g)
        totals: dict[int, int] = {}
        for v in (0, 1):  # S = {0, 1}; boundary edge (1, 2)
            for coord, val in incidence_entries(views[v]):
                totals[coord] = totals.get(coord, 0) + val
        nonzero = {c: v for c, v in totals.items() if v}
        assert nonzero == {edge_coordinate(1, 2, 3): 1}


class TestAGMSpanningForest:
    def _check(self, g, seed=0):
        run = run_protocol(g, AGMSpanningForest(), PublicCoins(seed))
        assert is_spanning_forest(g, run.output)
        return run

    def test_path(self):
        self._check(path_graph(8))

    def test_cycle(self):
        self._check(cycle_graph(9))

    def test_complete(self):
        self._check(complete_graph(8))

    def test_disconnected_matching(self):
        self._check(matching_graph(5))

    def test_empty_graph(self):
        from repro.graphs import empty_graph

        run = run_protocol(empty_graph(6), AGMSpanningForest(), PublicCoins(1))
        assert run.output == set()

    def test_random_graphs_many_seeds(self):
        for seed in range(8):
            g = erdos_renyi(16, 0.25, random.Random(seed))
            self._check(g, seed=seed)

    def test_polylog_cost_scaling(self):
        """Sketch bits grow ~log^3 n: ratio between n and 4n far below 4."""
        costs = {}
        for n in (16, 64):
            g = cycle_graph(n)
            run = run_protocol(g, AGMSpanningForest(), PublicCoins(2))
            costs[n] = run.max_bits
        growth = costs[64] / costs[16]
        # log^3 growth: (log 64 / log 16)^3 = (6/4)^3 ≈ 3.4 — linear would be 4x.
        # (The absolute constants are large — 61-bit fingerprints — so the
        # polylog-vs-linear crossover happens beyond unit-test sizes; the
        # growth *rate* is the meaningful assertion here.  Experiment UB-SF
        # reports the absolute bits.)
        assert growth < 4.0

    def test_explicit_parameters(self):
        params = AGMParameters(num_rounds=6, repetitions=2)
        g = cycle_graph(12)
        run = run_protocol(g, AGMSpanningForest(params), PublicCoins(3))
        assert is_spanning_forest(g, run.output)

    def test_for_n_rounds(self):
        assert AGMParameters.for_n(16).num_rounds == math.ceil(math.log2(16)) + 1


class TestAGMConnectivity:
    def test_connected(self):
        run = run_protocol(cycle_graph(10), AGMConnectivity(), PublicCoins(4))
        assert run.output["is_connected"]
        assert run.output["num_components"] == 1

    def test_disconnected(self):
        run = run_protocol(matching_graph(4), AGMConnectivity(), PublicCoins(5))
        assert not run.output["is_connected"]
        assert run.output["num_components"] == 4

    def test_components_partition_vertices(self):
        g = matching_graph(3)
        run = run_protocol(g, AGMConnectivity(), PublicCoins(6))
        union = set()
        for c in run.output["components"]:
            union |= c
        assert union == set(g.vertices)
