"""FrozenGraph vs the mutable builder, as runs of the registry's pair.

Each id names one property the ``graphs`` pair's differential or laws
check on every case: the builder (dict-of-sets) is the oracle, and
induced subgraphs, unions and relabelings must commute with freezing.
The vertex-cover test keeps its own seeded loop.
"""

import random

import pytest

from repro.graphs import Graph, greedy_maximal_matching

from .pair_runner import PairRun


@pytest.fixture(scope="module")
def graphs():
    """One run of the ``graphs`` pair's first 100 cases for every id here."""
    return PairRun("graphs", 100)


def test_observables_agree(graphs):
    graphs.check(100, "differential")


def test_edges_sorted_and_complete(graphs):
    graphs.check(100, "differential")


def test_edges_order_insertion_independent(graphs):
    graphs.check(100, "differential")


def test_induced_subgraph_commutes_with_freeze(graphs):
    graphs.check(100, "differential")


def test_union_commutes_with_freeze(graphs):
    graphs.check(100, "differential")


def test_relabel_commutes_with_freeze(graphs):
    graphs.check(100, "relabel-invariance")


def test_pickle_and_bytes_roundtrip(graphs):
    graphs.check(100, "roundtrip")


def test_to_builder_inverts_freeze(graphs):
    graphs.check(100, "differential", "roundtrip")


def test_is_independent_set_agrees(graphs):
    graphs.check(100, "differential")


def test_is_vertex_cover_agrees():
    """The CSR cover test reads only the uncovered vertices' rows; the
    builder and an edge scan are the oracles."""
    rng = random.Random(29)
    answers = set()
    for _ in range(300):
        n = rng.randrange(1, 12)
        g = Graph(vertices=range(n))  # vertices no edge touches stay isolated
        for _ in range(rng.randrange(2 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                g.add_edge(u, v)
        f = g.freeze()
        matched = {v for e in greedy_maximal_matching(g) for v in e}
        for chosen in (
            set(),
            set(range(n)),
            matched,
            matched | {n, -1},  # ids that are not vertices
            set(rng.sample(range(-2, n + 2), rng.randrange(n + 4))),
        ):
            expected = all(u in chosen or v in chosen for u, v in g.edges())
            assert g.is_vertex_cover(chosen) == expected
            assert f.is_vertex_cover(chosen) == expected
            assert f.is_vertex_cover(iter(chosen)) == expected
            answers.add(expected)
    assert answers == {True, False}


def test_from_edges_equals_freeze_path(graphs):
    graphs.check(25, "differential")
