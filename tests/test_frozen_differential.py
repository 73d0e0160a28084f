"""Differential property tests: FrozenGraph vs the mutable builder.

The builder (dict-of-sets) is the oracle: every random graph is built
both ways and each shared read-API observable must agree exactly.
Transformations (induced_subgraph, union, relabel) must commute with
freezing, and the canonical properties of the CSR form — insertion-order
independence, digest stability across pickling — are checked on top.
"""

import pickle
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import FrozenGraph, Graph, greedy_maximal_matching

# Small dense label space so random graphs collide, repeat edges, and
# leave isolated vertices.
labels = st.integers(0, 11)
edge = st.tuples(labels, labels).filter(lambda e: e[0] != e[1])
graph_spec = st.tuples(st.lists(labels, max_size=8), st.lists(edge, max_size=24))


def build_pair(spec) -> tuple[Graph, FrozenGraph]:
    vertices, edges = spec
    g = Graph(vertices=vertices)
    for u, v in edges:
        g.add_edge(u, v)
    return g, g.freeze()


@given(graph_spec)
def test_observables_agree(spec):
    g, f = build_pair(spec)
    assert f.vertices == g.vertices
    assert f.num_vertices() == g.num_vertices()
    assert f.num_edges() == g.num_edges()
    assert f.edge_set() == g.edge_set()
    assert f.max_degree() == g.max_degree()
    assert len(f) == len(g)
    for v in g.vertices:
        assert f.has_vertex(v) and v in f
        assert f.neighbors(v) == g.neighbors(v)
        assert f.degree(v) == g.degree(v)
        assert sorted(f.incident_edges(v)) == sorted(g.incident_edges(v))
        assert f.neighbors_sorted(v) == tuple(sorted(g.neighbors(v)))
    for u, v in g.edges():
        assert f.has_edge(u, v) and f.has_edge(v, u)
    assert not f.has_edge(96, 97)
    assert f.adjacency() == g.adjacency()
    assert f == g and g == f


@given(graph_spec)
def test_edges_sorted_and_complete(spec):
    g, f = build_pair(spec)
    es = list(f.edges())
    assert es == sorted(es)  # ascending (u, v)
    assert all(u < v for u, v in es)
    assert set(es) == g.edge_set()
    assert len(es) == g.num_edges()  # no duplicates


@given(graph_spec, st.randoms(use_true_random=False))
def test_edges_order_insertion_independent(spec, rnd):
    """Frozen edge order is a pure function of the edge *set*."""
    g, f = build_pair(spec)
    vertices = list(spec[0])
    edges = list(g.edge_set())
    rnd.shuffle(vertices)
    rnd.shuffle(edges)
    g2 = Graph(vertices=vertices)
    for u, v in edges:
        if rnd.random() < 0.5:
            u, v = v, u
        g2.add_edge(u, v)
    f2 = g2.freeze()
    assert list(f2.edges()) == list(f.edges())
    assert f2.to_bytes() == f.to_bytes()
    assert f2.digest == f.digest
    assert hash(f2) == hash(f)
    assert f2 == f


@given(graph_spec, st.sets(labels, max_size=8))
def test_induced_subgraph_commutes_with_freeze(spec, keep):
    g, f = build_pair(spec)
    assert f.induced_subgraph(keep) == g.induced_subgraph(keep)


@given(graph_spec, graph_spec)
def test_union_commutes_with_freeze(spec_a, spec_b):
    ga, fa = build_pair(spec_a)
    gb, fb = build_pair(spec_b)
    expected = ga.union(gb)
    assert fa.union(fb) == expected
    assert fa.union(gb) == expected  # mixed-representation union


@given(graph_spec, st.integers(0, 1000))
def test_relabel_commutes_with_freeze(spec, seed):
    g, f = build_pair(spec)
    verts = sorted(g.vertices)
    images = list(range(100, 100 + len(verts)))
    random.Random(seed).shuffle(images)
    mapping = dict(zip(verts, images))
    assert f.relabel(mapping) == g.relabel(mapping)


@given(graph_spec)
def test_pickle_and_bytes_roundtrip(spec):
    _, f = build_pair(spec)
    for clone in (pickle.loads(pickle.dumps(f)), FrozenGraph.from_bytes(f.to_bytes())):
        assert clone == f
        assert clone.digest == f.digest
        assert hash(clone) == hash(f)
        assert list(clone.edges()) == list(f.edges())


@given(graph_spec)
def test_to_builder_inverts_freeze(spec):
    g, f = build_pair(spec)
    thawed = f.to_builder()
    assert thawed == g
    assert thawed.freeze() == f


@given(graph_spec, st.lists(labels, max_size=6))
def test_is_independent_set_agrees(spec, candidate):
    g, f = build_pair(spec)
    assert f.is_independent_set(candidate) == g.is_independent_set(candidate)


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


@settings(max_examples=25)
@given(graph_spec)
def test_from_edges_equals_freeze_path(spec):
    """Direct CSR construction agrees with the builder round trip."""
    g, f = build_pair(spec)
    direct = FrozenGraph.from_edges(g.vertices, g.edges())
    assert direct == f
    assert direct.digest == f.digest
    via_adjacency = FrozenGraph.from_adjacency(
        {v: set(g.neighbors(v)) for v in g.vertices}
    )
    assert via_adjacency == f
    assert via_adjacency.digest == f.digest
