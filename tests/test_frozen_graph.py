"""Unit tests for the frozen CSR graph core.

Covers the FrozenGraph constructors and read API, the canonical byte
serialization (RFG1) and its SHA-256 content address, the engine
cache-key integration, and two builder hazards fixed alongside the
freeze work: non-atomic ``remove_edge`` and the mutable ``__hash__``.
"""

import pickle

import pytest

from repro.engine import cache_key
from repro.graphs import FrozenGraph, Graph, freeze
from repro.graphs.frozen import _HEADER, _MAGIC


def petersen_builder() -> Graph:
    g = Graph(vertices=range(10))
    for i in range(5):
        g.add_edge(i, (i + 1) % 5)  # outer cycle
        g.add_edge(i, i + 5)  # spokes
        g.add_edge(i + 5, 5 + (i + 2) % 5)  # inner pentagram
    return g


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
class TestConstruction:
    def test_freeze_matches_builder(self):
        g = petersen_builder()
        f = g.freeze()
        assert f == g
        assert g == f  # reflected via NotImplemented fallback
        assert f.vertices == g.vertices
        assert f.edge_set() == g.edge_set()
        assert f.num_vertices() == 10
        assert f.num_edges() == 15

    def test_init_mirrors_builder_signature(self):
        f = FrozenGraph(vertices=range(4), edges=[(0, 1), (2, 3)])
        assert f.vertices == frozenset(range(4))
        assert f.edge_set() == {(0, 1), (2, 3)}

    def test_from_edges_collapses_duplicates(self):
        f = FrozenGraph.from_edges(edges=[(0, 1), (1, 0), (0, 1)])
        assert f.num_edges() == 1
        assert f.degree(0) == 1

    def test_from_edges_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            FrozenGraph.from_edges(edges=[(2, 2)])

    def test_from_adjacency_roundtrip(self):
        f = FrozenGraph.from_adjacency({0: [1, 2], 1: [0], 2: [0], 3: []})
        assert f.edge_set() == {(0, 1), (0, 2)}
        assert f.has_vertex(3) and f.degree(3) == 0

    def test_from_adjacency_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="asymmetric"):
            FrozenGraph.from_adjacency({0: [1], 1: [], 2: []})
        # Symmetric entry counts but wrong pairing must also fail.
        with pytest.raises(ValueError, match="asymmetric"):
            FrozenGraph.from_adjacency({0: [1], 1: [2], 2: [0]})

    def test_from_adjacency_rejects_unknown_neighbor(self):
        with pytest.raises(ValueError, match="not a vertex"):
            FrozenGraph.from_adjacency({0: [7]})

    def test_freeze_leaves_builder_usable(self):
        g = Graph(edges=[(0, 1)])
        f = g.freeze()
        g.add_edge(1, 2)
        assert f.edge_set() == {(0, 1)}
        assert g.num_edges() == 2

    def test_freeze_helper_and_idempotence(self):
        g = petersen_builder()
        f = freeze(g)
        assert isinstance(f, FrozenGraph)
        assert f.freeze() is f
        assert f.copy() is f
        assert freeze(f) is f

    def test_to_builder_thaws(self):
        f = petersen_builder().freeze()
        g = f.to_builder()
        assert isinstance(g, Graph)
        assert f == g
        g.add_edge(0, 7)  # thawed copy is independent
        assert not f.has_edge(0, 7)


# ----------------------------------------------------------------------
# Read API
# ----------------------------------------------------------------------
class TestReadAPI:
    def test_deterministic_sorted_edges(self):
        f = petersen_builder().freeze()
        es = list(f.edges())
        assert es == sorted(es)
        assert all(u < v for u, v in es)

    def test_sorted_vertices_and_neighbors(self):
        f = FrozenGraph.from_edges(vertices=[5, 3, 9], edges=[(9, 3), (5, 9)])
        assert f.sorted_vertices() == (3, 5, 9)
        assert f.neighbors_sorted(9) == (3, 5)
        assert f.neighbors(9) == frozenset({3, 5})

    def test_rows_are_the_sorted_neighbor_slices(self):
        f = FrozenGraph.from_edges(
            vertices=[5, 3, 9, 12], edges=[(9, 3), (5, 9), (12, 3)]
        )
        rows = [(v, tuple(row)) for v, row in f.rows()]
        assert rows == [(v, f.neighbors_sorted(v)) for v in f.sorted_vertices()]
        assert rows == [(3, (9, 12)), (5, (9,)), (9, (3, 5)), (12, (3,))]
        assert list(FrozenGraph().rows()) == []

    def test_degree_and_max_degree(self):
        f = petersen_builder().freeze()
        assert all(f.degree(v) == 3 for v in f.vertices)
        assert f.max_degree() == 3
        assert FrozenGraph().max_degree() == 0

    def test_has_edge_and_contains(self):
        f = FrozenGraph.from_edges(edges=[(0, 1)])
        assert f.has_edge(0, 1) and f.has_edge(1, 0)
        assert not f.has_edge(0, 2)
        assert not f.has_edge(42, 0)  # unknown endpoint, no raise
        assert 0 in f and 42 not in f
        assert len(f) == 2

    def test_neighbors_unknown_vertex_raises(self):
        f = FrozenGraph.from_edges(edges=[(0, 1)])
        with pytest.raises(KeyError):
            f.neighbors(5)
        with pytest.raises(KeyError):
            f.degree(5)

    def test_adjacency_is_shared_and_ascending(self):
        f = FrozenGraph.from_edges(vertices=[4, 2, 0], edges=[(4, 0)])
        adj = f.adjacency()
        assert adj is f.adjacency()  # built once, cached forever
        assert list(adj) == [0, 2, 4]

    def test_incident_edges_canonical(self):
        f = FrozenGraph.from_edges(edges=[(3, 1), (3, 5)])
        assert sorted(f.incident_edges(3)) == [(1, 3), (3, 5)]

    def test_is_independent_set(self):
        f = petersen_builder().freeze()
        assert f.is_independent_set([0, 2, 6])  # no mutual edges
        assert not f.is_independent_set([0, 1])
        assert f.is_independent_set([0, 99])  # unknown labels ignored


# ----------------------------------------------------------------------
# Transformations
# ----------------------------------------------------------------------
class TestTransforms:
    def test_induced_subgraph(self):
        f = petersen_builder().freeze()
        sub = f.induced_subgraph([0, 1, 2, 99])
        assert isinstance(sub, FrozenGraph)
        assert sub.vertices == frozenset({0, 1, 2})
        assert sub.edge_set() == {(0, 1), (1, 2)}

    def test_union(self):
        a = FrozenGraph.from_edges(edges=[(0, 1)])
        b = FrozenGraph.from_edges(vertices=[9], edges=[(1, 2)])
        u = a.union(b)
        assert u.vertices == frozenset({0, 1, 2, 9})
        assert u.edge_set() == {(0, 1), (1, 2)}

    def test_relabel(self):
        f = FrozenGraph.from_edges(edges=[(0, 1), (1, 2)])
        r = f.relabel({0: 10, 1: 11, 2: 12})
        assert r.edge_set() == {(10, 11), (11, 12)}

    def test_relabel_requires_injectivity(self):
        f = FrozenGraph.from_edges(edges=[(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="injective"):
            f.relabel({0: 7, 1: 8, 2: 7})


# ----------------------------------------------------------------------
# Canonical serialization & content address
# ----------------------------------------------------------------------
class TestSerialization:
    def test_bytes_roundtrip(self):
        f = petersen_builder().freeze()
        g = FrozenGraph.from_bytes(f.to_bytes())
        assert g == f
        assert g.digest == f.digest
        assert hash(g) == hash(f)

    def test_equal_graphs_equal_bytes(self):
        # Same structure built two different ways: identical bytes.
        a = Graph()
        for u, v in [(2, 0), (0, 1)]:
            a.add_edge(u, v)
        b = FrozenGraph.from_edges(vertices=[1, 0, 2], edges=[(0, 1), (0, 2)])
        assert a.freeze().to_bytes() == b.to_bytes()
        assert a.freeze().digest == b.digest

    def test_different_graphs_different_digests(self):
        a = FrozenGraph.from_edges(edges=[(0, 1)])
        b = FrozenGraph.from_edges(edges=[(0, 2)])
        c = FrozenGraph.from_edges(vertices=[2], edges=[(0, 1)])
        assert len({a.digest, b.digest, c.digest}) == 3

    def test_bad_magic_rejected(self):
        payload = petersen_builder().freeze().to_bytes()
        with pytest.raises(ValueError, match="magic"):
            FrozenGraph.from_bytes(b"XXXX" + payload[4:])

    def test_truncated_payload_rejected(self):
        payload = petersen_builder().freeze().to_bytes()
        with pytest.raises(ValueError):
            FrozenGraph.from_bytes(payload[:-8])
        with pytest.raises(ValueError, match="truncated"):
            FrozenGraph.from_bytes(payload[:3])

    def test_non_monotone_offsets_rejected(self):
        # Handcraft a payload with a decreasing offsets array.
        itemsize = 8
        verts = (0).to_bytes(itemsize, "little", signed=True) + (
            1
        ).to_bytes(itemsize, "little", signed=True)
        offsets = b"".join(
            x.to_bytes(itemsize, "little", signed=True) for x in (2, 0, 2)
        )
        nbrs = (1).to_bytes(itemsize, "little", signed=True) + (
            0
        ).to_bytes(itemsize, "little", signed=True)
        payload = _HEADER.pack(_MAGIC, 2, 2) + verts + offsets + nbrs
        with pytest.raises(ValueError, match="offsets"):
            FrozenGraph.from_bytes(payload)

    def test_pickle_roundtrip_digest_stable(self):
        f = petersen_builder().freeze()
        g = pickle.loads(pickle.dumps(f))
        assert g == f and g.digest == f.digest and hash(g) == hash(f)

    def test_repr_carries_digest_prefix(self):
        f = petersen_builder().freeze()
        assert f.digest[:12] in repr(f)


# ----------------------------------------------------------------------
# Engine cache integration
# ----------------------------------------------------------------------
class TestCacheToken:
    def test_cache_token_is_digest_addressed(self):
        f = petersen_builder().freeze()
        assert f.cache_token == f"frozen-graph:{f.digest}"

    def test_cache_key_consumes_token(self):
        a = petersen_builder().freeze()
        b = petersen_builder().freeze()
        assert cache_key(("x", a)) == cache_key(("x", b))
        c = FrozenGraph.from_edges(edges=[(0, 1)])
        assert cache_key(("x", a)) != cache_key(("x", c))

    def test_cache_key_token_nests_in_tuples(self):
        f = petersen_builder().freeze()
        assert cache_key((("nested", f), 1)) == cache_key((("nested", f), 1))
        assert cache_key((("nested", f), 1)) != cache_key((("nested", f), 2))


# ----------------------------------------------------------------------
# Hashing semantics (satellite: mutable-hash hazard)
# ----------------------------------------------------------------------
class TestHashing:
    def test_builder_hash_raises(self):
        with pytest.raises(TypeError, match="freeze"):
            hash(Graph(edges=[(0, 1)]))

    def test_frozen_hash_is_structural(self):
        a = Graph()
        a.add_edge(1, 0)
        b = FrozenGraph.from_edges(edges=[(0, 1)])
        assert hash(a.freeze()) == hash(b)
        assert {a.freeze(), b} == {b}  # usable as set/dict keys

    def test_frozen_hash_precomputed(self):
        f = petersen_builder().freeze()
        assert f._hash == hash(f)


# ----------------------------------------------------------------------
# remove_edge atomicity (satellite: regression)
# ----------------------------------------------------------------------
class TestRemoveEdgeAtomicity:
    def test_missing_edge_mutates_nothing(self):
        g = Graph(vertices=range(3), edges=[(0, 1)])
        before = {v: set(nbrs) for v, nbrs in g.adjacency().items()}
        with pytest.raises(KeyError):
            g.remove_edge(0, 2)
        after = {v: set(nbrs) for v, nbrs in g.adjacency().items()}
        assert after == before

    def test_unknown_vertex_mutates_nothing(self):
        g = Graph(edges=[(0, 1)])
        with pytest.raises(KeyError):
            g.remove_edge(0, 42)
        assert g.has_edge(0, 1)

    def test_asymmetric_state_left_untouched(self):
        # White-box regression: force the asymmetric state the old
        # remove-then-raise sequence could create, and check a failed
        # removal no longer halves the surviving direction.
        g = Graph(edges=[(0, 1)])
        g._adj[1].discard(0)  # simulate pre-fix corruption: 0->1 only
        with pytest.raises(KeyError):
            g.remove_edge(0, 1)
        assert 1 in g._adj[0]  # the one remaining direction survives

    def test_successful_removal_symmetric(self):
        g = Graph(edges=[(0, 1), (1, 2)])
        g.remove_edge(1, 0)
        assert not g.has_edge(0, 1) and not g.has_edge(1, 0)
        assert g.has_edge(1, 2)
        assert g.vertices == frozenset({0, 1, 2})  # endpoints stay
