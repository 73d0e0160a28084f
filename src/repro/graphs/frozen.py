"""Immutable CSR graph: the frozen core every pipeline stage consumes.

The mutable :class:`~repro.graphs.graph.Graph` is the *builder*; once a
construction is finished it is frozen into a :class:`FrozenGraph` — a
compressed-sparse-row triple of stdlib ``array('q')`` buffers:

* ``verts``   — the vertex labels, ascending;
* ``offsets`` — ``n + 1`` cumulative degrees into ``nbrs``;
* ``nbrs``    — every vertex's neighbor labels, sorted, concatenated in
  vertex order.

The layout buys what the dict-of-sets builder cannot offer:

* O(1) ``degree`` and slice-based neighbor access with no per-vertex
  set allocation;
* deterministic iteration — ``edges()`` is always emitted in ascending
  ``(u, v)`` order regardless of construction history, so seeded
  experiments are stable across construction paths;
* cheap structural equality (three C-level array comparisons) and a
  hash precomputed at freeze time;
* a canonical little-endian byte serialization whose SHA-256
  :attr:`digest` content-addresses the graph — the engine's
  construction cache keys on it directly via :attr:`cache_token`.

The byte format (version ``RFG1``) is pinned in ``docs/graphs.md``.
"""

from __future__ import annotations

import hashlib
import struct
import sys
from array import array
from bisect import bisect_left, bisect_right
from collections import defaultdict
from collections.abc import Iterable, Iterator, Mapping
from itertools import accumulate, chain, filterfalse, islice

from .graph import Edge, Graph, normalize_edge

#: array typecode for all CSR buffers: signed 64-bit labels/offsets.
_WORD = "q"

#: magic + version prefix of the canonical serialization.
_MAGIC = b"RFG1"

_HEADER = struct.Struct("<4sQQ")  # magic, num_vertices, len(nbrs)


def _le_bytes(buf: array) -> bytes:
    """The buffer's bytes in canonical little-endian order."""
    if sys.byteorder == "little":
        return buf.tobytes()
    swapped = array(_WORD, buf)
    swapped.byteswap()
    return swapped.tobytes()


def _array_from_le(payload: bytes) -> array:
    buf = array(_WORD)
    buf.frombytes(payload)
    if sys.byteorder != "little":
        buf.byteswap()
    return buf


class FrozenGraph:
    """An immutable simple undirected graph in CSR form.

    Exposes the same read API as the mutable builder (``vertices``,
    ``neighbors``, ``edges``, ``has_edge``, ``degree``, ...), so every
    algorithm in :mod:`repro.graphs` runs on either representation.
    Construct via ``Graph(...).freeze()``, :meth:`from_edges`,
    :meth:`from_adjacency` or :meth:`from_neighbor_lists`;
    transformation methods (``induced_subgraph``, ``union``,
    ``relabel``) return new frozen graphs.
    """

    __slots__ = (
        "_verts",
        "_offsets",
        "_nbrs",
        "_index",
        "_num_edges",
        "_hash",
        "_digest",
        "_adjacency",
        "_vertex_set",
        "_edge_set",
        # Weak referenceability: model-layer caches (the per-graph player
        # view cache in ``model.views``) key on the graph without pinning
        # it alive.
        "__weakref__",
    )

    def __init__(
        self,
        vertices: Iterable[int] = (),
        edges: Iterable[Edge] = (),
    ) -> None:
        # Mirror the builder's signature for convenience; the CSR
        # buffers are assembled by the same per-vertex-list path the
        # fast constructors use.
        other = FrozenGraph.from_edges(vertices, edges)
        self._adopt(other._verts, other._offsets, other._nbrs, other._index)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _adopt(
        self,
        verts: array,
        offsets: array,
        nbrs: array,
        index: dict[int, int],
    ) -> None:
        self._verts = verts
        self._offsets = offsets
        self._nbrs = nbrs
        self._index = index
        self._num_edges = len(nbrs) // 2
        self._adjacency: dict[int, frozenset[int]] | None = None
        self._vertex_set: frozenset[int] | None = None
        self._edge_set: frozenset[Edge] | None = None
        digest = hashlib.sha256(self.to_bytes()).digest()
        self._digest = digest.hex()
        self._hash = int.from_bytes(digest[:8], "little", signed=True)

    @classmethod
    def _from_csr(
        cls, verts: array, offsets: array, nbrs: array
    ) -> "FrozenGraph":
        """Trusted constructor from already-canonical CSR buffers."""
        self = cls.__new__(cls)
        index = {v: i for i, v in enumerate(verts)}
        self._adopt(verts, offsets, nbrs, index)
        return self

    @classmethod
    def from_edges(
        cls, vertices: Iterable[int] = (), edges: Iterable[Edge] = ()
    ) -> "FrozenGraph":
        """Freeze the graph spanned by ``vertices`` plus the edges'
        endpoints.  Duplicate edges collapse; self-loops raise."""
        lists = defaultdict(set, {v: set() for v in vertices})
        for u, v in edges:
            if u == v:
                raise ValueError(
                    f"self-loop ({u}, {v}) not allowed in a simple graph"
                )
            lists[u].add(v)
            lists[v].add(u)
        return cls.from_neighbor_lists(lists)

    @classmethod
    def from_adjacency(
        cls, adjacency: Mapping[int, Iterable[int]]
    ) -> "FrozenGraph":
        """Freeze a vertex -> neighbors mapping, validating symmetry."""
        lists = {v: list(nbrs) for v, nbrs in adjacency.items()}
        for v, nbrs in lists.items():
            for u in nbrs:
                if u == v:
                    raise ValueError(f"self-loop at {v} not allowed")
                if u not in lists:
                    raise ValueError(f"neighbor {u} of {v} is not a vertex")
        frozen = cls.from_neighbor_lists(lists)
        # Symmetry check on the finished CSR: every directed entry must
        # have its reverse.
        offsets, nbrs = frozen._offsets, frozen._nbrs
        for i, v in enumerate(frozen._verts):
            for j in range(offsets[i], offsets[i + 1]):
                if not frozen.has_edge(nbrs[j], v):
                    raise ValueError(
                        f"adjacency is asymmetric at ({v}, {nbrs[j]})"
                    )
        return frozen

    @classmethod
    def from_neighbor_lists(
        cls, lists: Mapping[int, Iterable[int]]
    ) -> "FrozenGraph":
        """Build canonical CSR buffers from per-vertex neighbor
        collections (unsorted, possibly with duplicates).

        Trusted: unlike :meth:`from_adjacency`, nothing is validated, so
        the caller guarantees every neighbor is a key, the lists are
        symmetric and there is no self-loop.  Builders that already hold
        whole rows (``Graph.freeze``, the Section 4 reduction graph) use
        it to skip the per-edge work of :meth:`from_edges`.

        This is the assembly hot path for every freeze, so all the
        per-entry work stays at C level (set dedupe, ``sorted``, one
        array per buffer).  The frozenset :meth:`adjacency` view is not
        built here: a graph that only the CSR readers see (batch
        sketches, ``has_edge``, the cover test) never pays for it.
        """
        verts = sorted(lists)
        rows = [
            sorted(raw if isinstance(raw, (set, frozenset)) else set(raw))
            for raw in map(lists.__getitem__, verts)
        ]
        self = cls.__new__(cls)
        self._adopt(
            array(_WORD, verts),
            array(_WORD, accumulate(map(len, rows), initial=0)),
            array(_WORD, list(chain.from_iterable(rows))),
            dict(zip(verts, range(len(verts)))),
        )
        return self

    # ------------------------------------------------------------------
    # Queries (read API shared with the builder)
    # ------------------------------------------------------------------
    @property
    def vertices(self) -> frozenset[int]:
        if self._vertex_set is None:
            self._vertex_set = frozenset(self._verts)
        return self._vertex_set

    def sorted_vertices(self) -> tuple[int, ...]:
        """All vertex labels, ascending (the CSR vertex order)."""
        return tuple(self._verts)

    def has_vertex(self, v: int) -> bool:
        return v in self._index

    def has_edge(self, u: int, v: int) -> bool:
        i = self._index.get(u)
        if i is None:
            return False
        lo, hi = self._offsets[i], self._offsets[i + 1]
        j = bisect_left(self._nbrs, v, lo, hi)
        return j < hi and self._nbrs[j] == v

    def neighbors(self, v: int) -> frozenset[int]:
        """The neighborhood N(v).  Raises KeyError for unknown vertices.

        Frozensets are materialized from the CSR slices on first use and
        cached for the graph's lifetime (the graph is immutable, so the
        cache never invalidates).
        """
        return self.adjacency()[v]

    def neighbors_sorted(self, v: int) -> tuple[int, ...]:
        """N(v) as an ascending tuple straight from the CSR slice."""
        i = self._index[v]
        return tuple(self._nbrs[self._offsets[i] : self._offsets[i + 1]])

    def rows(self) -> Iterator[tuple[int, array]]:
        """Each vertex with its ascending neighbors, in vertex order: for
        every ``v`` of :meth:`sorted_vertices`, ``v`` and a fresh
        ``array('q')`` slice of the CSR buffer holding the values of
        ``neighbors_sorted(v)``.  No neighbor is boxed up front, so a
        batch pass holds one row at a time."""
        nbrs, offsets = self._nbrs, self._offsets
        slices = map(slice, offsets, islice(offsets, 1, None))
        return zip(self._verts, map(nbrs.__getitem__, slices))

    def adjacency(self) -> dict[int, frozenset[int]]:
        """The whole adjacency structure as a read-only shared dict.

        Built from the CSR rows on first use and cached for the graph's
        lifetime.  Vertices appear in ascending order (the CSR order),
        so view construction — and anything iterating the returned dict
        — is deterministic regardless of how the graph was built.
        """
        adj = self._adjacency
        if adj is None:
            offsets, nbrs = self._offsets, self._nbrs
            self._adjacency = adj = {
                v: frozenset(nbrs[offsets[i] : offsets[i + 1]])
                for i, v in enumerate(self._verts)
            }
        return adj

    def degree(self, v: int) -> int:
        i = self._index[v]
        return self._offsets[i + 1] - self._offsets[i]

    def max_degree(self) -> int:
        """Maximum degree Δ; zero for an empty graph."""
        offsets = self._offsets
        return max(
            (offsets[i + 1] - offsets[i] for i in range(len(self._verts))),
            default=0,
        )

    def num_vertices(self) -> int:
        return len(self._verts)

    def num_edges(self) -> int:
        return self._num_edges

    def edges(self) -> Iterator[Edge]:
        """Iterate each undirected edge once, in ascending (u, v) order.

        Unlike the builder (dict insertion order), frozen edge order is
        a pure function of the edge set.
        """
        offsets, nbrs = self._offsets, self._nbrs
        for i, u in enumerate(self._verts):
            lo, hi = offsets[i], offsets[i + 1]
            for j in range(bisect_right(nbrs, u, lo, hi), hi):
                yield (u, nbrs[j])

    def edge_set(self) -> frozenset[Edge]:
        if self._edge_set is None:
            self._edge_set = frozenset(self.edges())
        return self._edge_set

    def incident_edges(self, v: int) -> Iterator[Edge]:
        """Edges incident on v, in canonical form."""
        i = self._index[v]
        for j in range(self._offsets[i], self._offsets[i + 1]):
            u = self._nbrs[j]
            yield (v, u) if v < u else (u, v)

    def is_vertex_cover(self, vertices: Iterable[int]) -> bool:
        """True iff every edge has at least one endpoint in the set.

        Read from the uncovered side: each vertex outside the set must
        have all its neighbors inside it, so only those vertices' CSR
        rows are read, and the :meth:`adjacency` view is never built.
        """
        chosen = set(vertices)
        index, offsets, nbrs = self._index, self._offsets, self._nbrs
        for v in filterfalse(chosen.__contains__, self._verts):
            i = index[v]
            if not chosen.issuperset(nbrs[offsets[i] : offsets[i + 1]]):
                return False
        return True

    def is_dominating_set(self, vertices: Iterable[int]) -> bool:
        """True iff every vertex outside the set has a neighbor in it.

        Like :meth:`is_vertex_cover`, only the CSR rows of the vertices
        outside the set are read, and the :meth:`adjacency` view is
        never built.
        """
        chosen = set(vertices)
        index, offsets, nbrs = self._index, self._offsets, self._nbrs
        for v in filterfalse(chosen.__contains__, self._verts):
            i = index[v]
            if chosen.isdisjoint(nbrs[offsets[i] : offsets[i + 1]]):
                return False
        return True

    def is_independent_set(self, vertices: Iterable[int]) -> bool:
        """True iff no edge of the graph joins two of the given vertices."""
        chosen = set(vertices)
        index, offsets, nbrs = self._index, self._offsets, self._nbrs
        for v in chosen:
            i = index.get(v)
            if i is None:
                continue
            for j in range(offsets[i], offsets[i + 1]):
                if nbrs[j] in chosen:
                    return False
        return True

    # ------------------------------------------------------------------
    # Combination / transformation
    # ------------------------------------------------------------------
    def copy(self) -> "FrozenGraph":
        """Immutable, so a copy is the graph itself."""
        return self

    def freeze(self) -> "FrozenGraph":
        """Already frozen; returns self (mirror of ``Graph.freeze``)."""
        return self

    def to_builder(self) -> Graph:
        """Thaw into a fresh mutable builder with the same structure."""
        builder = Graph(vertices=self._verts)
        adj = builder._adj
        offsets, nbrs = self._offsets, self._nbrs
        for i, v in enumerate(self._verts):
            adj[v].update(nbrs[offsets[i] : offsets[i + 1]])
        return builder

    def induced_subgraph(self, vertices: Iterable[int]) -> "FrozenGraph":
        """The frozen subgraph induced on the given vertex subset.

        Filters CSR slices directly — no intermediate dict-of-sets.
        """
        keep = set(vertices) & self._index.keys()
        new_verts = array(_WORD, sorted(keep))
        new_offsets = array(_WORD, [0])
        new_nbrs = array(_WORD)
        index, offsets, nbrs = self._index, self._offsets, self._nbrs
        for v in new_verts:
            i = index[v]
            for j in range(offsets[i], offsets[i + 1]):
                u = nbrs[j]
                if u in keep:
                    new_nbrs.append(u)
            new_offsets.append(len(new_nbrs))
        return FrozenGraph._from_csr(new_verts, new_offsets, new_nbrs)

    def union(self, other: "FrozenGraph | Graph") -> "FrozenGraph":
        """Union of vertex and edge sets (labels shared, not renamed)."""
        lists: dict[int, list[int]] = {}
        offsets, nbrs = self._offsets, self._nbrs
        for i, v in enumerate(self._verts):
            lists[v] = list(nbrs[offsets[i] : offsets[i + 1]])
        for v in other.vertices:
            lists.setdefault(v, [])
        for u, v in other.edges():
            lists[u].append(v)
            lists[v].append(u)
        return FrozenGraph.from_neighbor_lists(lists)

    def relabel(self, mapping: dict[int, int]) -> "FrozenGraph":
        """A frozen copy with every vertex v renamed to mapping[v].

        The mapping must be defined on every vertex and injective on them.
        """
        images = [mapping[v] for v in self._verts]
        if len(set(images)) != len(images):
            raise ValueError("relabeling map is not injective on the vertices")
        lists: dict[int, list[int]] = {image: [] for image in images}
        offsets, nbrs = self._offsets, self._nbrs
        for i, v in enumerate(self._verts):
            lists[mapping[v]] = [
                mapping[u] for u in nbrs[offsets[i] : offsets[i + 1]]
            ]
        return FrozenGraph.from_neighbor_lists(lists)

    # ------------------------------------------------------------------
    # Canonical serialization / content address
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """The canonical serialization: header + verts + offsets + nbrs,
        all little-endian int64.  Equal graphs produce equal bytes."""
        return b"".join(
            (
                _HEADER.pack(_MAGIC, len(self._verts), len(self._nbrs)),
                _le_bytes(self._verts),
                _le_bytes(self._offsets),
                _le_bytes(self._nbrs),
            )
        )

    @classmethod
    def from_bytes(cls, payload: bytes) -> "FrozenGraph":
        """Inverse of :meth:`to_bytes`; validates the framing."""
        if len(payload) < _HEADER.size:
            raise ValueError("truncated FrozenGraph payload")
        magic, n, m2 = _HEADER.unpack_from(payload)
        if magic != _MAGIC:
            raise ValueError(f"bad FrozenGraph magic {magic!r}")
        itemsize = array(_WORD).itemsize
        expected = _HEADER.size + itemsize * (n + (n + 1) + m2)
        if len(payload) != expected:
            raise ValueError(
                f"FrozenGraph payload is {len(payload)} bytes, expected {expected}"
            )
        pos = _HEADER.size
        verts = _array_from_le(payload[pos : pos + itemsize * n])
        pos += itemsize * n
        offsets = _array_from_le(payload[pos : pos + itemsize * (n + 1)])
        pos += itemsize * (n + 1)
        nbrs = _array_from_le(payload[pos:])
        if list(offsets) != sorted(offsets) or (n and offsets[-1] != m2):
            raise ValueError("FrozenGraph offsets are not a valid CSR index")
        return cls._from_csr(verts, offsets, nbrs)

    @property
    def digest(self) -> str:
        """SHA-256 hex digest of :meth:`to_bytes` — the content address."""
        return self._digest

    @property
    def cache_token(self) -> str:
        """Fingerprint consumed by ``engine.cache_key`` when a graph
        appears in a construction-cache parameter tuple."""
        return f"frozen-graph:{self._digest}"

    # ------------------------------------------------------------------
    # Dunder
    # ------------------------------------------------------------------
    def __reduce__(self):
        # Pickle via the canonical bytes: round-trips are digest-stable.
        return (FrozenGraph.from_bytes, (self.to_bytes(),))

    def __contains__(self, v: int) -> bool:
        return v in self._index

    def __len__(self) -> int:
        return len(self._verts)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FrozenGraph):
            return (
                self._hash == other._hash
                and self._verts == other._verts
                and self._offsets == other._offsets
                and self._nbrs == other._nbrs
            )
        if isinstance(other, Graph):
            return (
                self.vertices == other.vertices
                and self.edge_set() == other.edge_set()
            )
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (
            f"FrozenGraph(n={self.num_vertices()}, m={self.num_edges()}, "
            f"digest={self._digest[:12]})"
        )


#: Any graph the read-only pipeline accepts: the mutable builder or the
#: frozen CSR core.  Algorithms annotated with this use only the shared
#: read API.
GraphLike = Graph | FrozenGraph


def freeze(graph: GraphLike) -> FrozenGraph:
    """Freeze a builder (no-op on an already-frozen graph)."""
    return graph.freeze()
