"""Core undirected graph data structure used throughout the reproduction.

The distributed sketching model of the paper works with simple undirected
graphs whose vertices carry integer labels (the player IDs).  We keep the
representation deliberately small and explicit: a set of vertices plus an
adjacency map of sets.  Vertices may exist without edges (isolated public
vertices occur naturally in the hard distribution when all incident edges
are subsampled away), so the vertex set is tracked independently of the
adjacency structure.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

Edge = tuple[int, int]


def normalize_edge(u: int, v: int) -> Edge:
    """Return the canonical (min, max) form of an undirected edge.

    Raises ValueError on self-loops: the model only considers simple graphs.
    """
    if u == v:
        raise ValueError(f"self-loop ({u}, {v}) not allowed in a simple graph")
    return (u, v) if u < v else (v, u)


class Graph:
    """A simple undirected graph over integer-labelled vertices.

    This is the *builder*: mutable during construction, then typically
    handed to the pipeline as an immutable CSR graph via :meth:`freeze`
    (see :class:`repro.graphs.frozen.FrozenGraph`).  Equality compares
    vertex and edge sets; builders are unhashable — freeze first.
    """

    __slots__ = ("_adj", "_adjacency_view")

    def __init__(
        self,
        vertices: Iterable[int] = (),
        edges: Iterable[Edge] = (),
    ) -> None:
        self._adj: dict[int, set[int]] = {}
        self._adjacency_view: dict[int, frozenset[int]] | None = None
        for v in vertices:
            self.add_vertex(v)
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_vertex(self, v: int) -> None:
        """Add an isolated vertex (no-op if present)."""
        if v not in self._adj:
            self._adj[v] = set()
            self._adjacency_view = None

    def add_edge(self, u: int, v: int) -> None:
        """Add edge {u, v}, creating endpoints as needed (no-op if present)."""
        normalize_edge(u, v)
        self._adj.setdefault(u, set()).add(v)
        self._adj.setdefault(v, set()).add(u)
        self._adjacency_view = None

    def remove_edge(self, u: int, v: int) -> None:
        """Remove edge {u, v}; raises KeyError if absent.

        Membership is checked on *both* endpoints before either side is
        mutated, so a failed removal never leaves the adjacency
        asymmetric (the old remove-then-remove sequence could drop one
        direction and then raise).
        """
        if v not in self._adj.get(u, ()) or u not in self._adj.get(v, ()):
            raise KeyError(f"edge ({u}, {v}) not in graph")
        self._adj[u].remove(v)
        self._adj[v].remove(u)
        self._adjacency_view = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(self._adj)

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj.get(u, ())

    def neighbors(self, v: int) -> frozenset[int]:
        """The neighborhood N(v).  Raises KeyError for unknown vertices."""
        return frozenset(self._adj[v])

    def adjacency(self) -> dict[int, frozenset[int]]:
        """A cached frozen view of the whole adjacency structure.

        Built once per graph state and invalidated by any mutation, so
        hot paths that iterate every player's neighborhood (``views_of``
        on large instances) avoid re-freezing each set per call.  The
        returned dict is shared — treat it as read-only.
        """
        if self._adjacency_view is None:
            self._adjacency_view = {
                v: frozenset(nbrs) for v, nbrs in self._adj.items()
            }
        return self._adjacency_view

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def max_degree(self) -> int:
        """Maximum degree Δ; zero for an empty graph."""
        return max((len(nbrs) for nbrs in self._adj.values()), default=0)

    def num_vertices(self) -> int:
        return len(self._adj)

    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def edges(self) -> Iterator[Edge]:
        """Iterate each undirected edge once, in canonical (u < v) form."""
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges())

    def incident_edges(self, v: int) -> Iterator[Edge]:
        """Edges incident on v, in canonical form."""
        for u in self._adj[v]:
            yield normalize_edge(v, u)

    def induced_subgraph(self, vertices: Iterable[int]) -> "Graph":
        """The subgraph induced on the given vertex subset."""
        keep = set(vertices)
        sub = Graph(vertices=keep & self.vertices)
        for u, v in self.edges():
            if u in keep and v in keep:
                sub.add_edge(u, v)
        return sub

    def is_vertex_cover(self, vertices: Iterable[int]) -> bool:
        """True iff every edge has at least one endpoint in the set: each
        vertex outside it has all its neighbors inside it."""
        chosen = set(vertices)
        return all(
            nbrs <= chosen for v, nbrs in self._adj.items() if v not in chosen
        )

    def is_dominating_set(self, vertices: Iterable[int]) -> bool:
        """True iff every vertex outside the set has a neighbor in it."""
        chosen = set(vertices)
        return all(
            not chosen.isdisjoint(nbrs)
            for v, nbrs in self._adj.items()
            if v not in chosen
        )

    def is_independent_set(self, vertices: Iterable[int]) -> bool:
        """True iff no edge of the graph joins two of the given vertices."""
        chosen = set(vertices)
        return all(not (self._adj.get(u, set()) & chosen) for u in chosen)

    # ------------------------------------------------------------------
    # Combination / transformation
    # ------------------------------------------------------------------
    def freeze(self):
        """Freeze into an immutable CSR :class:`FrozenGraph`.

        The frozen graph is the type the pipeline consumes: O(1) degree,
        deterministic sorted iteration, precomputed hash, and a SHA-256
        content digest for the engine's construction cache.  The builder
        is left untouched and may keep mutating.
        """
        from .frozen import FrozenGraph

        # The adjacency sets are read, never kept: freezing is zero-copy
        # on the builder side.
        return FrozenGraph.from_neighbor_lists(self._adj)

    def copy(self) -> "Graph":
        g = Graph()
        g._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        return g

    def union(self, other: "Graph") -> "Graph":
        """Union of vertex and edge sets (labels are shared, not renamed)."""
        g = self.copy()
        for v in other.vertices:
            g.add_vertex(v)
        for u, v in other.edges():
            g.add_edge(u, v)
        return g

    def relabel(self, mapping: dict[int, int]) -> "Graph":
        """Return a copy with every vertex v renamed to mapping[v].

        The mapping must be defined on every vertex and injective on them.
        """
        images = [mapping[v] for v in self._adj]
        if len(set(images)) != len(images):
            raise ValueError("relabeling map is not injective on the vertices")
        g = Graph(vertices=images)
        for u, v in self.edges():
            g.add_edge(mapping[u], mapping[v])
        return g

    # ------------------------------------------------------------------
    # Dunder
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        # The adjacency view is a derived cache; keep pickles lean.
        return {"_adj": self._adj}

    def __setstate__(self, state: dict) -> None:
        self._adj = state["_adj"]
        self._adjacency_view = None

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and self.edge_set() == other.edge_set()

    def __hash__(self) -> int:
        # A mutable object must not be hashable: a builder used as a dict
        # key would silently corrupt the table on the next add_edge, and
        # the old implementation cost O(n + m) per call on top of that.
        raise TypeError(
            "Graph is a mutable builder and unhashable; call .freeze() and "
            "hash the FrozenGraph (precomputed, O(1))"
        )

    def __repr__(self) -> str:
        return f"Graph(n={self.num_vertices()}, m={self.num_edges()})"


def graph_from_edges(edges: Iterable[Edge]) -> Graph:
    """Build a graph containing exactly the endpoints of the given edges."""
    return Graph(edges=edges)


def complete_graph(n: int) -> Graph:
    """K_n on vertices 0..n-1."""
    g = Graph(vertices=range(n))
    for u in range(n):
        for v in range(u + 1, n):
            g.add_edge(u, v)
    return g


def empty_graph(n: int) -> Graph:
    """The edgeless graph on vertices 0..n-1."""
    return Graph(vertices=range(n))
