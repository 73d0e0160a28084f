"""Player-side views of the input graph.

Section 2.1: the player at vertex u knows the total number of vertices n,
its own ID, and the set of neighbor IDs N(u) — nothing else.  Every edge
is therefore seen by exactly two players.  ``VertexView`` is the *only*
graph information a protocol's sketch function receives; the runner
constructs the views, so a protocol cannot accidentally peek at the rest
of the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from weakref import WeakKeyDictionary

from ..graphs import Edge, FrozenGraph, GraphLike, normalize_edge


@dataclass(frozen=True)
class VertexView:
    """What a single player sees: (n, own ID, neighborhood)."""

    n: int
    vertex: int
    neighbors: frozenset[int]

    @property
    def degree(self) -> int:
        return len(self.neighbors)

    @cached_property
    def sorted_neighbors(self) -> tuple[int, ...]:
        """N(u) ascending, computed once per view.

        Most sketch functions canonicalize the neighborhood before
        sampling or encoding; with views cached per frozen graph the
        sort is paid once per graph instead of once per protocol run.
        """
        return tuple(sorted(self.neighbors))

    def incident_edges(self) -> list[Edge]:
        """The edges this player knows, in canonical sorted order."""
        return sorted(normalize_edge(self.vertex, u) for u in self.neighbors)


#: Per-graph view cache: a frozen graph's player views are a pure
#: function of (graph, n), so they are built once and shared across
#: every subsequent protocol run on the same instance.  Weak keys keep
#: the cache from pinning retired instances alive.
_FROZEN_VIEW_CACHE: "WeakKeyDictionary[FrozenGraph, dict[int, dict[int, VertexView]]]" = (
    WeakKeyDictionary()
)


def views_of(graph: GraphLike, n: int | None = None) -> dict[int, VertexView]:
    """Build every player's view of the graph.

    ``n`` defaults to the number of vertices; pass it explicitly when
    vertex labels are not 0..n-1 contiguous (the hard distribution labels
    vertices by an arbitrary permutation of [n]).

    Accepts either representation.  On a ``FrozenGraph`` — the type the
    hard-instance pipeline hands in — the views dict itself is memoized
    per ``(graph, n)``: the neighborhood frozensets are the graph's
    ``adjacency()`` view (built from the CSR rows on its first read and
    cached with the graph, never copied), and repeated view builds over
    the same instance return the *same* dict.  Treat the result as
    read-only.  On a mutable builder a fresh dict is built per call
    (the builder's cached adjacency view is invalidated by mutation
    instead).
    """
    if n is None:
        n = graph.num_vertices()
    if isinstance(graph, FrozenGraph):
        per_graph = _FROZEN_VIEW_CACHE.get(graph)
        if per_graph is None:
            per_graph = _FROZEN_VIEW_CACHE[graph] = {}
        views = per_graph.get(n)
        if views is None:
            views = per_graph[n] = {
                v: VertexView(n=n, vertex=v, neighbors=neighbors)
                for v, neighbors in graph.adjacency().items()
            }
        return views
    return {
        v: VertexView(n=n, vertex=v, neighbors=neighbors)
        for v, neighbors in graph.adjacency().items()
    }


def restricted_view(
    graph: GraphLike, vertex: int, visible: set[int], n: int
) -> VertexView:
    """A view of ``vertex`` that only includes neighbors inside ``visible``.

    Used by the public/unique player model of Section 3.1, where the
    unique player u_{i,j} sees only the edges of vertex j *inside copy
    G_i* rather than all of the vertex's edges in G.
    """
    return VertexView(
        n=n, vertex=vertex, neighbors=frozenset(graph.neighbors(vertex) & visible)
    )
