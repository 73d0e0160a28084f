"""Priority-based one-round attacks.

Two smarter budgeted protocols that exploit the public coins harder than
plain sampling — and still fall to the Theorem 1/2 barrier:

* :class:`PriorityEdgeMatching`: the coins assign every potential edge a
  random priority; both endpoints of a low-priority edge agree on it
  locally (shared input!), so each vertex reports its top-priority
  incident edges and the referee replays greedy-by-priority.  The
  coordination buys a guarantee uniform sampling lacks — the globally
  minimum-priority edge is always reported by both endpoints and always
  matched — at the price of *coverage*: reports concentrate on few
  edges, so on dense graphs uniform sampling finds larger matchings.
  Either way the budget is uncorrelated with j* on D_MM, so the
  direct-sum effect of Lemma 3.5 applies unchanged.

* :class:`PatchedLocalMinMIS`: one Luby round (free, 1 bit) patched with
  a budget of sampled edges so the referee can extend the local-minima
  set greedily.  The extension can break independence (unsampled edges)
  — the error type Section 2.1 explicitly allows.
"""

from __future__ import annotations

from collections.abc import Mapping

from ..graphs import Edge, FrozenGraph, greedy_maximal_matching, normalize_edge
from ..model import (
    BatchSketchProtocol,
    BitWriter,
    Message,
    PublicCoins,
    VertexView,
    decode_vertex_set,
    encode_vertex_set,
    id_width_for,
)
from .mis_luby import _priority


def edge_priority(coins: PublicCoins, edge: Edge) -> float:
    """The shared random priority of a potential edge (lower = better)."""
    u, v = normalize_edge(*edge)
    return coins.rng(f"edge-priority/{u}/{v}").random()


class PriorityEdgeMatching(BatchSketchProtocol):
    """Report the ``budget`` lowest-priority incident edges; referee runs
    greedy matching in global priority order."""

    def __init__(self, budget: int) -> None:
        if budget < 0:
            raise ValueError("budget must be non-negative")
        self.budget = budget
        self.name = f"priority-edge-matching({budget})"

    def sketch(self, view: VertexView, coins: PublicCoins) -> Message:
        # Priorities are distinct floats almost surely, so the sort
        # result does not depend on the iteration order of `neighbors`.
        ranked = sorted(
            view.neighbors,
            key=lambda u: edge_priority(coins, (view.vertex, u)),
        )[: self.budget]
        writer = BitWriter()
        encode_vertex_set(writer, sorted(ranked), id_width_for(view.n))
        return writer.to_message()

    def sketch_batch(
        self, graph: FrozenGraph, n: int, coins: PublicCoins
    ) -> dict[int, Message]:
        # One rng stream per undirected edge, not per (vertex, neighbor)
        # direction — halves the stream setup versus the per-view path.
        priority = {edge: edge_priority(coins, edge) for edge in graph.edges()}
        width = id_width_for(n)
        messages: dict[int, Message] = {}
        for v in graph.sorted_vertices():
            ranked = sorted(
                graph.neighbors_sorted(v),
                key=lambda u: priority[normalize_edge(v, u)],
            )[: self.budget]
            writer = BitWriter()
            encode_vertex_set(writer, sorted(ranked), width)
            messages[v] = writer.to_message()
        return messages

    def decode(
        self, n: int, sketches: Mapping[int, Message], coins: PublicCoins
    ) -> set[Edge]:
        width = id_width_for(n)
        edges: set[Edge] = set()
        for v, message in sketches.items():
            for u in decode_vertex_set(message.reader(), width):
                if u in sketches:
                    edges.add(normalize_edge(v, u))
        order = sorted(edges, key=lambda e: edge_priority(coins, e))
        return greedy_maximal_matching(None, order)


class PatchedLocalMinMIS(BatchSketchProtocol):
    """Local-minima MIS patched with sampled edges for greedy extension."""

    def __init__(self, budget: int) -> None:
        if budget < 0:
            raise ValueError("budget must be non-negative")
        self.budget = budget
        self.name = f"patched-local-min-mis({budget})"

    def _encode(
        self, vertex: int, sorted_neighbors, n: int, coins: PublicCoins, priority
    ) -> Message:
        mine = priority(vertex)
        is_local_min = all(mine < priority(u) for u in sorted_neighbors)
        neighbors = sorted_neighbors
        if len(neighbors) > self.budget:
            rng = coins.rng(f"patched-mis/{vertex}")
            neighbors = sorted(rng.sample(neighbors, self.budget))
        writer = BitWriter()
        writer.write_bit(1 if is_local_min else 0)
        encode_vertex_set(writer, neighbors, id_width_for(n))
        return writer.to_message()

    def sketch(self, view: VertexView, coins: PublicCoins) -> Message:
        return self._encode(
            view.vertex,
            view.sorted_neighbors,
            view.n,
            coins,
            lambda u: _priority(coins, u),
        )

    def sketch_batch(
        self, graph: FrozenGraph, n: int, coins: PublicCoins
    ) -> dict[int, Message]:
        # Derive each vertex priority once instead of once per endpoint.
        priorities = {v: _priority(coins, v) for v in graph.sorted_vertices()}
        return {
            v: self._encode(
                v, graph.neighbors_sorted(v), n, coins, priorities.__getitem__
            )
            for v in graph.sorted_vertices()
        }

    def decode(
        self, n: int, sketches: Mapping[int, Message], coins: PublicCoins
    ) -> set[int]:
        width = id_width_for(n)
        local_minima: set[int] = set()
        edges: list[Edge] = []
        for v, message in sketches.items():
            reader = message.reader()
            if reader.read_bit():
                local_minima.add(v)
            edges.extend(
                (v, u) for u in decode_vertex_set(reader, width) if u in sketches
            )
        sampled = FrozenGraph.from_edges(sketches, edges)
        # Start from the (always independent) local minima, then extend
        # greedily over the sampled graph only.
        chosen = set(local_minima)
        blocked = set(chosen)
        for v in chosen:
            blocked |= sampled.neighbors(v)
        for v in sorted(sketches):
            if v not in blocked:
                chosen.add(v)
                blocked.add(v)
                blocked |= sampled.neighbors(v)
        return chosen
