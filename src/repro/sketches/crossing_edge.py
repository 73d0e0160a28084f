"""The footnote-1 protocol: find the unique bridge between two clusters.

The paper's introduction motivates sketching with this example: the graph
is two dense clusters joined by a single edge (u, v), and no small sketch
from u or v alone could identify the bridge — yet the *other* players'
sketches can.  Footnote 1 gives the concrete protocol reproduced here:

* every vertex sends O(log n) uniformly sampled incident edges, enough
  for the referee to identify the two clusters w.h.p.;
* every vertex w also sends the number

      s_w = sum_{z in N(w), z > w} (z*n + w) - sum_{z in N(w), z < w} (w*n + z)

  Each edge (a, b) with a < b contributes +(b*n + a) to s_a and
  -(b*n + a) to s_b, so summing s_w over one cluster cancels internal
  edges and leaves ±(b*n + a) for the bridge.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from ..graphs import Edge, FrozenGraph, Graph
from ..graphs.builders import connected_components
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


@dataclass(frozen=True)
class CrossingEdgeResult:
    bridge: Edge | None
    clusters: tuple[frozenset[int], ...]


class CrossingEdgeProtocol(BatchSketchProtocol):
    """Recover the unique cluster-crossing edge with O(log^2 n)-bit sketches."""

    name = "footnote1-crossing-edge"

    def __init__(self, samples_per_vertex: int = 8) -> None:
        if samples_per_vertex < 1:
            raise ValueError("samples_per_vertex must be positive")
        self.samples_per_vertex = samples_per_vertex

    def sketch(self, view: VertexView, coins: PublicCoins) -> Message:
        return self._encode(
            view.vertex, view.sorted_neighbors, view.n, coins, None
        )

    def sketch_batch(
        self, graph: FrozenGraph, n: int, coins: PublicCoins
    ) -> dict[int, Message]:
        # The s-sums in one pass over the ascending edge list: edge
        # (u, v) with u < v contributes +(v*n + u) at u (v is the larger
        # endpoint) and -(v*n + u) at v — exactly the two terms the
        # per-view loop adds at each endpoint.
        s_values = {v: 0 for v in graph.sorted_vertices()}
        for u, v in graph.edges():
            term = v * n + u
            s_values[u] += term
            s_values[v] -= term
        return {
            v: self._encode(v, row, n, coins, s_values[v]) for v, row in graph.rows()
        }

    def _encode(
        self, vertex: int, neighbors, n: int, coins: PublicCoins, s_w: int | None
    ) -> Message:
        """One player's message from its ascending neighbor sequence.

        ``rng.sample`` depends only on the sequence's length and order,
        so the CSR row and the per-view sorted list draw identically.
        """
        rng = coins.rng(f"crossing/samples/{vertex}")
        take = min(self.samples_per_vertex, len(neighbors))
        sampled = rng.sample(neighbors, take) if take else []

        if s_w is None:
            s_w = 0
            for z in neighbors:
                if z > vertex:
                    s_w += z * n + vertex
                else:
                    s_w -= vertex * n + z
        writer = BitWriter()
        width = id_width_for(n)
        encode_vertex_set(writer, sampled, width)
        # s_w is a signed sum of < n terms each < n^2: 3*log2(n)+2 bits.
        s_width = 3 * max(1, (n - 1).bit_length()) + 2
        writer.write_int(s_w, s_width)
        return writer.to_message()

    def decode(
        self, n: int, sketches: Mapping[int, Message], coins: PublicCoins
    ) -> CrossingEdgeResult:
        width = id_width_for(n)
        s_width = 3 * max(1, (n - 1).bit_length()) + 2
        sampled_graph = Graph(vertices=sketches.keys())
        s_values: dict[int, int] = {}
        for v, message in sketches.items():
            reader = message.reader()
            for u in decode_vertex_set(reader, width):
                sampled_graph.add_edge(v, u)
            s_values[v] = reader.read_int(s_width)

        components = connected_components(sampled_graph)
        clusters = tuple(frozenset(c) for c in components)
        if len(components) == 2:
            bridge = self._bridge_from_side(components[0], s_values, n)
            return CrossingEdgeResult(bridge=bridge, clusters=clusters)
        if len(components) == 1:
            # The bridge itself was sampled, reconnecting the clusters.
            # Try every sampled edge whose removal splits the graph in two
            # and accept the one the s-sum confirms.
            for u, v in sorted(sampled_graph.edges()):
                sampled_graph.remove_edge(u, v)
                split = connected_components(sampled_graph)
                if len(split) == 2:
                    bridge = self._bridge_from_side(split[0], s_values, n)
                    if bridge == (min(u, v), max(u, v)):
                        return CrossingEdgeResult(
                            bridge=bridge,
                            clusters=tuple(frozenset(c) for c in split),
                        )
                sampled_graph.add_edge(u, v)
        return CrossingEdgeResult(bridge=None, clusters=clusters)

    @staticmethod
    def _bridge_from_side(
        side: set[int], s_values: dict[int, int], n: int
    ) -> Edge | None:
        """Decode the crossing edge from the s-sum over one cluster."""
        total = sum(s_values[v] for v in side)
        magnitude = abs(total)
        b, a = divmod(magnitude, n)
        if not 0 <= a < b < n:
            return None
        return (a, b)
