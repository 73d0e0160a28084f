"""The trivial Θ(n)-bit protocols: send your whole neighborhood.

Section 1 of the paper: "the problem is trivial with sketches of size
Θ(n) by sending the entire neighborhood of each vertex to the referee."
These protocols are the upper-bound anchor of the Theorem 1/2 gap — the
lower bound says Ω(n^(1/2-ε)), the trivial upper bound says O(n), and
closing the gap is the paper's open question.

A neighborhood is encoded as an n-bit adjacency row, so the message is
exactly n bits regardless of degree (a length-prefixed ID list would be
cheaper on sparse graphs but Θ(n log n) in the worst case).
"""

from __future__ import annotations

from collections.abc import Mapping

from ..graphs import Edge, FrozenGraph, greedy_maximal_matching, greedy_mis
from ..model import (
    BatchSketchProtocol,
    Message,
    PublicCoins,
    VertexView,
)
from ..sketches.core import adjacency_row_message


def _encode_adjacency_row(view: VertexView) -> Message:
    return adjacency_row_message(view.sorted_neighbors, view.n)


def _batch_adjacency_rows(graph: FrozenGraph, n: int) -> dict[int, Message]:
    return {
        v: adjacency_row_message(graph.neighbors_sorted(v), n)
        for v in graph.sorted_vertices()
    }


def _decode_graph(n: int, sketches: Mapping[int, Message]) -> FrozenGraph:
    """The reported graph: bit u of v's row (MSB first) is the edge (v, u).

    Each row is read as one n-bit word and scanned by its set bits.
    Each edge is reported by both endpoints; ``from_edges`` dedups.
    """
    edges: list[Edge] = []
    for v, message in sketches.items():
        row = f"{message.reader().read_uint(n):0{n}b}"
        u = row.find("1")
        while u >= 0:
            if u in sketches:
                edges.append((v, u))
            u = row.find("1", u + 1)
    return FrozenGraph.from_edges(sketches, edges)


class FullNeighborhoodMatching(BatchSketchProtocol):
    """Referee reconstructs G exactly and outputs a greedy maximal matching."""

    name = "full-neighborhood-matching"

    def sketch(self, view: VertexView, coins: PublicCoins) -> Message:
        return _encode_adjacency_row(view)

    def sketch_batch(
        self, graph: FrozenGraph, n: int, coins: PublicCoins
    ) -> dict[int, Message]:
        return _batch_adjacency_rows(graph, n)

    def decode(
        self, n: int, sketches: Mapping[int, Message], coins: PublicCoins
    ) -> set[Edge]:
        return greedy_maximal_matching(_decode_graph(n, sketches))


class FullNeighborhoodMIS(BatchSketchProtocol):
    """Referee reconstructs G exactly and outputs a greedy MIS."""

    name = "full-neighborhood-mis"

    def sketch(self, view: VertexView, coins: PublicCoins) -> Message:
        return _encode_adjacency_row(view)

    def sketch_batch(
        self, graph: FrozenGraph, n: int, coins: PublicCoins
    ) -> dict[int, Message]:
        return _batch_adjacency_rows(graph, n)

    def decode(
        self, n: int, sketches: Mapping[int, Message], coins: PublicCoins
    ) -> set[int]:
        return greedy_mis(_decode_graph(n, sketches))
