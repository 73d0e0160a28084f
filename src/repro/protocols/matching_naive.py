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

from ..graphs import Edge, FrozenGraph, greedy_maximal_matching
from ..model import (
    BatchSketchProtocol,
    Message,
    PublicCoins,
    VertexView,
    adjacency_row_message,
)
from .referee import reported_edges, reported_greedy_mis, row_reports


def _batch_adjacency_rows(graph: FrozenGraph, n: int) -> dict[int, Message]:
    return {v: adjacency_row_message(row, n) for v, row in graph.rows()}


class FullNeighborhoodMatching(BatchSketchProtocol):
    """Referee reconstructs G exactly and outputs a greedy maximal matching."""

    name = "full-neighborhood-matching"

    def sketch(self, view: VertexView, coins: PublicCoins) -> Message:
        return adjacency_row_message(view.sorted_neighbors, view.n)

    def sketch_batch(
        self, graph: FrozenGraph, n: int, coins: PublicCoins
    ) -> dict[int, Message]:
        return _batch_adjacency_rows(graph, n)

    def decode(
        self, n: int, sketches: Mapping[int, Message], coins: PublicCoins
    ) -> set[Edge]:
        edges = reported_edges(row_reports(n, sketches))
        return greedy_maximal_matching(None, edges)


class FullNeighborhoodMIS(BatchSketchProtocol):
    """Referee reconstructs G exactly and outputs a greedy MIS."""

    name = "full-neighborhood-mis"

    def sketch(self, view: VertexView, coins: PublicCoins) -> Message:
        return adjacency_row_message(view.sorted_neighbors, view.n)

    def sketch_batch(
        self, graph: FrozenGraph, n: int, coins: PublicCoins
    ) -> dict[int, Message]:
        return _batch_adjacency_rows(graph, n)

    def decode(
        self, n: int, sketches: Mapping[int, Message], coins: PublicCoins
    ) -> set[int]:
        return reported_greedy_mis(row_reports(n, sketches))
