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

from ..graphs import Edge
from ..model import Message, PublicCoins, RowSketchProtocol, adjacency_row_message
from .referee import reported_greedy_matching, reported_greedy_mis, row_reports


class FullNeighborhoodMatching(RowSketchProtocol):
    """Referee reconstructs G exactly and outputs a greedy maximal matching."""

    name = "full-neighborhood-matching"

    def sketch_rows(self, rows, n: int, coins: PublicCoins) -> dict[int, Message]:
        return {v: adjacency_row_message(row, n) for v, row in rows}

    def decode(
        self, n: int, sketches: Mapping[int, Message], coins: PublicCoins
    ) -> set[Edge]:
        return reported_greedy_matching(row_reports(n, sketches))


class FullNeighborhoodMIS(FullNeighborhoodMatching):
    """Referee reconstructs G exactly and outputs a greedy MIS."""

    name = "full-neighborhood-mis"

    def decode(
        self, n: int, sketches: Mapping[int, Message], coins: PublicCoins
    ) -> set[int]:
        return reported_greedy_mis(row_reports(n, sketches))
