"""The edge-partition simultaneous model of [14] (Section 1.2's origin).

The paper's techniques lift the lower bound of Assadi-Khanna-Li-
Yaroslavtsev [14], which lives in a *different* model: the edge set is
partitioned among p players (each edge seen by exactly one player), and
the players simultaneously message a referee.  Section 1.2 explains the
two gaps between that model and distributed sketching:

1. vertex-partitioning lets some players see *all* edges of a vertex
   (breaking the incompressibility argument), and
2. every edge is seen by two players, so players can speak about each
   other's edges.

This module implements the edge-partition model so the gap is
measurable: the same budgeted matching protocol is run in both models
on the same graphs, and the vertex-partition version wins (experiment
EPART) — each edge having two chances to be reported, plus per-vertex
coordination, is real power.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from ..graphs import Edge, Graph, GraphLike, greedy_maximal_matching, normalize_edge
from ..model import (
    BitWriter,
    Message,
    PublicCoins,
    decode_vertex_set,
    encode_vertex_set,
    id_width_for,
)
from ..model.messages import assert_packed_accounting


@dataclass(frozen=True)
class EdgePartitionView:
    """What one edge-partition player sees: its share of the edges."""

    n: int
    player: int
    edges: tuple[Edge, ...]


def partition_edges(
    graph: GraphLike, num_players: int, rng: random.Random, n: int | None = None
) -> list[EdgePartitionView]:
    """Assign each edge to a uniformly random player ([14]'s setup)."""
    if num_players < 1:
        raise ValueError("num_players must be positive")
    if n is None:
        n = graph.num_vertices()
    shares: list[list[Edge]] = [[] for _ in range(num_players)]
    for edge in sorted(graph.edges()):
        shares[rng.randrange(num_players)].append(edge)
    return [
        EdgePartitionView(n=n, player=i, edges=tuple(share))
        for i, share in enumerate(shares)
    ]


class EdgePartitionProtocol:
    """Interface for one-round protocols in the edge-partition model."""

    name: str = "unnamed-edge-partition"

    def sketch(self, view: EdgePartitionView, coins: PublicCoins) -> Message:
        raise NotImplementedError

    def decode(
        self, n: int, sketches: dict[int, Message], coins: PublicCoins
    ) -> Any:
        raise NotImplementedError


class SampledEdgesEdgePartition(EdgePartitionProtocol):
    """The edge-partition twin of SampledEdgesMatching: each player
    reports up to ``budget`` of *its own* edges; greedy MM on the union.

    The budget is per player, matching the per-player budget of the
    vertex-partition protocol it is compared against.
    """

    def __init__(self, budget: int) -> None:
        if budget < 0:
            raise ValueError("budget must be non-negative")
        self.budget = budget
        self.name = f"sampled-edges-edge-partition({budget})"

    def sketch(self, view: EdgePartitionView, coins: PublicCoins) -> Message:
        edges = list(view.edges)
        if len(edges) > self.budget:
            rng = coins.rng(f"epart/{view.player}")
            edges = rng.sample(edges, self.budget)
        writer = BitWriter()
        width = id_width_for(view.n)
        flat: list[int] = []
        for u, v in sorted(edges):
            flat.extend((u, v))
        encode_vertex_set(writer, flat, width)
        return writer.to_message()

    def decode(
        self, n: int, sketches: dict[int, Message], coins: PublicCoins
    ) -> set[Edge]:
        width = id_width_for(n)
        graph = Graph()
        for message in sketches.values():
            flat = decode_vertex_set(message.reader(), width)
            for i in range(0, len(flat) - 1, 2):
                graph.add_edge(flat[i], flat[i + 1])
        return greedy_maximal_matching(graph)


@dataclass(frozen=True)
class EdgePartitionRun:
    output: Any
    max_bits: int
    average_bits: float


def run_edge_partition_protocol(
    graph: GraphLike,
    protocol: EdgePartitionProtocol,
    num_players: int,
    coins: PublicCoins,
    rng: random.Random,
    n: int | None = None,
) -> EdgePartitionRun:
    """Partition the edges, run all players, decode."""
    if n is None:
        n = graph.num_vertices()
    views = partition_edges(graph, num_players, rng, n=n)
    sketches = {v.player: protocol.sketch(v, coins) for v in views}
    assert_packed_accounting(sketches.values())
    output = protocol.decode(n, sketches, coins)
    bits = [m.num_bits for m in sketches.values()]
    return EdgePartitionRun(
        output=output,
        max_bits=max(bits, default=0),
        average_bits=sum(bits) / len(bits) if bits else 0.0,
    )


def reported_edges_expected(
    graph: GraphLike, budget: int, num_players: int
) -> float:
    """Expected distinct edges reported in the edge-partition model —
    at most num_players * budget, vs 2x chances per edge in the
    vertex-partition model.  Used by the EPART experiment's commentary."""
    return float(min(graph.num_edges(), num_players * budget))
