"""Densest-subgraph sketching by consistent edge sampling ([22], [48]).

The intro's list of polylog-sketchable problems includes densest
subgraph.  The mechanism: uniform edge sampling approximately preserves
all subgraph densities (above a log n / eps^2 scale), so the referee can
peel on a sample.  In the sketching model the sampling can be made
*consistent without communication*: whether edge {u, v} is sampled is a
public-coin hash of the edge, so both endpoints agree, and the lower
endpoint alone reports it (no duplication).  Per-player cost:
~ p · deg(v) · log n bits, polylog for p = Θ(log n / density).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from ..graphs import FrozenGraph, normalize_edge
from ..graphs.densest import charikar_peeling
from ..model import (
    BatchSketchProtocol,
    Message,
    PublicCoins,
    VertexView,
    vertex_set_message,
)
from .core import sampled_lower_endpoint_graph, sampled_lower_endpoint_messages


def edge_sampled(coins: PublicCoins, u: int, v: int, probability: float) -> bool:
    """Public-coin inclusion decision for edge {u, v}: both endpoints
    compute the same bit locally."""
    a, b = normalize_edge(u, v)
    return coins.rng(f"densest/edge/{a}/{b}").random() < probability


@dataclass(frozen=True)
class DensestSubgraphResult:
    vertices: frozenset[int]
    sampled_density: float
    estimated_density: float  # sampled density rescaled by 1/p


class DensestSubgraphSketch(BatchSketchProtocol):
    """One-round densest subgraph: consistent sampling + referee peeling."""

    def __init__(self, probability: float) -> None:
        if not 0.0 < probability <= 1.0:
            raise ValueError("probability must lie in (0, 1]")
        self.probability = probability
        self.name = f"densest-subgraph-sketch(p={probability})"

    def sketch(self, view: VertexView, coins: PublicCoins) -> Message:
        reported = [
            u
            for u in view.sorted_neighbors
            if view.vertex < u
            and edge_sampled(coins, view.vertex, u, self.probability)
        ]
        return vertex_set_message(reported, view.n)

    def sketch_batch(
        self, graph: FrozenGraph, n: int, coins: PublicCoins
    ) -> dict[int, Message]:
        return sampled_lower_endpoint_messages(
            graph, n, coins, self.probability, edge_sampled
        )

    def decode(
        self, n: int, sketches: Mapping[int, Message], coins: PublicCoins
    ) -> DensestSubgraphResult:
        sampled = sampled_lower_endpoint_graph(n, sketches)
        best_set, density = charikar_peeling(sampled)
        return DensestSubgraphResult(
            vertices=frozenset(best_set),
            sampled_density=density,
            estimated_density=density / self.probability,
        )
