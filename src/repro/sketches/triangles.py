"""Triangle counting sketches by consistent edge sampling ([2]).

Subsample edges with probability p using the same public-coin
consistent-hash trick as the densest-subgraph sketch; each surviving
triangle appears in the sample with probability p^3, so the referee's
count over the sampled graph, scaled by p^-3, is an unbiased estimator
of the true count.  Variance is controlled by triangle abundance, which
the experiment reports honestly (triangle-poor graphs need larger p —
the reason testing triangle-*freeness* is hard in one round, the very
first lower bound known in this model [17]).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from ..graphs import FrozenGraph
from ..graphs.triangles import count_triangles
from ..model import (
    BatchSketchProtocol,
    Message,
    PublicCoins,
    VertexView,
    vertex_set_message,
)
from .core import sampled_lower_endpoint_graph, sampled_lower_endpoint_messages
from .densest import edge_sampled


@dataclass(frozen=True)
class TriangleEstimate:
    sampled_triangles: int
    estimate: float  # sampled count / p^3
    sampled_edges: int


class TriangleCountSketch(BatchSketchProtocol):
    """One-round triangle count estimator."""

    def __init__(self, probability: float) -> None:
        if not 0.0 < probability <= 1.0:
            raise ValueError("probability must lie in (0, 1]")
        self.probability = probability
        self.name = f"triangle-count-sketch(p={probability})"

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
    ) -> TriangleEstimate:
        sampled = sampled_lower_endpoint_graph(n, sketches)
        found = count_triangles(sampled)
        return TriangleEstimate(
            sampled_triangles=found,
            estimate=found / (self.probability**3),
            sampled_edges=sampled.num_edges(),
        )
