"""Degeneracy estimation sketches ([31]).

Same consistent-sampling pattern as the densest-subgraph sketch: keep
each edge with public-coin probability p (the lower endpoint reports
it), peel the sampled graph, and rescale.  Uniform sampling scales every
subgraph's min-degree by ~p, so sampled_degeneracy / p estimates the
true degeneracy up to concentration — the one-round shadow of the
[31] streaming result.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from ..graphs import FrozenGraph
from ..graphs.degeneracy import degeneracy as exact_degeneracy
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
class DegeneracyEstimate:
    sampled_degeneracy: int
    estimate: float  # sampled / p
    sampled_edges: int


class DegeneracySketch(BatchSketchProtocol):
    """One-round degeneracy estimator via consistent edge sampling."""

    def __init__(self, probability: float) -> None:
        if not 0.0 < probability <= 1.0:
            raise ValueError("probability must lie in (0, 1]")
        self.probability = probability
        self.name = f"degeneracy-sketch(p={probability})"

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
    ) -> DegeneracyEstimate:
        sampled = sampled_lower_endpoint_graph(n, sketches)
        value = exact_degeneracy(sampled)
        return DegeneracyEstimate(
            sampled_degeneracy=value,
            estimate=value / self.probability,
            sampled_edges=sampled.num_edges(),
        )
