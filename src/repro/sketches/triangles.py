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

from ..graphs.triangles import count_triangles
from ..model import Message, PublicCoins
from .densest import EdgeSampledSketch


@dataclass(frozen=True)
class TriangleEstimate:
    sampled_triangles: int
    estimate: float  # sampled count / p^3
    sampled_edges: int


class TriangleCountSketch(EdgeSampledSketch):
    """One-round triangle count estimator."""

    prefix = "triangle-count-sketch"

    def decode(
        self, n: int, sketches: Mapping[int, Message], coins: PublicCoins
    ) -> TriangleEstimate:
        sampled = self.sampled_graph(n, sketches)
        found = count_triangles(sampled)
        return TriangleEstimate(
            sampled_triangles=found,
            estimate=found / (self.probability**3),
            sampled_edges=sampled.num_edges(),
        )
