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

from ..graphs.degeneracy import degeneracy as exact_degeneracy
from ..model import Message, PublicCoins
from .densest import EdgeSampledSketch


@dataclass(frozen=True)
class DegeneracyEstimate:
    sampled_degeneracy: int
    estimate: float  # sampled / p
    sampled_edges: int


class DegeneracySketch(EdgeSampledSketch):
    """One-round degeneracy estimator via consistent edge sampling."""

    prefix = "degeneracy-sketch"

    def decode(
        self, n: int, sketches: Mapping[int, Message], coins: PublicCoins
    ) -> DegeneracyEstimate:
        sampled = self.sampled_graph(n, sketches)
        value = exact_degeneracy(sampled)
        return DegeneracyEstimate(
            sampled_degeneracy=value,
            estimate=value / self.probability,
            sampled_edges=sampled.num_edges(),
        )
