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

from ..graphs import Graph, normalize_edge
from ..graphs.densest import charikar_peeling
from ..model import (
    Message,
    PublicCoins,
    RowSketchProtocol,
    id_width_for,
    read_vertex_sets,
    vertex_set_messages,
)


def edge_sampled(coins: PublicCoins, u: int, v: int, probability: float) -> bool:
    """Public-coin inclusion decision for edge {u, v}: both endpoints
    compute the same bit locally."""
    a, b = normalize_edge(u, v)
    return coins.rng(f"densest/edge/{a}/{b}").random() < probability


class EdgeSampledSketch(RowSketchProtocol):
    """Consistent edge sampling, the payload of the densest-subgraph,
    degeneracy and triangle sketches.

    Each edge is kept with probability ``probability`` by
    :func:`edge_sampled` and reported by its lower endpoint, so the
    predicate is evaluated once per edge and ascending rows give
    ascending reports.  A subclass sets the name's ``prefix`` and
    decodes :meth:`sampled_graph`.
    """

    prefix: str

    def __init__(self, probability: float) -> None:
        if not 0.0 < probability <= 1.0:
            raise ValueError("probability must lie in (0, 1]")
        self.probability = probability
        self.name = f"{self.prefix}(p={probability})"

    def sketch_rows(self, rows, n: int, coins: PublicCoins) -> dict[int, Message]:
        p = self.probability
        return vertex_set_messages(
            (
                (v, [u for u in row if v < u and edge_sampled(coins, v, u, p)])
                for v, row in rows
            ),
            n,
        )

    @staticmethod
    def sampled_graph(n: int, sketches: Mapping[int, Message]) -> Graph:
        """The referee's sampled graph: the players, and every reported
        edge whose other end is a player."""
        sampled = Graph(vertices=sketches.keys())
        for v, ids in read_vertex_sets(sketches, id_width_for(n)).items():
            for u in ids:
                if u in sampled:
                    sampled.add_edge(v, u)
        return sampled


@dataclass(frozen=True)
class DensestSubgraphResult:
    vertices: frozenset[int]
    sampled_density: float
    estimated_density: float  # sampled density rescaled by 1/p


class DensestSubgraphSketch(EdgeSampledSketch):
    """One-round densest subgraph: consistent sampling + referee peeling."""

    prefix = "densest-subgraph-sketch"

    def decode(
        self, n: int, sketches: Mapping[int, Message], coins: PublicCoins
    ) -> DensestSubgraphResult:
        best_set, density = charikar_peeling(self.sampled_graph(n, sketches))
        return DensestSubgraphResult(
            vertices=frozenset(best_set),
            sampled_density=density,
            estimated_density=density / self.probability,
        )
