"""A genuinely *linear* one-round matching protocol.

Section 1.1 distinguishes linear sketches (each message is a linear
function of the player's incidence vector — covered by the earlier
streaming lower bounds [14]) from general sketches (this paper's
subject).  :class:`LinearL0Matching` is the canonical linear matching
protocol: every player sends ``samplers_per_vertex`` serialized L0
samplers of its incidence row; the referee recovers one candidate edge
per sampler and greedily matches.

Because the message is a linear function of the input, this protocol is
also a dynamic-stream algorithm (see :mod:`repro.streams.equivalence`).
Its failure on D_MM (experiment T1's sweep accepts any SketchProtocol)
illustrates that the new lower bound subsumes the linear case at these
budgets — while costing O(samplers * log^2 n) bits rather than the
Ω(n) the linear-sketch lower bounds prove for exact maximality.

Unlike the AGM family, the samplers here are keyed *per vertex* (they
are never summed across players), so the batch path builds one small
:class:`~repro.sketches.core.L0FamilyState` per vertex from its CSR row
rather than one shared family over the edge list.
"""

from __future__ import annotations

from collections.abc import Mapping

from ..graphs import Edge, FrozenGraph, greedy_maximal_matching
from ..model import (
    BatchSketchProtocol,
    BitWriter,
    Message,
    PublicCoins,
    VertexView,
)
from ..sketches import L0Block, L0Config, L0FamilyState, L0Sampler, derive_family
from ..sketches.incidence import coordinate_edge, edge_coordinate


class LinearL0Matching(BatchSketchProtocol):
    """Send L0 samplers of the incidence row; match the recoveries."""

    def __init__(self, samplers_per_vertex: int) -> None:
        if samplers_per_vertex < 0:
            raise ValueError("samplers_per_vertex must be non-negative")
        self.samplers_per_vertex = samplers_per_vertex
        self.name = f"linear-l0-matching({samplers_per_vertex})"

    def _labels(self) -> list[str]:
        return [f"linear-mm/{s}" for s in range(self.samplers_per_vertex)]

    def _vertex_family(self, vertex: int, n: int, coins: PublicCoins):
        # Per-vertex streams: key the labels by the vertex so samplers
        # of different vertices are independent (they are never summed
        # across vertices in this protocol).
        config = L0Config.for_universe(n * n)
        return derive_family(
            config,
            coins,
            tuple(f"{label}/{vertex}" for label in self._labels()),
            magnitude=n,
        )

    def sketch(self, view: VertexView, coins: PublicCoins) -> Message:
        config = L0Config.for_universe(view.n * view.n)
        writer = BitWriter()
        for label in self._labels():
            sampler = L0Sampler(config, coins, f"{label}/{view.vertex}")
            for u in view.neighbors:
                sampler.update(edge_coordinate(view.vertex, u, view.n), 1)
            sampler.encode(writer, max_value_magnitude=view.n)
        return writer.to_message()

    def sketch_batch(
        self, graph: FrozenGraph, n: int, coins: PublicCoins
    ) -> dict[int, Message]:
        messages: dict[int, Message] = {}
        for v in graph.sorted_vertices():
            state = L0FamilyState(self._vertex_family(v, n, coins))
            for u in graph.neighbors_sorted(v):
                state.update(edge_coordinate(v, u, n), 1)
            messages[v] = state.to_message()
        return messages

    def decode(
        self, n: int, sketches: Mapping[int, Message], coins: PublicCoins
    ) -> set[Edge]:
        candidates: list[Edge] = []
        for v, message in sketches.items():
            family = self._vertex_family(v, n, coins)
            state = L0FamilyState.decode(message.reader(), family)
            for index in range(family.num_labels):
                block = L0Block(family, index)
                block.accumulate(state)
                got = block.recover()
                if got is None:
                    continue
                try:
                    u, w = coordinate_edge(got[0], n)
                except ValueError:
                    continue
                if u in sketches and w in sketches:
                    candidates.append((u, w))
        return greedy_maximal_matching(FrozenGraph.from_edges(sketches, candidates))
