"""The AGM spanning-forest sketch (Ahn–Guha–McGregor, SODA 2012).

Each vertex sends B = O(log n) independent L0 samplers of its signed
incidence vector, each with O(log n) one-sparse levels of O(log n)-bit
words: O(log^3 n) bits per player, the headline upper bound the paper
contrasts its lower bound against (experiment UB-SF).

The referee runs Borůvka: starting from singleton components, each round
r adds, per component, the edge recovered from the *round-r* samplers
summed over the component's members (linearity makes the internal edges
cancel), then merges.  Fresh samplers per round keep the recoveries
independent of the merging decisions.

Construction runs on the :mod:`~repro.sketches.core` runtime: on a
frozen graph ``sketch_batch`` builds every player's sampler family from
one list of the CSR edges, label by label.  The referee reads each
player's packed word once and sums a component's round-r columns
through :class:`~repro.sketches.core.L0Block`, which unpacks only the
columns it sums: round r's samplers in round r, and only up to the
first repetition that recovers an edge.  The per-view ``sketch``
remains the differential oracle — both paths emit identical bits.
"""

from __future__ import annotations

import math
from abc import abstractmethod
from collections.abc import Mapping
from dataclasses import dataclass

from ..graphs import Edge, FrozenGraph
from ..model import (
    BatchSketchProtocol,
    BitWriter,
    Message,
    PublicCoins,
    VertexView,
)
from .core import L0Block, SketchFamily
from .incidence import coordinate_edge, incidence_entries
from .l0sampler import L0Config, L0Sampler


class _UnionFind:
    def __init__(self, items: list[int]) -> None:
        self.parent = {x: x for x in items}

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[rx] = ry
        return True


@dataclass(frozen=True)
class AGMParameters:
    """Sketch dimensioning for a given n."""

    num_rounds: int  # Borůvka rounds = sampler batches
    repetitions: int  # independent samplers per round (failure boosting)

    @staticmethod
    def for_n(n: int, repetitions: int = 3) -> "AGMParameters":
        rounds = max(1, math.ceil(math.log2(max(n, 2)))) + 1
        return AGMParameters(num_rounds=rounds, repetitions=repetitions)


class IncidenceSamplerSketch(BatchSketchProtocol):
    """Each player sends one L0 sampler of its signed incidence vector
    per label, all dimensioned by :class:`AGMParameters`.

    A subclass declares its ``_labels`` and its ``decode``.  The
    per-view ``sketch`` builds each label's :class:`L0Sampler` chain,
    while ``sketch_batch`` builds the whole :class:`SketchFamily` from
    one list of the CSR edges: two independent implementations of one
    wire format, so the per-view path is the differential oracle.
    """

    def __init__(self, params: AGMParameters | None = None) -> None:
        self._params = params

    @abstractmethod
    def _labels(self, params: AGMParameters) -> list[str]:
        """The sampler labels, in wire order."""

    def _resolve(self, n: int) -> tuple[AGMParameters, L0Config]:
        params = self._params or AGMParameters.for_n(n)
        return params, L0Config.for_universe(n * n)

    def _family(self, n: int, coins: PublicCoins) -> SketchFamily:
        params, config = self._resolve(n)
        return SketchFamily.incidence(
            config, coins, self._labels(params), magnitude=n
        )

    def sketch(self, view: VertexView, coins: PublicCoins) -> Message:
        params, config = self._resolve(view.n)
        entries = incidence_entries(view)
        writer = BitWriter()
        for label in self._labels(params):
            sampler = L0Sampler(config, coins, label)
            for coord, value in entries:
                sampler.update(coord, value)
            sampler.encode(writer, max_value_magnitude=view.n)
        return writer.to_message()

    def sketch_batch(
        self, graph: FrozenGraph, n: int, coins: PublicCoins
    ) -> dict[int, Message]:
        return self._family(n, coins).fresh_messages(graph, n)


class AGMSpanningForest(IncidenceSamplerSketch):
    """One-round public-coin sketching protocol for spanning forests."""

    name = "agm-spanning-forest"

    def _labels(self, params: AGMParameters) -> list[str]:
        return [
            f"agm/round{r}/rep{c}"
            for r in range(params.num_rounds)
            for c in range(params.repetitions)
        ]

    def decode(
        self, n: int, sketches: Mapping[int, Message], coins: PublicCoins
    ) -> set[Edge]:
        params, _config = self._resolve(n)
        family = self._family(n, coins)
        words = family.read_words(sketches)

        vertices = sorted(sketches)
        uf = _UnionFind(vertices)
        forest: set[Edge] = set()
        for round_index in range(params.num_rounds):
            components: dict[int, list[int]] = {}
            for v in vertices:
                components.setdefault(uf.find(v), []).append(v)
            if len(components) <= 1:
                break
            merged_any = False
            for members in components.values():
                edge = self._recover_outgoing(
                    members, round_index, params, family, words, n
                )
                if edge is None:
                    continue
                u, w = edge
                if u in uf.parent and w in uf.parent and uf.union(u, w):
                    forest.add(edge)
                    merged_any = True
            if not merged_any:
                break
        return forest

    def _recover_outgoing(
        self,
        members: list[int],
        round_index: int,
        params: AGMParameters,
        family: SketchFamily,
        words: dict[int, int],
        n: int,
    ) -> Edge | None:
        """Sum the component's round-r sampler columns and recover a
        crossing edge, trying each repetition until one passes the
        one-sparse test."""
        for rep in range(params.repetitions):
            block: L0Block = family.block(
                round_index * params.repetitions + rep
            )
            for v in members:
                block.accumulate(words[v])
            got = block.recover()
            if got is None:
                continue
            coord, _value = got
            try:
                return coordinate_edge(coord, n)
            except ValueError:
                continue  # fingerprint collision produced garbage; next rep
        return None
