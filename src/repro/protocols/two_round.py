"""Adaptive O(sqrt n)-per-round protocols (the [46]-style filtering MM).

Section 1.1: "if one allows only one extra round of sketching, then both
problems admit (adaptive) sketches of size O(n^(1/2))" — matching via the
filtering technique of Lattanzi et al. [46].  This module implements the
filtering maximal-matching protocol:

* Round 1: every vertex sends min(deg, c*sqrt(n)) random incident
  edges.  The referee computes a greedy maximal matching M1 of the
  sampled graph and broadcasts the matched vertex set.
* Round r >= 2: every vertex still unmatched sends its edges to
  *unmatched* neighbors (capped at c*sqrt(n)); the referee augments the
  matching greedily and broadcasts again.

The filtering lemma says the residual graph after round 1 is sparse
w.h.p., so two rounds almost always reach maximality; the protocol
supports extra rounds so experiment UB-2R can measure the residual decay
per round.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from typing import Any

from ..graphs import (
    FrozenGraph,
    greedy_maximal_matching,
    greedy_mis,
    matched_vertices,
)
from ..model import (
    AdaptiveProtocol,
    BitWriter,
    Message,
    PublicCoins,
    VertexView,
    vertex_set_message,
)
from .referee import reported_edges, vertex_set_reports


def _reported_graph(reports: Mapping[int, list[int]]) -> FrozenGraph:
    """The reported graph, frozen: ``SampleAndPruneMIS`` takes induced
    subgraphs of it."""
    return FrozenGraph.from_edges(reports, reported_edges(reports))


class FilteringMatching(AdaptiveProtocol):
    """Adaptive maximal matching with ~sqrt(n) edges per player per round."""

    name = "filtering-matching"

    def __init__(self, num_rounds: int = 2, cap_multiplier: float = 1.0) -> None:
        if num_rounds < 1:
            raise ValueError("num_rounds must be positive")
        if cap_multiplier <= 0:
            raise ValueError("cap_multiplier must be positive")
        self._num_rounds = num_rounds
        self.cap_multiplier = cap_multiplier

    @property
    def num_rounds(self) -> int:
        return self._num_rounds

    def _cap(self, n: int) -> int:
        return max(1, math.ceil(self.cap_multiplier * math.isqrt(max(n, 1))))

    def sketch(
        self,
        view: VertexView,
        coins: PublicCoins,
        round_index: int,
        broadcasts: list[Any],
    ) -> Message:
        cap = self._cap(view.n)
        if round_index == 0:
            neighbors = view.sorted_neighbors
            if len(neighbors) > cap:
                rng = coins.rng(f"filtering/round0/{view.vertex}")
                neighbors = sorted(rng.sample(neighbors, cap))
            return vertex_set_message(neighbors, view.n)

        matched: frozenset[int] = broadcasts[-1]
        if view.vertex in matched:
            return vertex_set_message((), view.n)
        residual = [u for u in view.sorted_neighbors if u not in matched]
        if len(residual) > cap:
            rng = coins.rng(f"filtering/round{round_index}/{view.vertex}")
            residual = sorted(rng.sample(residual, cap))
        return vertex_set_message(residual, view.n)

    def referee_round(
        self,
        n: int,
        round_index: int,
        sketches: Mapping[int, Message],
        coins: PublicCoins,
        broadcasts: list[Any],
    ) -> Any:
        reported = _reported_graph(vertex_set_reports(n, sketches))
        if round_index == 0:
            matching = greedy_maximal_matching(reported)
            self._matching = matching
        else:
            # Augment the standing matching with newly revealed edges.
            matching = set(self._matching)
            used = matched_vertices(matching)
            for u, v in reported.edges():  # ascending
                if u not in used and v not in used:
                    matching.add((u, v))
                    used.add(u)
                    used.add(v)
            self._matching = matching

        if round_index == self.num_rounds - 1:
            return set(self._matching)
        return frozenset(matched_vertices(self._matching))


class SampleAndPruneMIS(AdaptiveProtocol):
    """Three-round sample-and-prune MIS in the spirit of [35].

    Round 0: players with degree <= cap (~sqrt n) send their whole
    neighborhood; the referee computes a greedy MIS S1 on the induced
    low-degree subgraph — *exactly* correct there, since every edge
    between two low-degree vertices was reported by both endpoints.

    Round 1: the referee broadcasts S1; every vertex reports one bit —
    "S1 dominates me (or I am in it)".

    Round 2: the referee broadcasts the undominated set U; every
    undominated vertex sends its edges into U, capped at cap.  The
    referee extends S1 greedily over the reported residual edges.

    The filtering intuition of [35]: after pruning by S1, the residual
    graph is small w.h.p., so the cap rarely truncates and the extension
    is usually a true MIS.  Experiment UB-2R measures the success rate
    and the per-round bits (~sqrt(n) log n).
    """

    name = "sample-and-prune-mis"

    def __init__(self, cap_multiplier: float = 1.0) -> None:
        if cap_multiplier <= 0:
            raise ValueError("cap_multiplier must be positive")
        self.cap_multiplier = cap_multiplier

    @property
    def num_rounds(self) -> int:
        return 3

    def _cap(self, n: int) -> int:
        return max(1, math.ceil(self.cap_multiplier * math.isqrt(max(n, 1))))

    def sketch(
        self,
        view: VertexView,
        coins: PublicCoins,
        round_index: int,
        broadcasts: list[Any],
    ) -> Message:
        cap = self._cap(view.n)
        if round_index == 0:
            neighbors = view.sorted_neighbors if view.degree <= cap else ()
            return vertex_set_message(neighbors, view.n)
        if round_index == 1:
            s1: frozenset[int] = broadcasts[-1]
            dominated = view.vertex in s1 or bool(view.neighbors & s1)
            writer = BitWriter()
            writer.write_bit(1 if dominated else 0)
            return writer.to_message()
        undominated: frozenset[int] = broadcasts[-1]
        if view.vertex not in undominated:
            return vertex_set_message((), view.n)
        residual = [u for u in view.sorted_neighbors if u in undominated]
        if len(residual) > cap:
            rng = coins.rng(f"sap-mis/{view.vertex}")
            residual = sorted(rng.sample(residual, cap))
        return vertex_set_message(residual, view.n)

    def referee_round(
        self,
        n: int,
        round_index: int,
        sketches: Mapping[int, Message],
        coins: PublicCoins,
        broadcasts: list[Any],
    ) -> Any:
        if round_index == 0:
            reports = vertex_set_reports(n, sketches)
            low_graph = _reported_graph(reports)
            # Restrict to edges both of whose endpoints reported: those
            # are exactly the low-degree/low-degree edges, fully known.
            reporters = {v for v, neighbors in reports.items() if neighbors}
            induced = low_graph.induced_subgraph(reporters)
            self._s1 = frozenset(greedy_mis(induced))
            return self._s1
        if round_index == 1:
            dominated = {
                v for v, m in sketches.items() if m.reader().read_bit()
            }
            undominated = frozenset(set(sketches) - dominated)
            self._undominated = undominated
            return undominated
        undominated = self._undominated
        residual = _reported_graph(
            vertex_set_reports(
                n, {v: m for v, m in sketches.items() if v in undominated}
            )
        )
        extension = greedy_mis(residual)
        return set(self._s1) | extension
