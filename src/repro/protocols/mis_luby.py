"""Luby-style MIS protocols: a one-round fragment and the multi-round fix.

One round of Luby is *nearly free* in this model: priorities are public
coins, neighbor IDs are known, so each vertex decides locally whether it
is a local minimum and reports a single bit.  The resulting set is
independent — but not maximal, and no one-round patch exists (that is
Theorem 2!).  The multi-round variant interleaves referee broadcasts and
1-bit domination reports to peel the graph exactly like Luby's
algorithm, reaching a true MIS in O(log n) rounds w.h.p. — a concrete
instance of the paper's observation that *adaptivity* changes the game.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

from ..graphs import FrozenGraph
from ..model import (
    AdaptiveProtocol,
    BatchSketchProtocol,
    BitWriter,
    Message,
    PublicCoins,
    VertexView,
)


def _priority(coins: PublicCoins, vertex: int) -> float:
    """The public-coin priority of a vertex (identical for all parties)."""
    return coins.rng(f"luby/priority/{vertex}").random()


def _one_bit(value: bool) -> Message:
    writer = BitWriter()
    writer.write_bit(1 if value else 0)
    return writer.to_message()


class OneRoundLocalMinMIS(BatchSketchProtocol):
    """Output the local-minimum set of a public random priority order.

    Always an *independent* set; maximal only by luck.  Used in tests and
    experiments as the canonical correct-but-incomplete one-round MIS.
    """

    name = "one-round-local-min-mis"

    def sketch(self, view: VertexView, coins: PublicCoins) -> Message:
        mine = _priority(coins, view.vertex)
        is_local_min = all(mine < _priority(coins, u) for u in view.neighbors)
        return _one_bit(is_local_min)

    def sketch_batch(
        self, graph: FrozenGraph, n: int, coins: PublicCoins
    ) -> dict[int, Message]:
        # One priority draw per vertex instead of one per directed edge.
        priorities = {v: _priority(coins, v) for v in graph.sorted_vertices()}
        return {
            v: _one_bit(all(priorities[v] < priorities[u] for u in row))
            for v, row in graph.rows()
        }

    def decode(
        self, n: int, sketches: Mapping[int, Message], coins: PublicCoins
    ) -> set[int]:
        return {v for v, m in sketches.items() if m.reader().read_bit()}


class LubyAdaptiveMIS(AdaptiveProtocol):
    """Exact Luby peeling with 1-bit messages and referee broadcasts.

    Round structure (repeated):

    1. every *live* vertex reports whether it is the priority minimum
       among its live neighbors (liveness is known from broadcasts);
    2. the referee adds the reported local minima to the MIS and
       broadcasts them;
    3. every vertex reports 1 bit — "a new winner is my neighbor" — and
       the referee updates the dead set and broadcasts it.

    Steps 1+3 alternate as rounds; after ``num_rounds`` rounds the
    referee outputs the accumulated set.  With fresh public priorities
    per phase, O(log n) phases suffice w.h.p.; the output is always an
    independent set, and it is maximal iff peeling finished.
    """

    name = "luby-adaptive-mis"

    def __init__(self, num_phases: int) -> None:
        if num_phases < 1:
            raise ValueError("num_phases must be positive")
        self.num_phases = num_phases

    @property
    def num_rounds(self) -> int:
        return 2 * self.num_phases

    @staticmethod
    def _phase_priority(coins: PublicCoins, vertex: int, phase: int) -> float:
        return coins.rng(f"luby/phase{phase}/{vertex}").random()

    @staticmethod
    def _state(broadcasts: list[Any]) -> tuple[set[int], set[int]]:
        """(mis, dead) implied by broadcasts so far."""
        mis: set[int] = set()
        dead: set[int] = set()
        for payload in broadcasts:
            kind, members = payload
            if kind == "winners":
                mis |= members
                dead |= members
            else:  # "dead" update
                dead |= members
        return mis, dead

    def sketch(
        self,
        view: VertexView,
        coins: PublicCoins,
        round_index: int,
        broadcasts: list[Any],
    ) -> Message:
        phase, step = divmod(round_index, 2)
        mis, dead = self._state(broadcasts)
        writer = BitWriter()
        if step == 0:
            # Am I a live local minimum among live neighbors?
            if view.vertex in dead:
                writer.write_bit(0)
            else:
                mine = self._phase_priority(coins, view.vertex, phase)
                live_neighbors = [u for u in view.neighbors if u not in dead]
                is_min = all(
                    mine < self._phase_priority(coins, u, phase)
                    for u in live_neighbors
                )
                writer.write_bit(1 if is_min else 0)
        else:
            # Did the newest winners set touch my neighborhood?
            kind, winners = broadcasts[-1]
            touched = view.vertex not in dead and bool(view.neighbors & winners)
            writer.write_bit(1 if touched else 0)
        return writer.to_message()

    def referee_round(
        self,
        n: int,
        round_index: int,
        sketches: Mapping[int, Message],
        coins: PublicCoins,
        broadcasts: list[Any],
    ) -> Any:
        phase, step = divmod(round_index, 2)
        reporters = {v for v, m in sketches.items() if m.reader().read_bit()}
        if step == 0:
            return ("winners", frozenset(reporters))
        mis, dead = self._state(broadcasts)
        kind, winners = broadcasts[-1]
        new_dead = frozenset(reporters)
        if round_index == self.num_rounds - 1:
            return mis | winners  # final output: the accumulated MIS
        return ("dead", new_dead)
