"""Independent sets: validity, maximality, greedy/Luby/exact algorithms.

Mirrors :mod:`repro.graphs.matching` for the MIS side of the paper.  The
error model again allows a protocol to output a vertex set that is not
independent or not maximal; the checkers separate the two failure modes.
"""

from __future__ import annotations

import random
from collections.abc import Iterable

from .frozen import GraphLike


def is_independent_set(graph: GraphLike, vertices: Iterable[int]) -> bool:
    """True iff the vertices all exist and no graph edge joins two of them."""
    chosen = set(vertices)
    if not all(map(graph.has_vertex, chosen)):
        return False
    return graph.is_independent_set(chosen)


def is_maximal_independent_set(graph: GraphLike, vertices: Iterable[int]) -> bool:
    """True iff the set is independent and dominating (no vertex addable).

    Membership goes through the graph's vertex index and domination
    through its ``is_dominating_set``, so a frozen graph builds none of
    its frozenset views."""
    chosen = set(vertices)
    return is_independent_set(graph, chosen) and graph.is_dominating_set(chosen)


def greedy_mis(graph: GraphLike, order: Iterable[int] | None = None) -> set[int]:
    """Greedy MIS scanning vertices in the given order (sorted by default)."""
    if order is None:
        order = sorted(graph.vertices)
    chosen: set[int] = set()
    blocked: set[int] = set()
    for v in order:
        if v not in blocked:
            chosen.add(v)
            blocked.add(v)
            blocked |= graph.neighbors(v)
    return chosen


def random_mis(graph: GraphLike, rng: random.Random) -> set[int]:
    """A maximal independent set from a uniformly random vertex scan order."""
    order = sorted(graph.vertices)
    rng.shuffle(order)
    return greedy_mis(graph, order)


def luby_mis(graph: GraphLike, rng: random.Random) -> set[int]:
    """Luby's classic randomized MIS (round-synchronous simulation).

    Each round, every live vertex picks a random priority; local minima
    join the MIS and their neighborhoods die.  Terminates in O(log n)
    rounds with high probability; we loop until no live vertices remain.
    """
    live = set(graph.vertices)
    chosen: set[int] = set()
    while live:
        priority = {v: rng.random() for v in live}
        winners = {
            v
            for v in live
            if all(priority[v] < priority[u] for u in graph.neighbors(v) if u in live)
        }
        # Distinct priorities make at least one vertex a local minimum, but
        # guard against the measure-zero tie case for robustness.
        if not winners:
            winners = {min(live, key=lambda v: (priority[v], v))}
        chosen |= winners
        dead = set(winners)
        for v in winners:
            dead |= graph.neighbors(v)
        live -= dead
    return chosen


def maximum_independent_set(graph: GraphLike) -> set[int]:
    """Exact maximum independent set by branch and bound.

    Branches on a highest-degree vertex (in / out), pruning with a simple
    remaining-vertices bound.  For micro instances only.
    """
    best: set[int] = set()

    def solve(candidates: set[int], chosen: set[int]) -> None:
        nonlocal best
        if len(chosen) + len(candidates) <= len(best):
            return
        if not candidates:
            if len(chosen) > len(best):
                best = set(chosen)
            return
        v = max(candidates, key=lambda u: (len(graph.neighbors(u) & candidates), -u))
        # Branch 1: v in the set.
        solve(candidates - {v} - graph.neighbors(v), chosen | {v})
        # Branch 2: v out of the set.
        solve(candidates - {v}, chosen)

    solve(set(graph.vertices), set())
    return best


def all_maximal_independent_sets(graph: GraphLike) -> list[set[int]]:
    """Enumerate every maximal independent set of a (small) graph.

    Simple branching on inclusion/exclusion with a maximality filter.
    Exponential; for the exhaustive Lemma 4.1 checks only.
    """
    vertices = sorted(graph.vertices)
    results: list[set[int]] = []

    def extend(i: int, chosen: set[int], blocked: set[int]) -> None:
        if i == len(vertices):
            if is_maximal_independent_set(graph, chosen):
                results.append(set(chosen))
            return
        v = vertices[i]
        if v not in blocked:
            extend(i + 1, chosen | {v}, blocked | {v} | graph.neighbors(v))
        extend(i + 1, chosen, blocked)

    extend(0, set(), set())
    unique: list[set[int]] = []
    seen: set[frozenset[int]] = set()
    for s in results:
        key = frozenset(s)
        if key not in seen:
            seen.add(key)
            unique.append(s)
    return unique
