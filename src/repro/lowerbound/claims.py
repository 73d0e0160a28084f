"""Executable version of Claim 3.1 (experiment C31).

Claim 3.1: w.p. >= 1 - 2^(-kr/10) over G ~ D_MM, *every* maximal
matching of G has at least k*r/4 unique-unique edges.  The proof has two
halves, both made measurable here:

* a Chernoff half — |∪ M_i| >= k*r/3 w.h.p. (:func:`union_matching_size`);
* a counting half — at most N - 2r matched edges can touch a public
  vertex, and the surviving special edges whose endpoints stay free must
  be in the matching because the induced property leaves them no other
  incident edges.

``min_unique_unique_edges`` searches for the *adversarial* maximal
matching minimizing unique-unique edges: exhaustively on micro
instances, and with a public-first greedy heuristic (provably the right
worst-case direction: it maximizes the public-vertex consumption that
the counting half budgets for) at scale.  A search lists the graph's
edges once and splits them into public-touching and unique-unique; each
heuristic trial then shuffles fresh copies of the two lists, so it draws
exactly the shuffles :func:`public_first_adversarial_matching` draws
from the same rng.
"""

from __future__ import annotations

import random
from collections.abc import Iterable

from ..graphs import (
    Edge,
    all_maximal_matchings,
    greedy_maximal_matching,
    is_maximal_matching,
)
from .distribution import DMMInstance


def union_matching_size(instance: DMMInstance) -> int:
    """|∪_i M_i|: surviving special edges (Chernoff half of the proof)."""
    return len(instance.union_special_matching)


def count_unique_unique(instance: DMMInstance, matching: Iterable[Edge]) -> int:
    """Number of matching edges with both endpoints unique."""
    return len(instance.unique_unique_edges(list(matching)))


def _partition_edges(instance: DMMInstance) -> tuple[list[Edge], list[Edge]]:
    """G's edges, ascending, split into public-touching and unique-unique."""
    public = instance.public_labels
    public_touching: list[Edge] = []
    unique_unique: list[Edge] = []
    for edge in instance.graph.edges():
        if edge[0] in public or edge[1] in public:
            public_touching.append(edge)
        else:
            unique_unique.append(edge)
    return public_touching, unique_unique


def _public_first(
    public_touching: list[Edge],
    unique_unique: list[Edge],
    rng: random.Random | None,
) -> set[Edge]:
    """Greedy over the public-touching edges, then the unique-unique ones,
    each class shuffled (on a fresh copy) when an rng is given."""
    if rng is not None:
        public_touching = public_touching[:]
        unique_unique = unique_unique[:]
        rng.shuffle(public_touching)
        rng.shuffle(unique_unique)
    return greedy_maximal_matching(None, public_touching + unique_unique)


def public_first_adversarial_matching(
    instance: DMMInstance, rng: random.Random | None = None
) -> set[Edge]:
    """A maximal matching built to minimize unique-unique edges.

    Scans public-touching edges first (randomly shuffled within the
    class when an rng is given), so public vertices absorb as many
    matched edges as possible before any unique-unique edge is forced.
    """
    return _public_first(*_partition_edges(instance), rng)


def min_unique_unique_edges(
    instance: DMMInstance,
    exhaustive_limit: int = 14,
    heuristic_trials: int = 8,
    seed: int = 0,
) -> int:
    """The minimum unique-unique edge count over maximal matchings.

    Exact (exhaustive) when the graph has at most ``exhaustive_limit``
    edges; otherwise the best of ``heuristic_trials`` public-first
    adversarial greedy runs (an upper bound on the true minimum, i.e.
    conservative in the direction that could *refute* Claim 3.1, never
    mask a violation it finds).  ``heuristic_trials`` must be at least
    1: with no run there is no matching to bound the minimum by.
    """
    if heuristic_trials < 1:
        raise ValueError(f"heuristic_trials must be >= 1, got {heuristic_trials}")
    graph = instance.graph
    if graph.num_edges() <= exhaustive_limit:
        return min(
            (count_unique_unique(instance, m) for m in all_maximal_matchings(graph)),
            default=0,
        )
    rng = random.Random(seed)
    public_touching, unique_unique = _partition_edges(instance)
    counts = []
    for _ in range(heuristic_trials):
        matching = _public_first(public_touching, unique_unique, rng)
        assert is_maximal_matching(graph, matching)
        counts.append(count_unique_unique(instance, matching))
    return min(counts)


def claim31_holds(instance: DMMInstance, **kwargs) -> bool:
    """Does every (found) maximal matching meet the k*r/4 threshold?"""
    return (
        min_unique_unique_edges(instance, **kwargs)
        >= instance.hard.claim31_threshold
    )

