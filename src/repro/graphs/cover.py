"""Vertex covers: greedy 2-approximation and König's theorem.

Used as independent cross-checks of the matching machinery: König's
theorem (min vertex cover = max matching in bipartite graphs) validates
Hopcroft-Karp from a different angle, and the classic matching-based
2-approximation ties maximal matchings to covers — the duality that
makes maximal matching "fundamental" in the paper's framing.  The cover
predicate itself, :func:`is_vertex_cover`, lives in
:mod:`repro.graphs.matching`: a matching is maximal exactly when its
matched vertices cover every edge.
"""

from __future__ import annotations

from .bipartite import bipartition, hopcroft_karp
from .frozen import GraphLike
from .matching import greedy_maximal_matching, matched_vertices


def matching_cover(graph: GraphLike) -> set[int]:
    """The classic 2-approximate vertex cover: both endpoints of any
    maximal matching."""
    return matched_vertices(greedy_maximal_matching(graph))


def konig_cover(graph: GraphLike) -> set[int]:
    """A minimum vertex cover of a bipartite graph via König's theorem.

    Runs Hopcroft-Karp, then alternating reachability from the
    unmatched left vertices: the cover is (L \\ Z) ∪ (R ∩ Z) where Z is
    the alternating-reachable set.  |cover| equals the maximum matching
    size — asserted by the test suite, as a cross-validation of both
    algorithms.
    """
    parts = bipartition(graph)
    if parts is None:
        raise ValueError("König's theorem requires a bipartite graph")
    left, right = parts
    matching = hopcroft_karp(graph, left=left)
    match_of: dict[int, int] = {}
    for u, v in matching:
        match_of[u] = v
        match_of[v] = u

    # Alternating BFS from unmatched left vertices: left->right via
    # non-matching edges, right->left via matching edges.
    frontier = [v for v in left if v not in match_of]
    reachable: set[int] = set(frontier)
    while frontier:
        next_frontier: list[int] = []
        for v in frontier:
            if v in left:
                for u in graph.neighbors(v):
                    if match_of.get(v) != u and u not in reachable:
                        reachable.add(u)
                        next_frontier.append(u)
            else:
                mate = match_of.get(v)
                if mate is not None and mate not in reachable:
                    reachable.add(mate)
                    next_frontier.append(mate)
        frontier = next_frontier

    return (left - reachable) | (right & reachable)

