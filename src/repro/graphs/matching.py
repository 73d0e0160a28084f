"""Matchings: validity, maximality, greedy/maximum algorithms.

The paper's error model (Section 2.1, "Types of error") is explicit that a
protocol may output a set of vertex pairs that is *not* a valid matching of
the input graph — the referee can err by including a non-edge, by matching
a vertex twice, or by outputting a non-maximal matching.  The checkers in
this module therefore separate the three failure modes so the adversary
harness can report each.
"""

from __future__ import annotations

import random
from collections.abc import Iterable

from .frozen import GraphLike
from .graph import Edge, normalize_edge


def is_matching(edges: Iterable[Edge]) -> bool:
    """True iff no vertex is used by two of the given edges (graph-agnostic)."""
    seen: set[int] = set()
    for u, v in edges:
        if u == v or u in seen or v in seen:
            return False
        seen.add(u)
        seen.add(v)
    return True


def is_valid_matching(graph: GraphLike, edges: Iterable[Edge]) -> bool:
    """True iff the edges form a matching and all of them exist in the graph."""
    edge_list = [normalize_edge(u, v) for u, v in edges]
    return is_matching(edge_list) and all(graph.has_edge(u, v) for u, v in edge_list)


def matched_vertices(edges: Iterable[Edge]) -> set[int]:
    """The set of endpoints used by the given edges."""
    out: set[int] = set()
    for u, v in edges:
        out.add(u)
        out.add(v)
    return out


def is_maximal_matching(graph: GraphLike, edges: Iterable[Edge]) -> bool:
    """True iff the edges are a valid matching of the graph with no
    augmenting single edge: every graph edge touches a matched vertex."""
    edge_list = list(edges)
    if not is_valid_matching(graph, edge_list):
        return False
    used = matched_vertices(edge_list)
    return all(u in used or v in used for u, v in graph.edges())


def greedy_maximal_matching(
    graph: GraphLike | None,
    order: Iterable[Edge] | None = None,
) -> set[Edge]:
    """Greedy maximal matching scanning edges in the given order.

    With no order, edges are scanned in canonical sorted order, which makes
    the result deterministic.  An explicit ``order`` is the whole input:
    the graph is not read, and may be ``None``.  Any scan order yields a
    maximal matching (of the graph the order lists), so
    randomized orders (see :func:`random_maximal_matching`) explore the
    space of maximal matchings.
    """
    if order is None:
        order = sorted(graph.edges())
    matched: set[int] = set()
    matching: set[Edge] = set()
    for u, v in order:
        if u not in matched and v not in matched:
            matching.add(normalize_edge(u, v))
            matched.add(u)
            matched.add(v)
    return matching


def random_maximal_matching(graph: GraphLike, rng: random.Random) -> set[Edge]:
    """A maximal matching from a uniformly random edge scan order."""
    order = sorted(graph.edges())
    rng.shuffle(order)
    return greedy_maximal_matching(graph, order)


def maximum_matching(graph: GraphLike) -> set[Edge]:
    """Exact maximum-cardinality matching via augmenting paths (blossom).

    Implements Edmonds' blossom algorithm with explicit blossom
    contraction bookkeeping.  Intended for the small graphs used in exact
    validation experiments (tests, Lemma 4.1 exhaustive checks), not for
    the large generated instances.
    """
    vertices = sorted(graph.vertices)
    index = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in graph.edges():
        adj[index[u]].append(index[v])
        adj[index[v]].append(index[u])

    match = [-1] * n
    parent = [-1] * n
    base = list(range(n))
    in_queue = [False] * n
    in_blossom = [False] * n

    def lowest_common_ancestor(a: int, b: int) -> int:
        used = [False] * n
        while True:
            a = base[a]
            used[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if used[b]:
                return b
            b = parent[match[b]]

    def mark_path(v: int, b: int, child: int, queue: list[int]) -> None:
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            if not in_queue[match[v]]:
                in_queue[match[v]] = True
                queue.append(match[v])
            v = parent[match[v]]

    def find_augmenting_path(root: int) -> int:
        nonlocal parent, base, in_queue, in_blossom
        parent = [-1] * n
        base = list(range(n))
        in_queue = [False] * n
        in_queue[root] = True
        queue = [root]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    # Odd cycle found: contract the blossom.
                    b = lowest_common_ancestor(v, to)
                    in_blossom = [False] * n
                    mark_path(v, b, to, queue)
                    mark_path(to, b, v, queue)
                    for i in range(n):
                        if in_blossom[base[i]]:
                            base[i] = b
                            if not in_queue[i]:
                                in_queue[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if match[to] == -1:
                        return to
                    if not in_queue[match[to]]:
                        in_queue[match[to]] = True
                        queue.append(match[to])
        return -1

    def augment(v: int) -> None:
        while v != -1:
            pv = parent[v]
            ppv = match[pv]
            match[v] = pv
            match[pv] = v
            v = ppv

    for v in range(n):
        if match[v] == -1:
            end = find_augmenting_path(v)
            if end != -1:
                augment(end)

    result: set[Edge] = set()
    for i in range(n):
        if match[i] > i:
            result.add(normalize_edge(vertices[i], vertices[match[i]]))
    return result


def all_maximal_matchings(graph: GraphLike) -> list[set[Edge]]:
    """Enumerate every maximal matching of a (small) graph.

    Used by the exhaustive validators of Claim 3.1 and Lemma 4.1 on micro
    instances.  Exponential; callers must keep graphs tiny.
    """
    edges = sorted(graph.edges())
    results: list[set[Edge]] = []

    def extend(i: int, chosen: set[Edge], used: set[int]) -> None:
        if i == len(edges):
            if is_maximal_matching(graph, chosen):
                results.append(set(chosen))
            return
        u, v = edges[i]
        if u not in used and v not in used:
            chosen.add((u, v))
            used.add(u)
            used.add(v)
            extend(i + 1, chosen, used)
            chosen.remove((u, v))
            used.remove(u)
            used.remove(v)
        extend(i + 1, chosen, used)

    extend(0, set(), set())
    # Deduplicate: different branch paths can produce the same matching only
    # if they chose the same edge set, so membership dedup suffices.
    unique: list[set[Edge]] = []
    seen: set[frozenset[Edge]] = set()
    for m in results:
        key = frozenset(m)
        if key not in seen:
            seen.add(key)
            unique.append(m)
    return unique
