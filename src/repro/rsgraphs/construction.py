"""The bipartite sum-class Ruzsa-Szemerédi construction.

Vertices: a left part X identified with {0, ..., m-1} (labels 0..m-1) and
a right part Y identified with {0, ..., 2m-2} (labels m..3m-2); N = 3m - 1
vertices in total.  Given a 3-AP-free set A inside {0, ..., m-1}, the edge
set is { (x, x + a) : x in X, a in A }, where the right endpoint x + a is
the label m + (x + a).

The edges partition into *sum classes*: edge (x, x + a) belongs to class
s = 2x + a.  Within a class every edge has a distinct value a (since
s = 2x + a pins x given a), and an off-matching edge between the class's
endpoints x_i and y_j = s - x_j + ... exists iff (a_i + a_j) / 2 lies in
A — a nontrivial 3-term AP (a_i, (a_i+a_j)/2, a_j).  A being 3-AP-free
therefore makes every sum class an *induced* matching, and the classes
partition the edge set: an (r, t)-RS graph after uniformization.

This realizes Proposition 2.1 at laptop scale: t grows linearly in N and
r tracks |A| (hence Behrend's density) up to constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from functools import cached_property

from ..arithmetic import best_ap_free_set, is_three_ap_free
from ..graphs import Edge, FrozenGraph, Graph, matched_vertices


@dataclass(frozen=True)
class RSGraph:
    """A graph together with an edge-partition into induced matchings.

    ``matchings[j]`` is the j-th induced matching (canonical edge tuples,
    sorted).  The class is construction-agnostic: both the bipartite
    sum-class and the tripartite RS78 builders return it.

    ``graph`` is the immutable CSR form (:class:`FrozenGraph`); every
    builder in this package freezes before wrapping, so RS graphs are
    hashable, digest-addressed, and safe to share across the engine's
    construction cache.
    """

    graph: FrozenGraph
    matchings: tuple[tuple[Edge, ...], ...]

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices()

    @property
    def num_matchings(self) -> int:
        """t: the number of induced matchings in the partition."""
        return len(self.matchings)

    @cached_property
    def matching_sizes(self) -> tuple[int, ...]:
        return tuple(len(m) for m in self.matchings)

    @property
    def is_uniform(self) -> bool:
        sizes = set(self.matching_sizes)
        return len(sizes) <= 1

    @cached_property
    def r(self) -> int:
        """The common matching size; raises if sizes are non-uniform.

        Cached, as ``matching_sizes`` is (the value is frozen): D_MM
        sampling reads it once per indicator mask.
        """
        sizes = set(self.matching_sizes)
        if len(sizes) > 1:
            raise ValueError("matching sizes are non-uniform; call uniformize first")
        return next(iter(sizes), 0)

    def matching_endpoints(self, j: int) -> set[int]:
        """The 2r endpoints of matching j (the V* of the hard distribution
        when j = j*)."""
        return matched_vertices(self.matchings[j])

    @property
    def cache_token(self) -> str:
        """Content address: the graph digest plus the matching partition
        (two RS graphs can share a graph but differ in partition)."""
        graph = self.graph
        fingerprint = (
            graph.cache_token
            if isinstance(graph, FrozenGraph)
            else (tuple(sorted(graph.vertices)), tuple(sorted(graph.edges())))
        )
        return f"rs-graph:{fingerprint}:{self.matchings!r}"


def sum_class_rs_graph(m: int, ap_free: Sequence[int] | None = None) -> RSGraph:
    """Build the bipartite sum-class RS graph for left-part size m.

    ``ap_free`` defaults to the best available 3-AP-free subset of
    {0, ..., m-1}; a custom set is verified before use.  The default
    (parameter-only) construction is content-addressed in the engine's
    construction cache — the result is shared, treat it as frozen.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if ap_free is None:
        from ..engine import construction_cache

        return construction_cache().get_or_build(
            ("sum-class-rs-graph", m), lambda: _sum_class_rs_graph_uncached(m)
        )
    return _sum_class_rs_graph_uncached(m, ap_free)


def _sum_class_rs_graph_uncached(
    m: int, ap_free: Sequence[int] | None = None
) -> RSGraph:
    if ap_free is None:
        ap_free = best_ap_free_set(m)
    else:
        ap_free = sorted(set(ap_free))
        if ap_free and (ap_free[0] < 0 or ap_free[-1] >= m):
            raise ValueError("ap_free must be a subset of {0, ..., m-1}")
        if not is_three_ap_free(ap_free):
            raise ValueError("ap_free contains a 3-term arithmetic progression")

    num_right = max(2 * m - 1, 1)
    graph = Graph(vertices=range(m + num_right))

    def right_label(y: int) -> int:
        return m + y

    classes: dict[int, list[Edge]] = {}
    for x in range(m):
        for a in ap_free:
            y = x + a
            graph.add_edge(x, right_label(y))
            classes.setdefault(2 * x + a, []).append((x, right_label(y)))

    matchings = tuple(
        tuple(sorted(classes[s])) for s in sorted(classes)
    )
    return RSGraph(graph=graph.freeze(), matchings=matchings)


def uniformize(rs: RSGraph, r: int) -> RSGraph:
    """Restrict to matchings of size >= r, trimmed to exactly r edges.

    The resulting graph is the union of the trimmed matchings over the
    *same vertex set*; being a subgraph, every kept matching stays
    induced, so the result is an honest (r, t')-RS graph.
    """
    if r < 1:
        raise ValueError("target size r must be positive")
    kept = [m[:r] for m in rs.matchings if len(m) >= r]
    if not kept:
        raise ValueError(f"no matching has size >= {r}")
    graph = Graph(vertices=rs.graph.vertices)
    for matching in kept:
        for u, v in matching:
            graph.add_edge(u, v)
    return RSGraph(graph=graph.freeze(), matchings=tuple(kept))


def best_uniform(rs: RSGraph, min_t: int = 1) -> RSGraph:
    """Uniformize at the size r maximizing r * t(r), i.e. the number of
    surviving edges, subject to keeping at least ``min_t`` matchings."""
    sizes = sorted(set(rs.matching_sizes), reverse=True)
    best_r = None
    best_score = -1
    for r in sizes:
        if r == 0:
            continue
        t = sum(1 for s in rs.matching_sizes if s >= r)
        if t < min_t:
            continue
        if r * t > best_score:
            best_score = r * t
            best_r = r
    if best_r is None:
        raise ValueError("no uniformization satisfies the min_t constraint")
    return uniformize(rs, best_r)
