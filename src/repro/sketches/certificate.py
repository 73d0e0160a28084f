"""k-edge-connectivity certificates by AGM forest peeling ([1], §1).

Edge connectivity is on the paper's list of polylog-sketchable problems.
The AGM construction: each vertex sends k *independent batches* of
spanning-forest sketches.  The referee peels forests one at a time —
decode forest F_1 from batch 1, then *subtract* F_1's edges from the
remaining batches (possible because the sketches are linear functions of
the incidence vectors), decode F_2 from batch 2 on the residual graph,
and so on.  The union F_1 ∪ ... ∪ F_k is a sparse certificate: it
preserves every cut of size <= k, so

* the graph is k-edge-connected iff the certificate is, and
* min-cut values below k are computed exactly on <= k(n-1) edges.

Cost: k × the spanning-forest sketch = O(k log^3 n) bits per player.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

from ..graphs import Edge, Graph, GraphLike
from ..graphs.builders import connected_components
from ..model import Message, PublicCoins
from .agm import AGMParameters, IncidenceSamplerSketch, _UnionFind
from .core import SketchFamily
from .incidence import coordinate_edge, edge_coordinate


class ConnectivityCertificate(IncidenceSamplerSketch):
    """Sketching protocol producing a k-edge-connectivity certificate."""

    def __init__(self, k: int, params: AGMParameters | None = None) -> None:
        if k < 1:
            raise ValueError("k must be positive")
        super().__init__(params)
        self.k = k
        self.name = f"connectivity-certificate(k={k})"

    def _labels(self, params: AGMParameters) -> list[str]:
        return [
            f"cert/batch{b}/round{r}/rep{c}"
            for b in range(self.k)
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
        certificate: set[Edge] = set()
        for batch in range(self.k):
            forest = self._peel_forest(
                vertices, batch, params, family, words, certificate, n
            )
            certificate |= forest
        return certificate

    def _peel_forest(
        self,
        vertices: list[int],
        batch: int,
        params: AGMParameters,
        family: SketchFamily,
        words: dict[int, int],
        removed: set[Edge],
        n: int,
    ) -> set[Edge]:
        """Decode one spanning forest of G minus the already-peeled edges.

        Linearity: instead of mutating the transmitted sketches, the
        peeled edges are subtracted on the fly when combining a
        component's samplers (subtracting an edge = applying its two
        incidence updates with opposite signs).
        """
        uf = _UnionFind(vertices)
        forest: set[Edge] = set()
        for round_index in range(params.num_rounds):
            components: dict[int, list[int]] = {}
            for v in vertices:
                components.setdefault(uf.find(v), []).append(v)
            if len(components) <= 1:
                break
            merged = False
            for members in components.values():
                edge = self._recover(
                    members, batch, round_index, params, family, words,
                    removed, n,
                )
                if edge is None:
                    continue
                a, b = edge
                if uf.union(a, b):
                    forest.add(edge)
                    merged = True
            if not merged:
                break
        return forest

    def _recover(
        self,
        members: list[int],
        batch: int,
        round_index: int,
        params: AGMParameters,
        family: SketchFamily,
        words: dict[int, int],
        removed: set[Edge],
        n: int,
    ) -> Edge | None:
        member_set = set(members)
        per_batch = params.num_rounds * params.repetitions
        for rep in range(params.repetitions):
            block = family.block(
                batch * per_batch + round_index * params.repetitions + rep
            )
            for v in members:
                block.accumulate(words[v])
            # Subtract already-peeled edges crossing this component.  The
            # block is a scratch accumulation, so — unlike the historical
            # sampler-mutating path — no undo dance is needed.
            for u, w in removed:
                u_in, w_in = u in member_set, w in member_set
                if u_in == w_in:
                    continue  # internal edges cancelled already; external absent
                coord = edge_coordinate(u, w, n)
                # The crossing edge contributed +1 if the lower endpoint
                # is inside, else -1.
                inside = u if u_in else w
                sign = 1 if inside == min(u, w) else -1
                block.update(coord, -sign)
            got = block.recover()
            if got is None:
                continue
            coord, _ = got
            try:
                edge = coordinate_edge(coord, n)
            except ValueError:
                continue
            if edge in removed:
                continue
            return edge
        return None


def certificate_min_cut(certificate: set[Edge], vertices: set[int], k: int) -> int:
    """Min cut of the certificate graph, capped at k (exhaustive on the
    sparse certificate via edge-removal connectivity checks).

    For cut values < k the certificate preserves them exactly, so this
    equals the original graph's edge connectivity whenever the result is
    < k; a result of k means "at least k".
    """
    graph = Graph(vertices=vertices, edges=certificate)
    if len(connected_components(graph)) > 1:
        return 0
    return _exact_min_cut_capped(graph, k)


def _exact_min_cut_capped(graph: GraphLike, cap: int) -> int:
    """Exact global min cut via Stoer-Wagner, capped at ``cap``."""
    vertices = list(graph.vertices)
    if len(vertices) < 2:
        return cap
    # Weighted adjacency for contractions.
    weight: dict[tuple[int, int], float] = {}
    for u, v in graph.edges():
        weight[(u, v)] = weight.get((u, v), 0) + 1
        weight[(v, u)] = weight.get((v, u), 0) + 1
    active = set(vertices)
    merged: dict[int, set[int]] = {v: {v} for v in vertices}
    best = math.inf
    while len(active) > 1:
        # Maximum adjacency order.
        order: list[int] = []
        weights_to_set: dict[int, float] = {v: 0.0 for v in active}
        remaining = set(active)
        while remaining:
            v = max(remaining, key=lambda u: (weights_to_set[u], -u))
            order.append(v)
            remaining.remove(v)
            for u in remaining:
                weights_to_set[u] = weights_to_set.get(u, 0.0) + weight.get((v, u), 0.0)
        s, t = order[-2], order[-1]
        best = min(best, weights_to_set[t])
        # Contract t into s.
        for u in active:
            if u in (s, t):
                continue
            w = weight.pop((t, u), 0.0)
            weight.pop((u, t), None)
            if w:
                weight[(s, u)] = weight.get((s, u), 0.0) + w
                weight[(u, s)] = weight.get((u, s), 0.0) + w
        weight.pop((s, t), None)
        weight.pop((t, s), None)
        merged[s] |= merged[t]
        active.remove(t)
    return int(min(best, cap))
