"""Budget-bounded matching protocols — the lower bound's sparring partners.

Theorem 1 says *no* o(sqrt n / e^Θ(sqrt log n))-bit protocol computes a
maximal matching on D_MM; these protocols make that concrete.  Each is
parameterized by a per-player bit budget (via an edges-per-vertex knob),
and the adversary harness (experiment T1) sweeps the knob to show the
success probability climbing only once the budget approaches the sketch
sizes the theorem predicts are necessary.

Two sketch policies are provided:

* :class:`SampledEdgesMatching` — uniform incident-edge sampling; the
  honest baseline.
* :class:`DegreeAdaptiveMatching` — low-degree vertices (deg <= cap)
  send their whole neighborhood, others sample.  On D_MM the unique
  vertices have degree ~ |A|/2 while the public vertices are dense, so
  this policy spends the budget where the hard instance hides its
  matching — it is the natural "smart" attack and still fails when the
  budget is small, because the unique-vertex degree itself scales with r.
"""

from __future__ import annotations

from collections.abc import Mapping

from ..graphs import Edge, FrozenGraph, greedy_maximal_matching
from ..model import (
    BatchSketchProtocol,
    Message,
    PublicCoins,
    VertexView,
    vertex_set_message,
    vertex_set_messages,
)
from .referee import reported_edges, reported_greedy_mis, vertex_set_reports


def _sample_sorted(
    vertex: int, sorted_neighbors, coins: PublicCoins, budget: int, label: str
):
    """Deterministic public-coin sample of up to ``budget`` neighbors
    from an ascending neighbor sequence.  ``rng.sample`` depends only on
    the sequence's order and length, so the per-view sorted list and the
    CSR row draw identically.  A zero budget draws no stream, since
    its sample is empty whatever the coins."""
    if len(sorted_neighbors) <= budget:
        return sorted_neighbors
    if not budget:
        return []
    rng = coins.rng(f"{label}/{vertex}")
    return sorted(rng.sample(sorted_neighbors, budget))


def _sample_neighbors(view: VertexView, coins: PublicCoins, budget: int, label: str):
    """Deterministic public-coin sample of up to ``budget`` neighbors."""
    return _sample_sorted(view.vertex, view.sorted_neighbors, coins, budget, label)


def _batch_sampled_messages(
    graph: FrozenGraph, n: int, coins: PublicCoins, budget: int, label: str
) -> dict[int, Message]:
    """Every player's sampled-neighbor message straight off the CSR rows
    (a row within the budget is its own sample)."""
    return vertex_set_messages(
        (
            (v, row) if len(row) <= budget
            else (v, _sample_sorted(v, row, coins, budget, label))
            for v, row in graph.rows()
        ),
        n,
    )


class SampledEdgesMatching(BatchSketchProtocol):
    """Send ``edges_per_vertex`` random incident edges; greedy MM on the union.

    Per-player cost: about edges_per_vertex * log2(n) bits.
    """

    def __init__(self, edges_per_vertex: int) -> None:
        if edges_per_vertex < 0:
            raise ValueError("edges_per_vertex must be non-negative")
        self.edges_per_vertex = edges_per_vertex
        self.name = f"sampled-edges-matching({edges_per_vertex})"

    def sketch(self, view: VertexView, coins: PublicCoins) -> Message:
        sampled = _sample_neighbors(view, coins, self.edges_per_vertex, "sampled-mm")
        return vertex_set_message(sampled, view.n)

    def sketch_batch(
        self, graph: FrozenGraph, n: int, coins: PublicCoins
    ) -> dict[int, Message]:
        return _batch_sampled_messages(
            graph, n, coins, self.edges_per_vertex, "sampled-mm"
        )

    def decode(
        self, n: int, sketches: Mapping[int, Message], coins: PublicCoins
    ) -> set[Edge]:
        edges = reported_edges(vertex_set_reports(n, sketches))
        return greedy_maximal_matching(None, edges)


class DegreeAdaptiveMatching(BatchSketchProtocol):
    """Full neighborhood when deg <= degree_cap, else sample that many."""

    def __init__(self, degree_cap: int) -> None:
        if degree_cap < 0:
            raise ValueError("degree_cap must be non-negative")
        self.degree_cap = degree_cap
        self.name = f"degree-adaptive-matching({degree_cap})"

    def sketch(self, view: VertexView, coins: PublicCoins) -> Message:
        sampled = _sample_neighbors(view, coins, self.degree_cap, "adaptive-mm")
        return vertex_set_message(sampled, view.n)

    def sketch_batch(
        self, graph: FrozenGraph, n: int, coins: PublicCoins
    ) -> dict[int, Message]:
        return _batch_sampled_messages(graph, n, coins, self.degree_cap, "adaptive-mm")

    def decode(
        self, n: int, sketches: Mapping[int, Message], coins: PublicCoins
    ) -> set[Edge]:
        edges = reported_edges(vertex_set_reports(n, sketches))
        return greedy_maximal_matching(None, edges)


class SampledEdgesMIS(BatchSketchProtocol):
    """MIS twin of :class:`SampledEdgesMatching`: greedy MIS on the union.

    Note the failure mode difference: a sampled-graph MIS can be *invalid*
    on the true graph (an unsampled edge inside the output), not just
    non-maximal — exactly the error types Section 2.1 insists protocols
    be allowed to make.
    """

    def __init__(self, edges_per_vertex: int) -> None:
        if edges_per_vertex < 0:
            raise ValueError("edges_per_vertex must be non-negative")
        self.edges_per_vertex = edges_per_vertex
        self.name = f"sampled-edges-mis({edges_per_vertex})"

    def sketch(self, view: VertexView, coins: PublicCoins) -> Message:
        sampled = _sample_neighbors(view, coins, self.edges_per_vertex, "sampled-mis")
        return vertex_set_message(sampled, view.n)

    def sketch_batch(
        self, graph: FrozenGraph, n: int, coins: PublicCoins
    ) -> dict[int, Message]:
        return _batch_sampled_messages(
            graph, n, coins, self.edges_per_vertex, "sampled-mis"
        )

    def decode(
        self, n: int, sketches: Mapping[int, Message], coins: PublicCoins
    ) -> set[int]:
        return reported_greedy_mis(vertex_set_reports(n, sketches))


class LowDegreeOnlyMatching(BatchSketchProtocol):
    """Only low-degree players speak: full neighborhood iff deg <= threshold.

    The sharpest known attack on D_MM-style instances: unique vertices
    have degree ~ |A|/2 (their slice of one copy) while public vertices
    have ~ k|A|/2, so a threshold between the two makes exactly the
    unique vertices reveal themselves — recovering every unique-unique
    edge for ~ (|A|/2)·log n bits from the talkative players and ~0 from
    everyone else.

    Two honest observations the experiments surface:

    * in the paper's regime |A| = Θ(r), so even this attack pays
      Θ(r log n) >= the Theorem 1 bound from the players that matter —
      the lower bound is tight at the r scale against it;
    * its *average* cost can be tiny when public players dominate, which
      is why the average-communication extension of Theorem 1 (remark
      after the theorem, via [50]) needs the trick of handing the hard
      input to every vertex with constant probability rather than this
      distribution as-is.
    """

    def __init__(self, degree_threshold: int) -> None:
        if degree_threshold < 0:
            raise ValueError("degree_threshold must be non-negative")
        self.degree_threshold = degree_threshold
        self.name = f"low-degree-only-matching({degree_threshold})"

    def sketch(self, view: VertexView, coins: PublicCoins) -> Message:
        chosen = view.sorted_neighbors if view.degree <= self.degree_threshold else ()
        return vertex_set_message(chosen, view.n)

    def sketch_batch(
        self, graph: FrozenGraph, n: int, coins: PublicCoins
    ) -> dict[int, Message]:
        threshold = self.degree_threshold
        return vertex_set_messages(
            ((v, row if len(row) <= threshold else ()) for v, row in graph.rows()),
            n,
        )

    def decode(
        self, n: int, sketches: Mapping[int, Message], coins: PublicCoins
    ) -> set[Edge]:
        edges = reported_edges(vertex_set_reports(n, sketches))
        return greedy_maximal_matching(None, edges)


class HybridMatching(BatchSketchProtocol):
    """Full neighborhood below the threshold, sampling above it.

    Dominates both pure policies: low-degree vertices (the unique block
    of D_MM, and most vertices of sparse graphs) are communicated
    exactly, and high-degree vertices still contribute a uniform sample
    toward global maximality instead of falling silent.
    """

    def __init__(self, degree_threshold: int, sample_budget: int) -> None:
        if degree_threshold < 0 or sample_budget < 0:
            raise ValueError("threshold and budget must be non-negative")
        self.degree_threshold = degree_threshold
        self.sample_budget = sample_budget
        self.name = f"hybrid-matching({degree_threshold},{sample_budget})"

    def _chosen(self, vertex: int, row, coins: PublicCoins):
        if len(row) <= self.degree_threshold:
            return row
        return _sample_sorted(vertex, row, coins, self.sample_budget, "hybrid-mm")

    def sketch(self, view: VertexView, coins: PublicCoins) -> Message:
        chosen = self._chosen(view.vertex, view.sorted_neighbors, coins)
        return vertex_set_message(chosen, view.n)

    def sketch_batch(
        self, graph: FrozenGraph, n: int, coins: PublicCoins
    ) -> dict[int, Message]:
        return vertex_set_messages(
            ((v, self._chosen(v, row, coins)) for v, row in graph.rows()), n
        )

    def decode(
        self, n: int, sketches: Mapping[int, Message], coins: PublicCoins
    ) -> set[Edge]:
        edges = reported_edges(vertex_set_reports(n, sketches))
        return greedy_maximal_matching(None, edges)
