"""Budget-bounded matching protocols — the lower bound's sparring partners.

Theorem 1 says *no* o(sqrt n / e^Θ(sqrt log n))-bit protocol computes a
maximal matching on D_MM; these protocols make that concrete.  Each is
parameterized by a per-player bit budget (via an edges-per-vertex knob),
and the adversary harness (experiment T1) sweeps the knob to show the
success probability climbing only once the budget approaches the sketch
sizes the theorem predicts are necessary.

Each protocol is one rule over a player's ascending neighbor row
(:class:`~repro.model.RowSketchProtocol`):

* :class:`SampledEdgesMatching` — uniform incident-edge sampling; the
  honest baseline.  A vertex of degree at most the budget sends its
  whole neighborhood, any other samples that many neighbors.
  :class:`DegreeAdaptiveMatching` and :class:`SampledEdgesMIS` are the
  same rule on their own coin streams.
* :class:`LowDegreeOnlyMatching` and :class:`HybridMatching` — a degree
  threshold picks who speaks in full: only low-degree players, or low
  degree in full and the rest by sampling.
"""

from __future__ import annotations

from collections.abc import Mapping

from ..graphs import Edge
from ..model import Message, PublicCoins, RowSketchProtocol, vertex_set_messages
from .referee import reported_greedy_matching, reported_greedy_mis, vertex_set_reports


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


class _VertexSetMatching(RowSketchProtocol):
    """Each player sends one vertex set; the referee greedily matches
    the reported edges."""

    def decode(
        self, n: int, sketches: Mapping[int, Message], coins: PublicCoins
    ) -> set[Edge]:
        return reported_greedy_matching(vertex_set_reports(n, sketches))


class SampledEdgesMatching(_VertexSetMatching):
    """Send ``edges_per_vertex`` random incident edges; greedy MM on the union.

    Per-player cost: about edges_per_vertex * log2(n) bits.  A row
    within the budget is its own sample.
    """

    #: The coin stream the players sample from, and the name's prefix.
    stream = "sampled-mm"
    prefix = "sampled-edges-matching"

    def __init__(self, edges_per_vertex: int) -> None:
        if edges_per_vertex < 0:
            raise ValueError("edges_per_vertex must be non-negative")
        self.edges_per_vertex = edges_per_vertex
        self.name = f"{self.prefix}({edges_per_vertex})"

    def sketch_rows(self, rows, n: int, coins: PublicCoins) -> dict[int, Message]:
        budget, stream = self.edges_per_vertex, self.stream
        return vertex_set_messages(
            (
                (v, row) if len(row) <= budget
                else (v, _sample_sorted(v, row, coins, budget, stream))
                for v, row in rows
            ),
            n,
        )


class DegreeAdaptiveMatching(SampledEdgesMatching):
    """Full neighborhood when deg <= degree_cap, else sample that many:
    :class:`SampledEdgesMatching` with budget ``degree_cap``, on its own
    coin stream."""

    stream = "adaptive-mm"
    prefix = "degree-adaptive-matching"

    def __init__(self, degree_cap: int) -> None:  # keeps its keyword
        super().__init__(degree_cap)


class SampledEdgesMIS(SampledEdgesMatching):
    """MIS twin of :class:`SampledEdgesMatching`: greedy MIS on the union.

    Note the failure mode difference: a sampled-graph MIS can be *invalid*
    on the true graph (an unsampled edge inside the output), not just
    non-maximal — exactly the error types Section 2.1 insists protocols
    be allowed to make.
    """

    stream = "sampled-mis"
    prefix = "sampled-edges-mis"

    def decode(
        self, n: int, sketches: Mapping[int, Message], coins: PublicCoins
    ) -> set[int]:
        return reported_greedy_mis(vertex_set_reports(n, sketches))


class LowDegreeOnlyMatching(_VertexSetMatching):
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

    def sketch_rows(self, rows, n: int, coins: PublicCoins) -> dict[int, Message]:
        threshold = self.degree_threshold
        return vertex_set_messages(
            ((v, row if len(row) <= threshold else ()) for v, row in rows), n
        )


class HybridMatching(_VertexSetMatching):
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

    def sketch_rows(self, rows, n: int, coins: PublicCoins) -> dict[int, Message]:
        threshold, budget = self.degree_threshold, self.sample_budget
        return vertex_set_messages(
            (
                (v, row) if len(row) <= threshold
                else (v, _sample_sorted(v, row, coins, budget, "hybrid-mm"))
                for v, row in rows
            ),
            n,
        )
