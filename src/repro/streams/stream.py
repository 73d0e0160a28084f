"""Dynamic graph streams (insertions and deletions of edges).

Section 1.1 of the paper leans on the equivalence between distributed
sketching with *linear* sketches and dynamic graph streams ([1], [14]):
a linear sketch of each vertex's incidence vector can be maintained
under edge insertions and deletions, and summing per-vertex sketches is
how both the streaming and the distributed referee operate.  This module
provides the stream substrate: event types, stream generation (including
the random order and adversarial patterns the streaming lower bounds
use), and replay utilities.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum

from ..graphs import Edge, Graph, GraphLike, normalize_edge


class Op(Enum):
    """Edge update kind: insertion or deletion."""

    INSERT = "+"
    DELETE = "-"


@dataclass(frozen=True)
class StreamEvent:
    """One edge update."""

    op: Op
    edge: Edge

    def __post_init__(self) -> None:
        object.__setattr__(self, "edge", normalize_edge(*self.edge))


def insertion_stream(edges: Iterable[Edge]) -> list[StreamEvent]:
    """An insertion-only stream in the given edge order."""
    return [StreamEvent(Op.INSERT, e) for e in edges]


def random_order_stream(graph: GraphLike, rng: random.Random) -> list[StreamEvent]:
    """Insertion-only stream of the graph's edges in uniform random order."""
    edges = sorted(graph.edges())
    rng.shuffle(edges)
    return insertion_stream(edges)


def churn_stream(
    graph: GraphLike, rng: random.Random, churn_rounds: int = 1
) -> list[StreamEvent]:
    """A dynamic stream whose final graph equals ``graph``.

    Each churn round inserts a batch of decoy edges *not* in the final
    graph and deletes them again, interleaved with the real insertions —
    the pattern that defeats insertion-only algorithms but not linear
    sketches.
    """
    if churn_rounds < 0:
        raise ValueError("churn_rounds must be non-negative")
    vertices = sorted(graph.vertices)
    real = sorted(graph.edges())
    events: list[StreamEvent] = []
    present: set[Edge] = set()
    for _ in range(churn_rounds):
        decoys: list[Edge] = []
        attempts = 0
        while len(decoys) < max(1, len(real) // 2) and attempts < 20 * len(real) + 20:
            attempts += 1
            if len(vertices) < 2:
                break
            u, v = rng.sample(vertices, 2)
            e = normalize_edge(u, v)
            if not graph.has_edge(*e) and e not in present:
                decoys.append(e)
                present.add(e)
        events.extend(StreamEvent(Op.INSERT, e) for e in decoys)
        events.extend(StreamEvent(Op.DELETE, e) for e in decoys)
        for e in decoys:
            present.discard(e)
    inserts = insertion_stream(real)
    # Interleave real insertions uniformly among the churn.
    combined = events + inserts
    rng.shuffle(combined)
    # Deletions must not precede their insertions after the shuffle; fix
    # by a stable legality pass.
    return legalize(combined)


def legalize(events: list[StreamEvent]) -> list[StreamEvent]:
    """Reorder events minimally so every delete follows its insert and
    no edge is inserted twice while present.

    Keeps the first legal occurrence order; used by stream generators
    after shuffling.
    """
    present: set[Edge] = set()
    pending: list[StreamEvent] = list(events)
    out: list[StreamEvent] = []
    progress = True
    while pending and progress:
        progress = False
        rest: list[StreamEvent] = []
        for ev in pending:
            if ev.op is Op.INSERT and ev.edge not in present:
                present.add(ev.edge)
                out.append(ev)
                progress = True
            elif ev.op is Op.DELETE and ev.edge in present:
                present.remove(ev.edge)
                out.append(ev)
                progress = True
            else:
                rest.append(ev)
        pending = rest
    if pending:
        raise ValueError("stream cannot be legalized (unmatched deletes)")
    return out


def final_graph(n: int, events: Iterable[StreamEvent]) -> Graph:
    """Replay a stream and return the resulting graph on vertices 0..n-1."""
    g = Graph(vertices=range(n))
    for ev in events:
        u, v = ev.edge
        if ev.op is Op.INSERT:
            g.add_edge(u, v)
        else:
            g.remove_edge(u, v)
    return g


def validate_stream(events: Iterable[StreamEvent]) -> bool:
    """True iff inserts/deletes alternate legally per edge."""
    present: set[Edge] = set()
    for ev in events:
        if ev.op is Op.INSERT:
            if ev.edge in present:
                return False
            present.add(ev.edge)
        else:
            if ev.edge not in present:
                return False
            present.remove(ev.edge)
    return True


