"""What a referee rebuilds from the reports: the edges its players named.

The referee knows only what the bits carry (Section 2.1).  Every
decoder in this package that needs the reported graph first reads each
player's message into the ids it reports, then hands the reports to
:func:`reported_edges`, which applies the rules of
``FrozenGraph.from_edges``:

* only players count: an id that is not a player is dropped;
* duplicates collapse: an edge named by both endpoints appears once;
* a player reporting itself raises ``ValueError("self-loop ...")``.

One-round referees need nothing more.  A matching referee calls
:func:`reported_greedy_matching`, which replays the ascending list
through ``greedy_maximal_matching(None, edges)``, the greedy scan of
the graph those edges span, and an MIS referee calls
:func:`reported_greedy_mis`.  Neither freezes a CSR graph that one scan
would read and drop.  The adaptive referees in :mod:`.two_round` still
freeze one from the list, since ``SampleAndPruneMIS`` takes induced
subgraphs of it.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from ..graphs import Edge, greedy_maximal_matching
from ..model import Message, id_width_for, read_vertex_sets


def vertex_set_reports(
    n: int, sketches: Mapping[int, Message]
) -> dict[int, list[int]]:
    """Each player's reported ids, when its message is one vertex set."""
    return read_vertex_sets(sketches, id_width_for(n))


def _row_ids(message: Message, n: int) -> list[int]:
    """The set bits of the message's leading n-bit row, MSB first.

    The row is read as one n-bit word and scanned by its set bits; a
    message shorter than n bits raises ``EOFError``, as a reader would.
    """
    if message.num_bits < n:
        raise EOFError("message exhausted")
    payload = message.payload
    row = f"{int.from_bytes(payload, 'big') >> (len(payload) * 8 - n):0{n}b}"
    ids = []
    u = row.find("1")
    while u >= 0:
        ids.append(u)
        u = row.find("1", u + 1)
    return ids


def row_reports(n: int, sketches: Mapping[int, Message]) -> dict[int, list[int]]:
    """Each player's reported ids, when its message is one n-bit
    adjacency row: bit u of v's row names the edge (v, u)."""
    return {v: _row_ids(message, n) for v, message in sketches.items()}


def reported_edges(reports: Mapping[int, Iterable[int]]) -> list[Edge]:
    """The ascending ``(u, v)``, ``u < v`` list of the reported edges.

    ``reports`` maps each player to the ids it reported; its keys are
    the players.
    """
    edges: set[Edge] = set()
    add = edges.add
    for v, ids in reports.items():
        for u in ids:
            if u in reports:
                if v < u:
                    add((v, u))
                elif u < v:
                    add((u, v))
                else:
                    raise ValueError(
                        f"self-loop ({u}, {v}) not allowed in a simple graph"
                    )
    return sorted(edges)


def reported_greedy_matching(reports: Mapping[int, Iterable[int]]) -> set[Edge]:
    """The greedy maximal matching of the reported graph, scanning
    :func:`reported_edges` in ascending order."""
    return greedy_maximal_matching(None, reported_edges(reports))


def reported_greedy_mis(
    reports: Mapping[int, Iterable[int]], start: Iterable[int] = ()
) -> set[int]:
    """Extend the independent set ``start`` greedily over the reported
    graph, players ascending.

    The graph is a dict of neighbor sets over every player, built from
    :func:`reported_edges`.  With no ``start`` this is ``greedy_mis`` of
    that graph.
    """
    adjacency: dict[int, set[int]] = {v: set() for v in reports}
    for u, v in reported_edges(reports):
        adjacency[u].add(v)
        adjacency[v].add(u)
    chosen = set(start)
    blocked = set(chosen)
    for v in chosen:
        blocked |= adjacency[v]
    for v in sorted(adjacency):
        if v not in blocked:
            chosen.add(v)
            blocked.add(v)
            blocked |= adjacency[v]
    return chosen
