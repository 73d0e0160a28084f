"""Signed edge-incidence vectors (the AGM encoding).

Vertex v's incidence vector a_v lives over n^2 coordinates, one per
ordered pair encoding of an edge: edge {i, j} with i < j occupies
coordinate i*n + j, and

    a_v[i*n + j] = +1  if v == i and {i, j} is an edge,
                   -1  if v == j and {i, j} is an edge,
                    0  otherwise.

The point of the signs: for any vertex set S, sum_{v in S} a_v is
supported exactly on the edges crossing S (internal edges appear once
with +1 and once with -1 and cancel).  This is Lemma-1 of AGM and the
reason linear sketches of a_v suffice for spanning forests.
"""

from __future__ import annotations

from ..graphs import Edge
from ..model import VertexView


def edge_coordinate(u: int, v: int, n: int) -> int:
    """Coordinate of edge {u, v} in the n^2-sized universe."""
    if u == v:
        raise ValueError("self-loops have no coordinate")
    i, j = (u, v) if u < v else (v, u)
    if not (0 <= i and j < n):
        raise ValueError(f"edge ({u}, {v}) outside vertex range [0, {n})")
    return i * n + j


def coordinate_edge(coordinate: int, n: int) -> Edge:
    """Inverse of :func:`edge_coordinate`."""
    i, j = divmod(coordinate, n)
    if not (0 <= i < j < n):
        raise ValueError(f"coordinate {coordinate} is not a canonical edge slot")
    return (i, j)


def incidence_entries(view: VertexView) -> list[tuple[int, int]]:
    """The nonzero (coordinate, value) entries of this player's a_v."""
    entries = []
    v = view.vertex
    for u in view.neighbors:
        coord = edge_coordinate(v, u, view.n)
        value = 1 if v < u else -1
        entries.append((coord, value))
    return entries
