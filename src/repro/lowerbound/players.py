"""The public/unique player model (Section 3.1, "A Slight Change of The
Model").

Instead of one player per vertex of G, the lower-bound model has
N - 2r public players (one per public vertex, seeing *all* of its edges
in G) and k*N unique players u_{i,j} (one per copy i and RS vertex j,
seeing only vertex j's edges *inside copy G_i*).  A unique player whose
vertex is unique sees that vertex's full G-neighborhood; a unique player
holding an extra copy of a public vertex sees only that vertex's slice
of one copy.

The referee may ignore the extra copies and run any ordinary protocol,
which is why lower bounds in this model transfer to the original one —
``vertex_player_views`` reconstructs exactly the ordinary model's views
from the split, and a test asserts the reconstruction matches
``views_of(instance.graph)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..model import VertexView
from .distribution import DMMInstance

#: Identifier of a unique player: (copy index i, RS vertex j).
UniquePlayerId = tuple[int, int]


@dataclass(frozen=True)
class PlayerSplit:
    """All player views of one instance, split per Section 3.1."""

    public: dict[int, VertexView]  # keyed by public vertex *label*
    unique: dict[UniquePlayerId, VertexView]  # keyed by (copy, rs_vertex)


def public_player_views(instance: DMMInstance) -> dict[int, VertexView]:
    """One view per public vertex, with its full neighborhood in G."""
    n = instance.hard.n
    graph = instance.graph
    return {
        label: VertexView(n=n, vertex=label, neighbors=graph.neighbors(label))
        for label in sorted(instance.public_labels)
    }


def unique_player_views(instance: DMMInstance) -> dict[UniquePlayerId, VertexView]:
    """One view per (copy i, RS vertex j): vertex j's edges inside G_i."""
    hard = instance.hard
    n = hard.n
    # Adjacency inside each copy, by RS vertex.
    views: dict[UniquePlayerId, VertexView] = {}
    for i in range(hard.k):
        copy_adjacency: dict[int, set[int]] = {
            v: set() for v in hard.rs.graph.vertices
        }
        for j, matching in enumerate(hard.rs.matchings):
            mask = instance.indicators[i][j]
            for e, (u, v) in enumerate(matching):
                if (mask >> e) & 1:
                    copy_adjacency[u].add(v)
                    copy_adjacency[v].add(u)
        labels = instance.copy_labels(i)
        for rs_vertex, rs_neighbors in copy_adjacency.items():
            views[(i, rs_vertex)] = VertexView(
                n=n,
                vertex=labels[rs_vertex],
                neighbors=frozenset(labels[u] for u in rs_neighbors),
            )
    return views


def player_split(instance: DMMInstance) -> PlayerSplit:
    """Both player groups of the Section 3.1 model, in one object."""
    return PlayerSplit(
        public=public_player_views(instance),
        unique=unique_player_views(instance),
    )


def vertex_player_views(instance: DMMInstance) -> dict[int, VertexView]:
    """The *original* model's views (one player per vertex of G),
    reconstructed from the split: public players as-is, plus the unique
    players of genuinely unique vertices.

    Every vertex label of G appears exactly once.
    """
    views = dict(public_player_views(instance))
    for (i, rs_vertex), view in unique_player_views(instance).items():
        if instance.is_unique_label(view.vertex):
            views[view.vertex] = view
    # Isolated unique slots whose RS vertex lost all edges still get views
    # above (empty neighborhoods), so the union covers every label.
    return views
