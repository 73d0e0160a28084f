"""(Δ+1)-coloring with O(log^3 n)-bit sketches (Assadi–Chen–Khanna 2019).

The paper singles this problem out (Result 1's foil): a *symmetry
breaking* problem that nevertheless sketches in polylog bits, unlike
maximal matching / MIS.  The mechanism is palette sparsification:

* Using public coins keyed by its ID, every vertex v samples a list
  L(v) of Θ(log n) colors from {0, ..., Δ}.  ACK19 prove the graph is
  list-colorable from these lists w.h.p.
* Because the lists are public-coin functions of IDs, a player v can
  compute L(u) for each *neighbor* u — this is precisely the "shared
  input" power the paper's Section 1.2 discusses.  v therefore sends
  only the IDs of neighbors u > v with L(u) ∩ L(v) ≠ ∅: the conflict
  edges.  Expected O(log^2 n) neighbors of O(log n) bits: O(log^3 n).
* The referee rebuilds the conflict graph and list-colors it greedily
  (most-constrained-vertex first).

Δ is a promise parameter known to all parties, the standard assumption
for (Δ+1)-coloring in sublinear models.
"""

from __future__ import annotations

from collections.abc import Mapping, Set
from dataclasses import dataclass

from ..graphs import FrozenGraph, Graph, GraphLike
from ..model import (
    BatchSketchProtocol,
    BitWriter,
    Message,
    PublicCoins,
    RowSketchProtocol,
    VertexView,
    id_width_for,
    read_vertex_sets,
    vertex_set_message,
    vertex_set_messages,
)
from .core import write_adjacency_row


@dataclass(frozen=True)
class ColoringResult:
    """A (possibly partial) coloring; ``failed`` lists uncolored vertices."""

    colors: dict[int, int]
    failed: frozenset[int]

    @property
    def complete(self) -> bool:
        return not self.failed


def sample_palette(
    vertex: int, max_degree: int, list_size: int, coins: PublicCoins
) -> frozenset[int]:
    """The public-coin color list L(vertex) ⊆ {0, ..., Δ}.

    Deterministic in (coins, vertex): any party can recompute any
    vertex's list, which is what lets neighbors detect conflicts locally.
    """
    rng = coins.rng(f"palette/{vertex}")
    num_colors = max_degree + 1
    take = min(list_size, num_colors)
    return frozenset(rng.sample(range(num_colors), take))


def _list_color(palettes: Mapping[int, Set[int]], conflict: Graph) -> ColoringResult:
    """The referee's most-constrained-first greedy list coloring
    (DSATUR-flavored) of the conflict graph from the players' lists."""
    colors: dict[int, int] = {}
    failed: set[int] = set()
    remaining = set(palettes)
    available = {v: set(palettes[v]) for v in remaining}
    while remaining:
        v = min(remaining, key=lambda u: (len(available[u]), u))
        remaining.remove(v)
        if available[v]:
            color = min(available[v])
            colors[v] = color
            for u in conflict.neighbors(v):
                if u in remaining:
                    available[u].discard(color)
        else:
            failed.add(v)
    return ColoringResult(colors=colors, failed=frozenset(failed))


class _ListColoring:
    """What both coloring protocols share: the promise Δ and the size of
    each vertex's color list."""

    def __init__(self, max_degree: int, list_size: int | None = None) -> None:
        if max_degree < 0:
            raise ValueError("max_degree must be non-negative")
        self.max_degree = max_degree
        self.list_size = list_size

    def _list_size(self, n: int) -> int:
        if self.list_size is not None:
            return self.list_size
        # Θ(log n) lists; the constant is empirical (ACK19 use c*log n).
        return max(4, 6 * max(1, (max(n, 2) - 1).bit_length()))


class PaletteSparsificationColoring(_ListColoring, BatchSketchProtocol):
    """One-round (Δ+1)-coloring sketch; Δ is a promise parameter."""

    name = "palette-sparsification-coloring"

    def sketch(self, view: VertexView, coins: PublicCoins) -> Message:
        size = self._list_size(view.n)
        own = sample_palette(view.vertex, self.max_degree, size, coins)
        conflicts = [
            u
            for u in view.sorted_neighbors
            if u > view.vertex
            and own & sample_palette(u, self.max_degree, size, coins)
        ]
        return vertex_set_message(conflicts, view.n)

    def sketch_batch(
        self, graph: FrozenGraph, n: int, coins: PublicCoins
    ) -> dict[int, Message]:
        # Palettes are public-coin functions of the vertex ID alone, so
        # one palette per vertex serves all parties — the per-view path
        # re-derives each vertex's list once per incident edge (O(n + 2m)
        # derivations vs O(n) here), and the lists themselves are
        # identical because sample_palette is deterministic in (coins, v).
        size = self._list_size(n)
        palettes = {
            v: sample_palette(v, self.max_degree, size, coins)
            for v in graph.sorted_vertices()
        }
        return vertex_set_messages(
            (
                (v, [u for u in row if u > v and palettes[v] & palettes[u]])
                for v, row in graph.rows()
            ),
            n,
        )

    def decode(
        self, n: int, sketches: Mapping[int, Message], coins: PublicCoins
    ) -> ColoringResult:
        size = self._list_size(n)
        conflict = Graph(vertices=sketches.keys())
        for v, ids in read_vertex_sets(sketches, id_width_for(n)).items():
            for u in ids:
                conflict.add_edge(v, u)

        palettes = {
            v: sample_palette(v, self.max_degree, size, coins) for v in sketches
        }
        return _list_color(palettes, conflict)


def is_proper_coloring(graph: GraphLike, colors: dict[int, int], num_colors: int) -> bool:
    """True iff every vertex is colored in [0, num_colors) and no edge is
    monochromatic — the referee-output validity check for experiment UB-COL."""
    if set(colors) != set(graph.vertices):
        return False
    if any(not 0 <= c < num_colors for c in colors.values()):
        return False
    return all(colors[u] != colors[v] for u, v in graph.edges())


class PrivateCoinColoring(_ListColoring, RowSketchProtocol):
    """(Δ+1)-coloring WITHOUT the public-coin trick — the [18] contrast.

    Related work ([18]) separates private-coin from public-coin
    simultaneous protocols; palette sparsification is a crisp concrete
    case.  With public coins a player recomputes its neighbors' lists
    locally and sends only the conflict edges (O(log^3 n) bits).  With
    *private* palettes nobody can tell which neighbors share a color, so
    the player must ship its palette AND its adjacency row for the
    referee to build the conflict graph: n + O(log^2 n) bits — the
    polylog advantage evaporates.  Experiment UB-COL measures both.
    """

    name = "private-coin-coloring"

    def _private_palette(self, vertex: int, n: int, coins: PublicCoins) -> frozenset[int]:
        # Private randomness: a stream other players do not consult (the
        # harness can derive it, but no other sketch() does — which is
        # exactly what "private" means operationally in this model).
        rng = coins.rng(f"private-palette/{vertex}")
        num_colors = self.max_degree + 1
        take = min(self._list_size(n), num_colors)
        return frozenset(rng.sample(range(num_colors), take))

    def sketch_rows(self, rows, n: int, coins: PublicCoins) -> dict[int, Message]:
        color_width = max(1, self.max_degree.bit_length() + 1)
        messages = {}
        for v, row in rows:
            palette = sorted(self._private_palette(v, n, coins))
            writer = BitWriter()
            writer.write_varint(len(palette))
            for color in palette:
                writer.write_uint(color, color_width)
            # The adjacency row: without shared palettes the referee
            # cannot prune any neighbor, so all of them must be shipped.
            write_adjacency_row(writer, row, n)
            messages[v] = writer.to_message()
        return messages

    def decode(
        self, n: int, sketches: Mapping[int, Message], coins: PublicCoins
    ) -> ColoringResult:
        color_width = max(1, self.max_degree.bit_length() + 1)
        palettes: dict[int, set[int]] = {}
        graph = Graph(vertices=sketches.keys())
        for v, message in sketches.items():
            reader = message.reader()
            count = reader.read_varint()
            palettes[v] = {reader.read_uint(color_width) for _ in range(count)}
            for u in range(n):
                if reader.read_bit() and u in graph:
                    graph.add_edge(v, u)
        return _list_color(palettes, graph)
