"""Protocol interfaces for the distributed sketching model.

A one-round protocol (Section 2.1) has two halves:

* ``sketch(view, coins)`` — run by every player simultaneously, sees only
  the player's :class:`~repro.model.views.VertexView` and the public
  coins, returns a bit-exact :class:`~repro.model.messages.Message`;
* ``decode(n, sketches, coins)`` — run by the referee on the received
  messages (plus public coins), returns the protocol's output object.

:class:`BatchSketchProtocol` adds a whole-graph ``sketch_batch``, and
:class:`RowSketchProtocol` writes the player half once, over
``(player, ascending neighbors)`` rows, for both paths.

The paper also references *adaptive* sketches (Section 1.1: one extra
round gives O(sqrt n) maximal matching / MIS).  :class:`AdaptiveProtocol`
models R rounds where the referee broadcasts feedback between rounds; a
one-round adaptive protocol degenerates to :class:`SketchProtocol`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable, Mapping, Sequence
from typing import TYPE_CHECKING, Any

from .coins import PublicCoins
from .messages import Message
from .views import VertexView

if TYPE_CHECKING:  # only for annotations; keeps the import graph flat
    from ..graphs import FrozenGraph


class SketchProtocol(ABC):
    """A simultaneous one-round public-coin sketching protocol."""

    #: Human-readable protocol name (used in experiment tables).
    name: str = "unnamed"

    @abstractmethod
    def sketch(self, view: VertexView, coins: PublicCoins) -> Message:
        """Compute the message this player sends to the referee."""

    @abstractmethod
    def decode(
        self, n: int, sketches: Mapping[int, Message], coins: PublicCoins
    ) -> Any:
        """Referee: recover the output from the received sketches."""


class BatchSketchProtocol(SketchProtocol):
    """A sketching protocol with a whole-graph batched sketch constructor.

    ``sketch_batch`` produces every player's message in one pass over a
    :class:`~repro.graphs.frozen.FrozenGraph`'s CSR buffers instead of n
    independent :meth:`~SketchProtocol.sketch` calls — sharing derived
    public-coin parameters and per-edge work between the two endpoints
    that see each edge.  The contract is *bit identity*: for every graph
    and coins,

        ``sketch_batch(graph, n, coins)[v] == sketch(views_of(graph, n)[v], coins)``

    for all players v.  The runner takes the per-view path for mutable
    builders or caller-supplied views.  The oracle registry's
    ``sketches`` pair and tests/test_sketch_core.py fuzz the equality,
    and the golden vectors pin it on fixed instances.  Where the two
    paths are written separately (the batch path draws a shared palette,
    priority or sampler family once, or builds another sampler
    structure), the per-view ``sketch`` is the differential oracle.  A
    protocol whose message is a function of the player's own row alone
    writes it once, as a :class:`RowSketchProtocol`.
    """

    @abstractmethod
    def sketch_batch(
        self, graph: "FrozenGraph", n: int, coins: PublicCoins
    ) -> dict[int, Message]:
        """Every player's message, keyed by vertex, built in one pass."""


class RowSketchProtocol(BatchSketchProtocol):
    """A batch protocol whose rule is written once, over neighbor rows.

    ``sketch_rows(rows, n, coins)`` maps ``(player, ascending
    neighbors)`` rows to each player's message.  The batch path feeds it
    every CSR row (``graph.rows()``), and the per-view ``sketch`` is its
    one-row case, as ``vertex_set_message`` is the one-row case of
    ``vertex_set_messages``.  The batch-vs-per-view comparison then
    checks views against CSR rows, and that the rule reads nothing
    beyond each player's own row (the model's locality).
    """

    @abstractmethod
    def sketch_rows(
        self, rows: Iterable[tuple[int, Sequence[int]]], n: int, coins: PublicCoins
    ) -> dict[int, Message]:
        """The message of each row's player, keyed by vertex."""

    def sketch_batch(
        self, graph: "FrozenGraph", n: int, coins: PublicCoins
    ) -> dict[int, Message]:
        return self.sketch_rows(graph.rows(), n, coins)

    def sketch(self, view: VertexView, coins: PublicCoins) -> Message:
        rows = ((view.vertex, view.sorted_neighbors),)
        return self.sketch_rows(rows, view.n, coins)[view.vertex]


class AdaptiveProtocol(ABC):
    """A multi-round sketching protocol with referee broadcasts.

    Round ``i`` (0-based): each player computes a message from its view,
    the coins, and the list of referee broadcasts so far; the referee then
    digests all round-``i`` messages into the next broadcast.  After the
    last round the referee outputs.

    One round of feedback is what turns the Ω(sqrt n) barrier around for
    MM/MIS in the paper's discussion — experiment UB-2R measures this.
    """

    name: str = "unnamed-adaptive"

    @property
    @abstractmethod
    def num_rounds(self) -> int:
        """Total number of player->referee rounds (>= 1)."""

    @abstractmethod
    def sketch(
        self,
        view: VertexView,
        coins: PublicCoins,
        round_index: int,
        broadcasts: list[Any],
    ) -> Message:
        """The player's round-``round_index`` message."""

    @abstractmethod
    def referee_round(
        self,
        n: int,
        round_index: int,
        sketches: Mapping[int, Message],
        coins: PublicCoins,
        broadcasts: list[Any],
    ) -> Any:
        """Digest a round: return the broadcast for the next round, or the
        final output after the last round."""
