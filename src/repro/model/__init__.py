"""The distributed sketching model: views, coins, messages, runners."""

from .clique import BCCRound, BCCRun, as_one_round_bcc
from .coins import PublicCoins
from .messages import (
    EMPTY_MESSAGE,
    EMPTY_SET_MESSAGE,
    BitReader,
    BitWriter,
    Message,
    adjacency_row_message,
    assert_packed_accounting,
    decode_vertex_set,
    encode_vertex_set,
    id_width_for,
    read_vertex_set,
    read_vertex_sets,
    vertex_set_message,
    vertex_set_messages,
)
from .protocol import (
    AdaptiveProtocol,
    BatchSketchProtocol,
    RowSketchProtocol,
    SketchProtocol,
)
from .runner import (
    AdaptiveRun,
    ProtocolRun,
    Transcript,
    estimate_success_probability,
    run_adaptive_protocol,
    run_protocol,
    run_protocol_batch,
)
from .views import VertexView, restricted_view, views_of

__all__ = [
    "AdaptiveProtocol",
    "AdaptiveRun",
    "BCCRound",
    "BCCRun",
    "BatchSketchProtocol",
    "BitReader",
    "BitWriter",
    "EMPTY_MESSAGE",
    "EMPTY_SET_MESSAGE",
    "Message",
    "ProtocolRun",
    "PublicCoins",
    "RowSketchProtocol",
    "SketchProtocol",
    "Transcript",
    "VertexView",
    "adjacency_row_message",
    "as_one_round_bcc",
    "assert_packed_accounting",
    "decode_vertex_set",
    "encode_vertex_set",
    "estimate_success_probability",
    "id_width_for",
    "read_vertex_set",
    "read_vertex_sets",
    "restricted_view",
    "run_adaptive_protocol",
    "run_protocol",
    "run_protocol_batch",
    "vertex_set_message",
    "vertex_set_messages",
    "views_of",
]
