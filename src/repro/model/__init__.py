"""The distributed sketching model: views, coins, messages, runners."""

from .clique import BCCRound, BCCRun, as_one_round_bcc
from .coins import PublicCoins
from .messages import (
    EMPTY_MESSAGE,
    BitReader,
    BitWriter,
    Message,
    assert_packed_accounting,
    decode_vertex_set,
    encode_vertex_set,
    id_width_for,
)
from .protocol import AdaptiveProtocol, BatchSketchProtocol, SketchProtocol
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
    "Message",
    "ProtocolRun",
    "PublicCoins",
    "SketchProtocol",
    "Transcript",
    "VertexView",
    "as_one_round_bcc",
    "assert_packed_accounting",
    "decode_vertex_set",
    "encode_vertex_set",
    "estimate_success_probability",
    "id_width_for",
    "restricted_view",
    "run_adaptive_protocol",
    "run_protocol",
    "run_protocol_batch",
    "views_of",
]
