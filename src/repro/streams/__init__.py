"""Dynamic graph streams — the linear-sketch twin of the model (§1.1)."""

from .algorithms import (
    InsertionOnlyGreedyMatching,
    StreamingL0Matching,
    StreamingSpanningForest,
)
from .equivalence import decode_stream_as_referee, stream_to_distributed_sketches
from .stream import (
    Op,
    StreamEvent,
    churn_stream,
    final_graph,
    insertion_stream,
    legalize,
    random_order_stream,
    validate_stream,
)

__all__ = [
    "InsertionOnlyGreedyMatching",
    "Op",
    "StreamEvent",
    "StreamingL0Matching",
    "StreamingSpanningForest",
    "churn_stream",
    "decode_stream_as_referee",
    "final_graph",
    "insertion_stream",
    "legalize",
    "random_order_stream",
    "stream_to_distributed_sketches",
    "validate_stream",
]
