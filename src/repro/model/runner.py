"""Execution harness: run a protocol on a graph and account every bit.

The runner is the trusted boundary of the model: it builds each player's
restricted view, invokes the protocol's sketch function per player, hands
only the serialized messages to the referee, and records per-player and
aggregate communication costs.  The paper's cost measure is the
*worst-case message length* (max over players); the average is also
reported because Theorem 1's extension ("the average communication per
player is Ω(sqrt n / e^Θ(sqrt(log n)))") refers to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from .. import obs
from ..engine import ExecutionEngine, derive_seed, resolve_engine
from ..graphs import FrozenGraph, GraphLike
from ..obs import TRANSCRIPT_BITS, TRANSCRIPT_MESSAGES
from .coins import PublicCoins
from .messages import Message, assert_packed_accounting
from .protocol import AdaptiveProtocol, BatchSketchProtocol, SketchProtocol
from .views import views_of

#: The one role of every player when the caller names none (a graph
#: with no hard instance behind it).
ALL_ROLE = "all"


def charge_transcript(
    transcript: "Transcript",
    protocol_name: str,
    round_index: int | None = None,
    roles: Callable[[], Sequence[str]] | None = None,
) -> None:
    """Emit the communication counters of one referee delivery.

    Charged at the runner boundary (not inside ``Transcript``, which
    analysis code also constructs) so telemetry counts exactly the bits
    a protocol execution sent against the referee.  Players are grouped
    by role: ``roles()`` is a table indexed by player, ``roles()[v]``
    naming player v's role, and without it every player is
    :data:`ALL_ROLE`.  A player outside the table (a negative one
    included) raises ``ValueError``.  Each (protocol, role[, round]) key
    gets the role's message count, its bit sum, and a summary entry
    holding the per-player max and a log2-bucket histogram, all read
    from the transcript's per-player ``bits``.  A no-op when telemetry
    is disabled; ``roles`` is only called when a recorder is installed.
    """
    recorder = obs.active()
    if recorder is None:
        return
    counts = transcript.bits
    if roles is None:
        by_role = {ALL_ROLE: list(counts.values())}
    else:
        table = roles()
        if counts and not (0 <= min(counts) and max(counts) < len(table)):
            raise ValueError("roles() must give every player exactly one role")
        by_role = {}
        for player, bits in counts.items():
            by_role.setdefault(table[player], []).append(bits)
    extra = () if round_index is None else (("round", round_index),)
    for role, bits in by_role.items():
        if bits:
            labels = (("protocol", protocol_name), ("role", role), *extra)
            recorder.observe(TRANSCRIPT_BITS, bits, labels)
            recorder.count(TRANSCRIPT_MESSAGES, len(bits), labels)


@dataclass(frozen=True)
class Transcript:
    """All messages of one protocol execution, with cost accounting.

    Each message is sized once, by the packing check: ``bits`` maps each
    player to its message's ``num_bits``, and ``max_bits`` and
    ``total_bits`` are computed from those counts at construction.
    """

    sketches: dict[int, Message]
    bits: dict[int, int] = field(init=False, repr=False, compare=False)
    #: Worst-case message length — the paper's communication cost.
    max_bits: int = field(init=False, repr=False, compare=False)
    total_bits: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # The transcript is where communication is charged: every player's
        # packed payload must account for exactly its num_bits.
        counts = assert_packed_accounting(self.sketches.values())
        object.__setattr__(self, "bits", dict(zip(self.sketches, counts)))
        object.__setattr__(self, "max_bits", max(counts, default=0))
        object.__setattr__(self, "total_bits", sum(counts))

    @property
    def average_bits(self) -> float:
        if not self.sketches:
            return 0.0
        return self.total_bits / len(self.sketches)


@dataclass(frozen=True)
class ProtocolRun:
    """Result of one execution: referee output plus the transcript."""

    output: Any
    transcript: Transcript

    @property
    def max_bits(self) -> int:
        return self.transcript.max_bits

    @property
    def average_bits(self) -> float:
        return self.transcript.average_bits


def run_protocol(
    graph: GraphLike,
    protocol: SketchProtocol,
    coins: PublicCoins,
    n: int | None = None,
    roles: Callable[[], Sequence[str]] | None = None,
) -> ProtocolRun:
    """Execute a one-round protocol.

    Each vertex of the graph is one player with its full neighborhood.
    ``roles`` returns the role table, indexed by player, for the
    transcript telemetry (see :func:`charge_transcript`); it is never
    called when telemetry is off.

    The path is picked from the inputs alone.  A frozen graph with a
    protocol that implements
    :class:`~repro.model.protocol.BatchSketchProtocol` builds all
    players' messages in one batched pass over the CSR buffers.
    Anything else runs one ``sketch(view, coins)`` call per player — the
    model's definition, and the reference the batch path is checked
    against: pass the mutable builder (``graph.to_builder()``) to select
    it, as there is no ``views=`` switch.  Batch and per-view messages
    are bit-identical by contract, so the transcript (and therefore
    every downstream cost or lemma computation) is unchanged.
    """
    if n is None:
        n = graph.num_vertices()
    with obs.span("protocol.sketch", protocol=protocol.name, players=n):
        if isinstance(graph, FrozenGraph) and isinstance(
            protocol, BatchSketchProtocol
        ):
            sketches = protocol.sketch_batch(graph, n, coins)
        else:
            sketches = {
                v: protocol.sketch(view, coins)
                for v, view in views_of(graph, n=n).items()
            }
    with obs.span("protocol.transcript", protocol=protocol.name):
        transcript = Transcript(sketches=sketches)
        charge_transcript(transcript, protocol.name, roles=roles)
    with obs.span("protocol.decode", protocol=protocol.name):
        output = protocol.decode(n, sketches, coins)
    return ProtocolRun(output=output, transcript=transcript)


@dataclass(frozen=True)
class AdaptiveRun:
    """Result of a multi-round execution, with per-round transcripts."""

    output: Any
    transcripts: tuple[Transcript, ...]
    broadcasts: tuple[Any, ...]

    @property
    def max_bits_per_round(self) -> tuple[int, ...]:
        return tuple(t.max_bits for t in self.transcripts)

    @property
    def max_bits(self) -> int:
        """Worst-case *total* bits sent by any single player across rounds."""
        totals: dict[int, int] = {}
        for t in self.transcripts:
            for v, bits in t.bits.items():
                totals[v] = totals.get(v, 0) + bits
        return max(totals.values(), default=0)


def run_adaptive_protocol(
    graph: GraphLike,
    protocol: AdaptiveProtocol,
    coins: PublicCoins,
    n: int | None = None,
    roles: Callable[[], Sequence[str]] | None = None,
) -> AdaptiveRun:
    """Execute an adaptive (multi-round) protocol.

    ``roles`` labels the per-round transcript telemetry as in
    :func:`run_protocol`.
    """
    views = views_of(graph, n=n)
    if n is None:
        n = graph.num_vertices()
    broadcasts: list[Any] = []
    transcripts: list[Transcript] = []
    result: Any = None
    for round_index in range(protocol.num_rounds):
        with obs.span(
            "protocol.round", protocol=protocol.name, round=round_index
        ):
            sketches = {
                v: protocol.sketch(view, coins, round_index, broadcasts)
                for v, view in views.items()
            }
            transcript = Transcript(sketches=sketches)
            charge_transcript(transcript, protocol.name, round_index, roles)
            transcripts.append(transcript)
            result = protocol.referee_round(
                n, round_index, sketches, coins, broadcasts
            )
        if round_index < protocol.num_rounds - 1:
            broadcasts.append(result)
    return AdaptiveRun(
        output=result, transcripts=tuple(transcripts), broadcasts=tuple(broadcasts)
    )


def _batch_items(trials: int, base_seed: int, *args) -> list[tuple]:
    """One ``(trial, seed, *args)`` item per trial, seeds hash-derived."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    return [
        (trial, derive_seed(base_seed, "protocol-batch", trial), *args)
        for trial in range(trials)
    ]


def _batch_trial(item: tuple) -> ProtocolRun:
    """One trial of a protocol batch (module-level for process pools)."""
    trial, seed, make_graph, protocol = item
    return run_protocol(make_graph(trial), protocol, PublicCoins(seed=seed))


def run_protocol_batch(
    make_graph,
    protocol: SketchProtocol,
    trials: int,
    base_seed: int = 0,
    engine: ExecutionEngine | None = None,
) -> list[ProtocolRun]:
    """Execute ``trials`` independent protocol runs through the engine.

    ``make_graph(trial_index)`` produces each (possibly random) input;
    per-trial public coins are hash-derived from ``base_seed`` (see
    ``engine.seeds``), so serial and parallel execution — and any future
    re-batching — return bit-identical runs.  For the process-pool
    backend, ``make_graph`` and ``protocol`` must be picklable; the
    engine degrades to serial execution otherwise.
    """
    items = _batch_items(trials, base_seed, make_graph, protocol)
    return resolve_engine(engine).map(_batch_trial, items)


def _success_trial(item: tuple) -> bool:
    """One success-probability trial (module-level for process pools)."""
    trial, seed, make_graph, protocol, check = item
    graph = make_graph(trial)
    run = run_protocol(graph, protocol, PublicCoins(seed=seed))
    return bool(check(graph, run.output))


def estimate_success_probability(
    make_graph,
    protocol: SketchProtocol,
    check,
    trials: int,
    base_seed: int = 0,
    engine: ExecutionEngine | None = None,
) -> float:
    """Monte-Carlo success probability of a protocol over a graph source.

    ``make_graph(trial_index)`` produces the (possibly random) input and
    ``check(graph, output)`` decides correctness.  Fresh public coins per
    trial, hash-derived from ``base_seed`` through the engine's seed
    scheme (the old ``base_seed * 1_000_003 + trial`` arithmetic collided
    across base seeds) — the coins :func:`run_protocol_batch` uses.  Pass
    ``engine`` to control the backend, default is the process-global
    engine.
    """
    items = _batch_items(trials, base_seed, make_graph, protocol, check)
    outcomes = resolve_engine(engine).map(_success_trial, items)
    return sum(outcomes) / trials
