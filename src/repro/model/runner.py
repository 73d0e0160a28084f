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

from dataclasses import dataclass
from typing import Any

from .. import obs
from ..engine import ExecutionEngine, TrialPlan, resolve_engine
from ..graphs import FrozenGraph, GraphLike
from ..obs import TRANSCRIPT_BITS, TRANSCRIPT_MESSAGES
from .coins import PublicCoins
from .messages import Message, assert_packed_accounting
from .protocol import AdaptiveProtocol, BatchSketchProtocol, SketchProtocol
from .views import VertexView, views_of

def charge_transcript(
    transcript: "Transcript", protocol_name: str, round_index: int | None = None
) -> None:
    """Emit the communication counters of one referee delivery.

    Charged at the runner boundary (not inside ``Transcript``, which
    analysis code also constructs) so telemetry counts exactly the bits
    a protocol execution sent against the referee: per player, per
    protocol, and per round for adaptive runs.  A no-op when telemetry
    is disabled.
    """
    recorder = obs.active()
    if recorder is None:
        return
    extra = () if round_index is None else (("round", round_index),)
    for player, message in transcript.sketches.items():
        recorder.count(
            TRANSCRIPT_BITS,
            message.num_bits,
            (("player", player), ("protocol", protocol_name), *extra),
        )
    recorder.count(
        TRANSCRIPT_MESSAGES,
        len(transcript.sketches),
        (("protocol", protocol_name), *extra),
    )


@dataclass(frozen=True)
class Transcript:
    """All messages of one protocol execution, with cost accounting."""

    sketches: dict[int, Message]

    def __post_init__(self) -> None:
        # The transcript is where communication is charged: every player's
        # packed payload must account for exactly its num_bits.
        assert_packed_accounting(self.sketches.values())

    @property
    def max_bits(self) -> int:
        """Worst-case message length — the paper's communication cost."""
        return max((m.num_bits for m in self.sketches.values()), default=0)

    @property
    def total_bits(self) -> int:
        return sum(m.num_bits for m in self.sketches.values())

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
    views: dict[int, VertexView] | None = None,
) -> ProtocolRun:
    """Execute a one-round protocol.

    ``views`` may be supplied to run under a non-standard player model
    (e.g. the public/unique player split of Section 3.1); by default each
    vertex of the graph is one player with its full neighborhood.

    The path is picked from the inputs alone.  When the graph is
    frozen, the protocol implements
    :class:`~repro.model.protocol.BatchSketchProtocol`, and no ``views``
    are supplied, all players' messages are built in one batched pass
    over the CSR buffers.  Otherwise each player's message is one
    ``sketch(view, coins)`` call — the model's definition, and the
    reference the batch path is checked against: pass
    ``views=views_of(graph, n)`` to force it.  Batch and per-view
    messages are bit-identical by contract, so the transcript (and
    therefore every downstream cost or lemma computation) is unchanged.
    """
    if n is None:
        n = graph.num_vertices()
    with obs.span("protocol.sketch", protocol=protocol.name, players=n):
        if (
            views is None
            and isinstance(graph, FrozenGraph)
            and isinstance(protocol, BatchSketchProtocol)
        ):
            sketches = protocol.sketch_batch(graph, n, coins)
        else:
            if views is None:
                views = views_of(graph, n=n)
            sketches = {
                v: protocol.sketch(view, coins) for v, view in views.items()
            }
    with obs.span("protocol.transcript", protocol=protocol.name):
        transcript = Transcript(sketches=sketches)
        charge_transcript(transcript, protocol.name)
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
            for v, m in t.sketches.items():
                totals[v] = totals.get(v, 0) + m.num_bits
        return max(totals.values(), default=0)


def run_adaptive_protocol(
    graph: GraphLike,
    protocol: AdaptiveProtocol,
    coins: PublicCoins,
    n: int | None = None,
) -> AdaptiveRun:
    """Execute an adaptive (multi-round) protocol."""
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
            charge_transcript(transcript, protocol.name, round_index)
            transcripts.append(transcript)
            result = protocol.referee_round(
                n, round_index, sketches, coins, broadcasts
            )
        if round_index < protocol.num_rounds - 1:
            broadcasts.append(result)
    return AdaptiveRun(
        output=result, transcripts=tuple(transcripts), broadcasts=tuple(broadcasts)
    )


def _batch_trial(trial: int, seed: int, make_graph, protocol) -> ProtocolRun:
    """One trial of a protocol batch (module-level for process pools)."""
    graph = make_graph(trial)
    return run_protocol(graph, protocol, PublicCoins(seed=seed))


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
    if trials <= 0:
        raise ValueError("trials must be positive")
    plan = TrialPlan(
        fn=_batch_trial,
        trials=trials,
        base_seed=base_seed,
        namespace="protocol-batch",
        args=(make_graph, protocol),
    )
    return resolve_engine(engine).run_trials(plan).values


def _success_trial(trial: int, seed: int, make_graph, protocol, check) -> bool:
    """One success-probability trial (module-level for process pools)."""
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
    across base seeds).  A thin wrapper over a batched
    :class:`~repro.engine.plan.TrialPlan`; pass ``engine`` to control the
    backend, default is the process-global engine.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    plan = TrialPlan(
        fn=_success_trial,
        trials=trials,
        base_seed=base_seed,
        namespace="protocol-batch",
        args=(make_graph, protocol, check),
    )
    outcomes = resolve_engine(engine).run_trials(plan).values
    return sum(outcomes) / trials
