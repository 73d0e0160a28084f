"""A delivery sizes each message once, and packs and reads vertex sets
in one batch.

``Transcript`` reads every message's ``num_bits`` in the packing check
(``assert_packed_accounting``) and keeps those counts: ``bits`` per
player, ``max_bits`` and ``total_bits``.  ``charge_transcript`` and
``AdaptiveRun.max_bits`` read the counts, not the messages.  On the
player side ``vertex_set_messages`` packs a delivery's vertex sets and
gives every empty row one shared message; on the referee side
``read_vertex_sets`` reads them back.
"""

import random

import pytest

from repro.lowerbound import sample_dmm, scaled_distribution
from repro.model import (
    EMPTY_SET_MESSAGE,
    BatchSketchProtocol,
    BitWriter,
    Message,
    PublicCoins,
    SketchProtocol,
    Transcript,
    encode_vertex_set,
    id_width_for,
    read_vertex_set,
    read_vertex_sets,
    run_adaptive_protocol,
    run_protocol,
    vertex_set_message,
    vertex_set_messages,
)
from repro.model.runner import charge_transcript
from repro.obs import (
    TRANSCRIPT_BITS,
    TRANSCRIPT_MESSAGES,
    Summary,
    TelemetryRecorder,
    recording,
)
from repro.protocols import FilteringMatching, available_protocols, make_protocol
from repro.sketches import (
    DegeneracySketch,
    DensestSubgraphSketch,
    PaletteSparsificationColoring,
    PrivateCoinColoring,
    TriangleCountSketch,
)

from .test_sketch_core import REGISTRY_SPECS

#: The vertex-set sketches outside the registry, built for a graph.
SKETCH_FACTORIES = {
    "coloring": lambda g: PaletteSparsificationColoring(g.max_degree()),
    "private-coloring": lambda g: PrivateCoinColoring(g.max_degree()),
    "degeneracy": lambda g: DegeneracySketch(0.5),
    "triangles": lambda g: TriangleCountSketch(0.5),
    "densest": lambda g: DensestSubgraphSketch(0.5),
}


@pytest.fixture(scope="module")
def instance():
    return sample_dmm(scaled_distribution(m=10, k=3), random.Random(5))


def _forged(payload: bytes, num_bits: int) -> Message:
    """A message built past ``Message.__init__``'s validation."""
    message = Message.__new__(Message)
    object.__setattr__(message, "_payload", payload)
    object.__setattr__(message, "_num_bits", num_bits)
    return message


def _recount(transcript: Transcript) -> dict[int, int]:
    return {v: m.num_bits for v, m in transcript.sketches.items()}


class TestPackingCheck:
    def test_forged_padding_is_refused(self):
        forged = _forged(b"\x01", 7)  # the pad bit is set
        with pytest.raises(AssertionError, match="padding bits are nonzero"):
            Transcript(sketches={0: EMPTY_SET_MESSAGE, 1: forged})

    def test_forged_length_is_refused(self):
        with pytest.raises(AssertionError, match="does not pack"):
            Transcript(sketches={0: _forged(b"\x00\x00", 8)})

    def test_a_protocol_sending_a_forged_message_is_refused(self, instance):
        class Smuggler(SketchProtocol):
            name = "smuggler"

            def sketch(self, view, coins):
                return _forged(b"\x7f", 1)

            def decode(self, n, sketches, coins):
                return None

        with pytest.raises(AssertionError, match="padding bits are nonzero"):
            run_protocol(instance.graph, Smuggler(), PublicCoins(seed=0))


class TestTranscriptCounts:
    def test_specs_cover_every_registered_family(self):
        families = {spec.partition(":")[0] for spec in REGISTRY_SPECS}
        assert families == set(available_protocols())

    @pytest.mark.parametrize("path", ["batch", "per-view"])
    @pytest.mark.parametrize("spec", [*REGISTRY_SPECS, *SKETCH_FACTORIES])
    def test_counts_equal_a_recount(self, spec, path, instance):
        graph, n = instance.graph, instance.hard.n
        if spec in SKETCH_FACTORIES:
            protocol = SKETCH_FACTORIES[spec](graph)
        else:
            protocol = make_protocol(spec)
        assert isinstance(protocol, BatchSketchProtocol)
        if path == "per-view":
            graph = graph.to_builder()
        run = run_protocol(graph, protocol, PublicCoins(seed=3), n=n)
        transcript = run.transcript
        bits = _recount(transcript)
        assert transcript.bits == bits
        assert list(transcript.bits) == list(transcript.sketches)
        assert transcript.max_bits == max(bits.values()) == run.max_bits
        assert transcript.total_bits == sum(bits.values())
        assert transcript.average_bits == sum(bits.values()) / len(bits)
        assert run.average_bits == transcript.average_bits

    def test_empty_transcript(self):
        transcript = Transcript(sketches={})
        assert transcript.bits == {}
        assert (transcript.max_bits, transcript.total_bits) == (0, 0)
        assert transcript.average_bits == 0.0

    def test_adaptive_max_bits_sums_each_players_rounds(self, instance):
        run = run_adaptive_protocol(
            instance.graph,
            FilteringMatching(num_rounds=2),
            PublicCoins(seed=2),
            n=instance.hard.n,
        )
        totals: dict[int, int] = {}
        for transcript in run.transcripts:
            assert transcript.bits == _recount(transcript)
            for v, message in transcript.sketches.items():
                totals[v] = totals.get(v, 0) + message.num_bits
        assert run.max_bits == max(totals.values())


class TestChargeTranscript:
    def _run(self, instance):
        return run_protocol(
            instance.graph,
            make_protocol("sampled:1"),
            PublicCoins(seed=1),
            n=instance.hard.n,
        )

    def test_a_role_map_missing_a_player_is_refused(self, instance):
        transcript = self._run(instance).transcript
        roles = instance.player_roles()[:-1]
        with recording(TelemetryRecorder()):
            with pytest.raises(ValueError, match="exactly one role"):
                charge_transcript(transcript, "p", roles=lambda: roles)

    def test_a_negative_player_is_refused(self):
        # Python would index the table from its end; the charge must not.
        transcript = Transcript(
            sketches={-1: EMPTY_SET_MESSAGE, 0: EMPTY_SET_MESSAGE}
        )
        with recording(TelemetryRecorder()):
            with pytest.raises(ValueError, match="exactly one role"):
                charge_transcript(
                    transcript, "p", roles=lambda: ("public", "unique")
                )

    def test_role_summaries_equal_summary_of(self, instance):
        transcript = self._run(instance).transcript
        with recording(TelemetryRecorder()) as rec:
            charge_transcript(
                transcript, "p", round_index=1, roles=instance.player_roles
            )
        table = instance.player_roles()
        for role in set(table):
            bits = [
                m.num_bits
                for v, m in transcript.sketches.items()
                if table[v] == role
            ]
            labels = (("protocol", "p"), ("role", role), ("round", 1))
            assert rec.summaries[(TRANSCRIPT_BITS, labels)] == Summary.of(bits)
            assert rec.counters[(TRANSCRIPT_BITS, labels)] == sum(bits)
            assert rec.counters[(TRANSCRIPT_MESSAGES, labels)] == len(bits)
        assert len(rec.summaries) == 3


def _written(ids, n: int) -> Message:
    writer = BitWriter()
    encode_vertex_set(writer, list(ids), id_width_for(n))
    return writer.to_message()


class TestVertexSetBatch:
    def test_empty_rows_share_one_eight_bit_message(self):
        messages = vertex_set_messages([(0, []), (1, (3,)), (2, ())], 10)
        assert messages[0] is messages[2] is EMPTY_SET_MESSAGE
        assert EMPTY_SET_MESSAGE == Message(b"\x00", 8) == _written([], 10)
        assert vertex_set_message((), 10) == EMPTY_SET_MESSAGE
        assert read_vertex_sets(messages, id_width_for(10)) == {
            0: [],
            1: [3],
            2: [],
        }

    def test_rows_match_the_writer_and_read_back(self):
        n = 300
        rows = [
            (count, sorted(random.Random(count).sample(range(n), count)))
            for count in (0, 1, 5, 127, 128, 130)
        ]
        messages = vertex_set_messages(rows, n)
        for player, ids in rows:
            assert messages[player] == _written(ids, n)
            assert messages[player] == vertex_set_message(ids, n)
        assert read_vertex_sets(messages, id_width_for(n)) == dict(rows)

    @pytest.mark.parametrize("bad", [16, -1])
    def test_an_out_of_range_id_is_named(self, bad):
        # n = 16 gives 4-bit ids; 20 is out of range too, but comes later.
        message = f"value {bad} does not fit in 4 bits"
        with pytest.raises(ValueError, match=rf"^{message}$"):
            vertex_set_messages([(0, [1, 2]), (1, [3, bad, 20])], 16)
        with pytest.raises(ValueError, match=rf"^{message}$"):
            vertex_set_message([3, bad, 20], 16)
        with pytest.raises(ValueError, match=rf"^{message}$"):
            BitWriter().write_uint_array([3, bad, 20], 4)

    def test_the_reader_raises_what_a_bit_reader_raises(self):
        message = vertex_set_message([1, 2, 3], 16)
        cut = Message.from_bits(message.bits[:12])
        with pytest.raises(EOFError):
            read_vertex_set(cut, 4)
        with pytest.raises(EOFError):
            read_vertex_sets({0: message, 1: cut}, 4)
        with pytest.raises(EOFError):
            read_vertex_set(Message.from_bits([0] * 7), 4)
        with pytest.raises(ValueError, match="non-negative"):
            read_vertex_set(message, -1)
