"""Tests for the sketching model runtime: views, coins, messages, runner."""

import pytest

from repro.graphs import Graph, path_graph
from repro.model import (
    BitReader,
    BitWriter,
    EMPTY_MESSAGE,
    Message,
    PublicCoins,
    SketchProtocol,
    Transcript,
    as_one_round_bcc,
    decode_vertex_set,
    encode_vertex_set,
    estimate_success_probability,
    id_width_for,
    restricted_view,
    run_protocol,
    views_of,
)


class TestViews:
    def test_views_of_basic(self):
        g = path_graph(3)
        views = views_of(g)
        assert views[1].neighbors == frozenset({0, 2})
        assert views[0].n == 3
        assert views[0].degree == 1

    def test_incident_edges_canonical(self):
        g = path_graph(3)
        assert views_of(g)[1].incident_edges() == [(0, 1), (1, 2)]

    def test_explicit_n(self):
        g = Graph(vertices=[10, 20], edges=[(10, 20)])
        views = views_of(g, n=100)
        assert views[10].n == 100

    def test_restricted_view(self):
        g = path_graph(4)
        v = restricted_view(g, 1, visible={0}, n=4)
        assert v.neighbors == frozenset({0})


class TestCoins:
    def test_same_label_same_stream(self):
        coins = PublicCoins(seed=42)
        a = coins.rng("x").random()
        b = coins.rng("x").random()
        assert a == b

    def test_different_labels_differ(self):
        coins = PublicCoins(seed=42)
        assert coins.rng("x").random() != coins.rng("y").random()

    def test_different_seeds_differ(self):
        assert PublicCoins(1).rng("x").random() != PublicCoins(2).rng("x").random()

    def test_uniform_int_in_range(self):
        coins = PublicCoins(seed=7)
        for label in ("a", "b", "c"):
            assert 0 <= coins.uniform_int(label, 10) < 10

    def test_uniform_int_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PublicCoins(0).uniform_int("x", 0)

    def test_child_namespaces(self):
        coins = PublicCoins(seed=3)
        assert coins.child("a") != coins.child("b")
        assert coins.child("a") == coins.child("a")


class TestBits:
    def test_uint_roundtrip(self):
        w = BitWriter()
        w.write_uint(13, 5)
        w.write_uint(0, 1)
        w.write_uint(255, 8)
        r = w.to_message().reader()
        assert r.read_uint(5) == 13
        assert r.read_uint(1) == 0
        assert r.read_uint(8) == 255
        assert r.remaining == 0

    def test_uint_overflow(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_uint(8, 3)

    def test_varint_roundtrip(self):
        for value in (0, 1, 127, 128, 300, 10**9):
            w = BitWriter()
            w.write_varint(value)
            assert w.to_message().reader().read_varint() == value

    def test_varint_cost(self):
        w = BitWriter()
        w.write_varint(5)
        assert w.num_bits == 8
        w2 = BitWriter()
        w2.write_varint(300)
        assert w2.num_bits == 16

    def test_signed_roundtrip(self):
        for value in (-4, -1, 0, 3):
            w = BitWriter()
            w.write_int(value, 3)
            assert w.to_message().reader().read_int(3) == value

    def test_signed_overflow(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_int(4, 3)

    def test_eof(self):
        r = EMPTY_MESSAGE.reader()
        with pytest.raises(EOFError):
            r.read_bit()

    def test_vertex_set_roundtrip(self):
        w = BitWriter()
        encode_vertex_set(w, [3, 1, 4], id_width_for(10))
        r = w.to_message().reader()
        assert decode_vertex_set(r, id_width_for(10)) == [3, 1, 4]

    def test_id_width(self):
        assert id_width_for(2) == 1
        assert id_width_for(3) == 2
        assert id_width_for(1024) == 10
        assert id_width_for(1025) == 11
        assert id_width_for(1) == 1


class _DegreeProtocol(SketchProtocol):
    """Toy protocol: everyone sends their degree; referee sums to 2|E|."""

    name = "degree-sum"

    def sketch(self, view, coins):
        w = BitWriter()
        w.write_varint(view.degree)
        return w.to_message()

    def decode(self, n, sketches, coins):
        return sum(m.reader().read_varint() for m in sketches.values()) // 2


class TestRunner:
    def test_run_protocol_output(self):
        g = path_graph(5)
        run = run_protocol(g, _DegreeProtocol(), PublicCoins(0))
        assert run.output == 4

    def test_costs_accounted(self):
        g = path_graph(5)
        run = run_protocol(g, _DegreeProtocol(), PublicCoins(0))
        assert run.max_bits == 8  # one varint group
        assert run.transcript.total_bits == 5 * 8
        assert run.average_bits == 8.0

    def test_empty_transcript(self):
        t = Transcript(sketches={})
        assert t.max_bits == 0
        assert t.average_bits == 0.0

    def test_estimate_success_probability(self):
        prob = estimate_success_probability(
            make_graph=lambda i: path_graph(4),
            protocol=_DegreeProtocol(),
            check=lambda g, out: out == g.num_edges(),
            trials=5,
        )
        assert prob == 1.0

    def test_estimate_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            estimate_success_probability(lambda i: path_graph(2), _DegreeProtocol(), lambda g, o: True, 0)


class TestBCCEquivalence:
    def test_same_output_and_bandwidth(self):
        g = path_graph(6)
        coins = PublicCoins(11)
        sk = run_protocol(g, _DegreeProtocol(), coins)
        bcc = as_one_round_bcc(g, _DegreeProtocol(), coins)
        assert bcc.output == sk.output
        assert bcc.bandwidth == sk.max_bits
        assert len(bcc.rounds) == 1
