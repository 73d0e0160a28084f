"""Tests for the columnar TableDistribution kernel."""

import math
import pickle
import random
from fractions import Fraction

import pytest

from repro.infotheory import (
    Codebook,
    JointDistribution,
    NORMALIZATION_TOLERANCE,
    TableBuilder,
    TableDistribution,
)


def xor_triple() -> TableDistribution:
    outcomes = [(a, b, a ^ b) for a in (0, 1) for b in (0, 1)]
    return TableDistribution.uniform(("a", "b", "c"), outcomes)


class TestCodebook:
    def test_intern_is_idempotent(self):
        book = Codebook()
        assert book.intern("x") == 0
        assert book.intern("y") == 1
        assert book.intern("x") == 0
        assert len(book) == 2
        assert book.value(1) == "y"
        assert "x" in book and "z" not in book

    def test_code_of_unknown_is_none(self):
        assert Codebook(["a"]).code("b") is None


class TestConstruction:
    def test_rejects_wrong_arity_with_names(self):
        with pytest.raises(ValueError, match=r"arity 2.*\('a',\)"):
            TableDistribution(("a",), {(0, 1): 1.0})

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            TableDistribution(("a",), {(0,): -0.5, (1,): 1.5})

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="sums to"):
            TableDistribution(("a",), {(0,): 0.7})

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate variable names"):
            TableDistribution(("a", "a"), {(0, 0): 1.0})

    def test_normalize_flag(self):
        d = TableDistribution(("a",), {(0,): 2.0, (1,): 2.0}, normalize=True)
        assert d.probability(a=0) == pytest.approx(0.5)

    def test_zero_rows_dropped(self):
        d = TableDistribution(("a",), {(0,): 1.0, (1,): 0.0})
        assert d.support() == {(0,)}
        assert d.num_rows == 1

    def test_duplicate_rows_merge(self):
        builder = TableBuilder(("a",))
        for _ in range(4):
            builder.add((0,), 0.25)
        d = builder.build()
        assert d.num_rows == 1
        assert d.probability(a=0) == pytest.approx(1.0)

    def test_from_samples(self):
        d = TableDistribution.from_samples(("x",), [(0,), (0,), (1,), (1,)])
        assert d.probability(x=0) == pytest.approx(0.5)
        with pytest.raises(ValueError, match="no samples"):
            TableDistribution.from_samples(("x",), [])

    def test_immutability(self):
        d = xor_triple()
        with pytest.raises(AttributeError):
            d.variables = ("x",)


class TestKernels:
    def test_marginal_order_and_values(self):
        m = xor_triple().marginal(["c", "a"])
        assert m.variables == ("c", "a")
        assert m.probability(c=0, a=1) == pytest.approx(0.25)

    def test_condition(self):
        c = xor_triple().condition(a=1)
        assert c.variables == ("b", "c")
        assert c.probability(b=1, c=0) == pytest.approx(0.5)

    def test_condition_zero_probability(self):
        with pytest.raises(ValueError, match="zero probability"):
            xor_triple().condition(a=7)

    def test_unknown_variable(self):
        with pytest.raises(KeyError):
            xor_triple().marginal(["z"])
        with pytest.raises(KeyError):
            xor_triple().probability(z=0)

    def test_probability_partial(self):
        assert xor_triple().probability(a=0) == pytest.approx(0.5)
        assert xor_triple().probability(a=0, c=3) == 0.0

    def test_support_projection(self):
        d = xor_triple()
        assert d.support(["c"]) == {(0,), (1,)}
        assert len(d.support()) == 4

    def test_push_forward(self):
        s = xor_triple().push_forward(("sum",), lambda a, b, c: a + b + c)
        assert s.variables == ("sum",)
        assert s.probability(sum=0) == pytest.approx(0.25)
        assert s.probability(sum=2) == pytest.approx(0.75)

    def test_get_and_items(self):
        d = xor_triple()
        assert d.get((0, 1, 1)) == pytest.approx(0.25)
        assert d.get((0, 1, 0)) == 0.0
        assert math.fsum(p for _, p in d.items()) == pytest.approx(1.0)


class TestInformation:
    def test_entropy_and_mi(self):
        d = xor_triple()
        assert d.entropy(["a", "b"]) == pytest.approx(2.0)
        assert d.entropy(["a"], given=["a"]) == pytest.approx(0.0)
        assert d.mutual_information(["a"], ["c"]) == pytest.approx(0.0)
        assert d.mutual_information(["a"], ["c"], given=["b"]) == pytest.approx(1.0)
        assert d.is_independent(["a"], ["c"])
        assert not d.is_independent(["a"], ["c"], given=["b"])

    def test_mi_rejects_overlap(self):
        with pytest.raises(ValueError):
            xor_triple().mutual_information(["a"], ["a"])

    def test_log_space_small_probabilities(self):
        # Masses around 2^-520 underflow any linear-space accumulator;
        # the grouped log-sum-exp keeps the entropy of the normalized
        # distribution exact.
        tiny = 2.0**-520
        d = TableDistribution(
            ("x",), {(0,): tiny, (1,): tiny}, normalize=True
        )
        assert d.entropy(["x"]) == pytest.approx(1.0)


class TestExactMode:
    def test_fraction_probabilities(self):
        d = TableDistribution(
            ("x",), {(0,): Fraction(1, 3), (1,): Fraction(2, 3)}, exact=True
        )
        assert d.exact
        assert d.probability(x=0) == Fraction(1, 3)
        assert isinstance(d.probability(x=0), Fraction)

    def test_exact_marginal_condition(self):
        pmf = {
            (a, b): Fraction(1, 4) for a in (0, 1) for b in (0, 1)
        }
        d = TableDistribution(("a", "b"), pmf, exact=True)
        assert d.marginal(["a"]).probability(a=0) == Fraction(1, 2)
        assert d.condition(a=0).probability(b=1) == Fraction(1, 2)

    def test_exact_sums_to_exactly_one(self):
        pmf = {(k,): Fraction(1, 7) for k in range(7)}
        d = TableDistribution(("x",), pmf, exact=True)
        assert sum(p for _, p in d.items()) == 1

    def test_exact_rejects_offbyone(self):
        with pytest.raises(ValueError, match="sums to"):
            TableDistribution(
                ("x",), {(0,): Fraction(1, 3), (1,): Fraction(1, 3)}, exact=True
            )


def mixed_denominators() -> TableDistribution:
    pmf = {(0, "x"): Fraction(1, 3), (1, "y"): Fraction(1, 6), (2, "x"): Fraction(1, 2)}
    return TableDistribution(("a", "b"), pmf, exact=True)


def _parent_grouped_entropy(dist, names) -> float:
    """The exact entropy formula before integer weights: group masses as
    ``Fraction``s, then ``-fsum(float(m) * log2(m))``."""
    idx = [dist.variables.index(name) for name in names]
    if not idx:
        return 0.0
    masses: dict = {}
    for outcome, p in dist.items():
        key = tuple(outcome[i] for i in idx)
        masses[key] = masses.get(key, Fraction(0)) + p
    return -math.fsum(float(m) * math.log2(m) for m in masses.values() if m > 0)


def _parent_entropy(dist, names, given) -> float:
    if not given:
        return _parent_grouped_entropy(dist, names)
    joint = list(dict.fromkeys(names + given))
    return _parent_grouped_entropy(dist, joint) - _parent_grouped_entropy(dist, given)


def _parent_mutual_information(dist, a, b, given) -> float:
    value = _parent_entropy(dist, a, given) - _parent_entropy(
        dist, a, list(dict.fromkeys(b + given))
    )
    return 0.0 if -NORMALIZATION_TOLERANCE < value < 0 else value


class TestExactWeights:
    """Exact tables hold int weights over one total; values that leave
    the kernel are Fractions, equal to what the Fraction column gave."""

    def test_equal_tables_from_any_weights(self):
        rows = [(0,), (1,)]
        tables = [
            TableDistribution.from_rows(("x",), rows, [Fraction(1, 2)] * 2, exact=True),
            TableDistribution.from_rows(("x",), rows, [Fraction(2, 4)] * 2, exact=True),
            TableDistribution.from_rows(("x",), rows, [0.5, 0.5], exact=True),
            TableDistribution.from_rows(
                ("x",), rows, [1, 1], normalize=True, exact=True
            ),
            TableDistribution.from_rows(
                ("x",), rows, [6, 6], normalize=True, exact=True
            ),
        ]
        first = tables[0]
        for table in tables[1:]:
            assert table == first
            assert table.digest == first.digest
            assert hash(table) == hash(first)
        assert first.pmf == {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}

    def test_mixed_denominators_match_the_oracle(self):
        table = mixed_denominators()
        oracle = JointDistribution(table.variables, table.pmf)
        assert table.pmf == oracle.pmf == {
            (0, "x"): Fraction(1, 3),
            (1, "y"): Fraction(1, 6),
            (2, "x"): Fraction(1, 2),
        }
        for fixed in ({"b": "x"}, {"a": 1}, {"a": 2, "b": "x"}, {"b": "z"}, {}):
            got = table.probability(**fixed)
            assert isinstance(got, Fraction)
            assert got == oracle.probability(**fixed)
        for names in (["b"], ["a"], ["b", "a"]):
            assert table.marginal(names).pmf == oracle.marginal(names).pmf
        for fixed in ({"b": "x"}, {"b": "y"}, {"a": 0}):
            got = table.condition(**fixed)
            assert got.exact
            assert got.pmf == oracle.condition(**fixed).pmf
        assert table.condition(b="x").pmf == {
            (0,): Fraction(2, 5),
            (2,): Fraction(3, 5),
        }
        assert all(isinstance(p, Fraction) for _, p in table.items())
        assert table.get((1, "y")) == Fraction(1, 6)

    def test_information_is_bit_identical_to_fraction_masses(self):
        rng = random.Random(2024)
        checked = 0
        for _ in range(200):
            arity = rng.randint(1, 4)
            names = [f"x{i}" for i in range(arity)]
            rows = [
                tuple(rng.randrange(3) for _ in names)
                for _ in range(rng.randint(1, 12))
            ]
            weights = [Fraction(rng.randint(1, 8), rng.randint(1, 6)) for _ in rows]
            table = TableDistribution.from_rows(
                names, rows, weights, normalize=True, exact=True
            )
            for _ in range(4):
                shuffled = rng.sample(names, arity)
                cut = rng.randint(1, arity)
                a, rest = shuffled[:cut], shuffled[cut:]
                given = [v for v in rest if rng.random() < 0.5]
                assert table.entropy(a, given=given) == _parent_entropy(
                    table, a, given
                )
                b = [v for v in rest if v not in given]
                if b:
                    got = table.mutual_information(a, b, given=given)
                    want = _parent_mutual_information(table, a, b, given)
                    assert got == want
                    checked += 1
        assert checked > 100

    def test_digest_is_pinned(self):
        # Computed with the Fraction-column kernel: TBLD1 bytes unchanged.
        table = mixed_denominators()
        assert table.digest == (
            "228d4f5b5fbc6ef3f8611bb1a6d1d6b00ed29624819310c749a519752c0380ce"
        )
        assert table.marginal(["b"]).digest == (
            "c7f7ad526edc0403ea1a9ffd120762d4457d958a311aa9729fdace84e17b456c"
        )

    def test_round_trips_keep_the_total(self):
        table = mixed_denominators()
        for back in (
            pickle.loads(pickle.dumps(table)),
            TableDistribution.from_bytes(table.to_bytes()),
        ):
            assert back == table
            assert back._total == table._total == 6
            assert back.to_bytes() == table.to_bytes()
            assert back.condition(b="x") == table.condition(b="x")

    def test_builder_still_refuses_bad_weights(self):
        builder = TableBuilder(("x",), exact=True)
        builder.add((0,), Fraction(3, 2))
        builder.add((1,), Fraction(-1, 2))
        with pytest.raises(ValueError, match="negative probability -1/2"):
            builder.build()
        builder = TableBuilder(("x",), exact=True)
        builder.add((0,), Fraction(1, 3))
        builder.add((1,), Fraction(1, 3))
        with pytest.raises(ValueError, match="pmf sums to 2/3, expected 1"):
            builder.build()
        with pytest.raises(ValueError, match="zero probability"):
            mixed_denominators().condition(b="z")


class TestCanonicalBytes:
    def test_digest_order_invariant(self):
        outcomes = [(a, b, a ^ b) for a in (0, 1) for b in (0, 1)]
        d1 = TableDistribution.uniform(("a", "b", "c"), outcomes)
        d2 = TableDistribution.uniform(("a", "b", "c"), list(reversed(outcomes)))
        assert d1 == d2
        assert d1.digest == d2.digest
        assert hash(d1) == hash(d2)

    def test_bytes_roundtrip(self):
        d = xor_triple()
        back = TableDistribution.from_bytes(d.to_bytes())
        assert back == d
        assert back.digest == d.digest
        assert back.pmf == d.pmf

    def test_bytes_roundtrip_heterogeneous(self):
        d = TableDistribution.uniform(
            ("x",), [(None,), (True,), (1.5,), ("s",), ((1, 2),), (b"\x01",)]
        )
        back = TableDistribution.from_bytes(d.to_bytes())
        assert back.pmf == d.pmf

    def test_exact_bytes_roundtrip(self):
        d = TableDistribution(
            ("x",), {(0,): Fraction(1, 3), (1,): Fraction(2, 3)}, exact=True
        )
        back = TableDistribution.from_bytes(d.to_bytes())
        assert back.exact
        assert back.probability(x=1) == Fraction(2, 3)
        assert back.digest == d.digest

    def test_cache_token_shape(self):
        d = xor_triple()
        assert d.cache_token == f"table-dist:{d.digest}"

    def test_cache_token_feeds_engine_cache_key(self):
        from repro.engine.cache import cache_key

        d1 = xor_triple()
        d2 = TableDistribution.uniform(
            ("a", "b", "c"),
            list(reversed([(a, b, a ^ b) for a in (0, 1) for b in (0, 1)])),
        )
        assert cache_key(("x", d1)) == cache_key(("x", d2))

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            TableDistribution.from_bytes(b"nope")

    def test_pickle_roundtrip_with_opaque_values(self):
        from repro.model import BitWriter

        writer = BitWriter()
        writer.write_uint(0b101, 3)
        msg = writer.to_message()
        d = TableDistribution.uniform(("m", "x"), [(msg, 0), (msg, 1)])
        back = pickle.loads(pickle.dumps(d))
        assert back == d
        assert back.digest == d.digest
        assert back.probability(m=msg, x=0) == pytest.approx(0.5)


def _messages(rng, count: int) -> list:
    from repro.model import Message

    return [
        Message(bits=[rng.randrange(2) for _ in range(rng.randrange(1, 12))])
        for _ in range(count)
    ]


def _random_rows(rng, exact: bool):
    """Rows of an int, a string and a message tuple, with repeats, and
    their weights (ints and Fractions, or floats)."""
    messages = _messages(rng, 5)
    pools = (
        list(range(-3, 6)),
        ["", "a", "b", "ab", "é"],
        [tuple(rng.sample(messages, rng.randrange(4))) for _ in range(6)],
    )
    rows = [
        tuple(rng.choice(pool) for pool in pools) for _ in range(rng.randrange(1, 40))
    ]
    if exact:
        weights = [rng.choice([1, 2, Fraction(1, 3), Fraction(5, 7)]) for _ in rows]
    else:
        weights = [rng.random() + 0.01 for _ in rows]
    return rows, weights


class Counted:
    """A value that counts the times it is hashed."""

    hashes = 0

    def __init__(self, key):
        self.key = key

    def __hash__(self):
        Counted.hashes += 1
        return hash(self.key)

    def __eq__(self, other):
        return isinstance(other, Counted) and self.key == other.key

    def __repr__(self):
        return f"Counted({self.key!r})"


class TestCodedRows:
    """``append`` takes rows of codes; ``add`` interns, then appends."""

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("seed", range(8))
    def test_coded_append_equals_add(self, seed, exact):
        rng = random.Random(seed)
        names = ("i", "s", "m")
        rows, weights = _random_rows(rng, exact)
        order = list(range(len(rows)))
        rng.shuffle(order)
        rows = [rows[r] for r in order]
        weights = [weights[r] for r in order]
        added = TableBuilder(names, exact=exact)
        for row, w in zip(rows, weights):
            added.add(row, w)
        coded = TableBuilder(names, exact=exact)
        # Codes issued in another order than add's first-seen one.
        for book, column in zip(coded.codebooks, zip(*rows)):
            values = list(dict.fromkeys(column))
            rng.shuffle(values)
            for value in values:
                book.intern(value)
        for row, w in zip(rows, weights):
            coded.append(tuple(map(Codebook.code, coded.codebooks, row)), w)
        a, b = added.build(normalize=True), coded.build(normalize=True)
        assert a.to_bytes() == b.to_bytes()
        assert a.digest == b.digest
        assert len(added) == len(coded) == len(rows)

    def test_exact_tables_equal_in_any_row_order(self):
        rng = random.Random(3)
        rows, weights = _random_rows(rng, exact=True)
        digests = set()
        for _ in range(4):
            pairs = list(zip(rows, weights))
            rng.shuffle(pairs)
            builder = TableBuilder(("i", "s", "m"), exact=True)
            for row, w in pairs:
                builder.append(tuple(map(Codebook.intern, builder.codebooks, row)), w)
            digests.add(builder.build(normalize=True).digest)
        assert len(digests) == 1

    def test_wrong_arity_raises(self):
        builder = TableBuilder(("a", "b"))
        builder.codebooks[0].intern("x")
        with pytest.raises(ValueError, match=r"1 codes, expected 2"):
            builder.append((0,), 1.0)
        with pytest.raises(ValueError, match=r"arity 3"):
            builder.add(("x", "y", "z"), 1.0)
        assert len(builder) == 0

    @pytest.mark.parametrize("code", [1, 7, -1])
    def test_code_never_issued_raises(self, code):
        builder = TableBuilder(("a", "b"))
        builder.codebooks[0].intern("x")
        builder.codebooks[1].intern("y")
        builder.append((0, 0), 0.5)
        builder.append((0, code), 0.5)
        with pytest.raises(ValueError, match="'b'.*never issued"):
            builder.build()

    def test_derived_codebooks_hash_nothing_until_looked_up(self):
        rng = random.Random(5)
        rows = [
            (rng.randrange(3), Counted(rng.randrange(6)), Counted(rng.randrange(4)))
            for _ in range(40)
        ]
        Counted.hashes = 0
        builder = TableBuilder(("a", "b", "c"))
        for row in rows:
            builder.append(tuple(map(Codebook.intern, builder.codebooks, row)), 1.0)
        interned = Counted.hashes
        table = builder.build(normalize=True)
        derived = table.marginal(["a", "b"]).condition(a=1)
        assert Counted.hashes == interned
        # The first lookup by value builds the dict: each value once.
        book = derived.codebook("b")
        assert book.value(0) in book
        assert Counted.hashes == interned + len(book) + 1
        value = table.codebook("b").value(0)
        assert table.condition(b=value).num_rows > 0
        assert Counted.hashes > interned

    def test_derived_codebooks_answer_like_eager_ones(self):
        rng = random.Random(9)
        messages = _messages(rng, 4)
        rows = [
            (rng.randrange(3), tuple(rng.sample(messages, 2)), rng.choice("xyz"))
            for _ in range(30)
        ]
        table = TableDistribution.from_rows(("a", "m", "s"), rows, exact=True)
        absent = (messages[0],) * 3
        for derived in (table, table.marginal(["m", "s"]), table.condition(a=0)):
            eager = TableDistribution._from_canonical(
                derived.variables,
                tuple(Codebook(derived.codebook(v).values) for v in derived.variables),
                derived._columns,
                derived._probs,
                derived._total,
            )
            unpickled = pickle.loads(pickle.dumps(derived))
            assert unpickled == derived == eager
            for name in derived.variables:
                lazy_book, eager_book = derived.codebook(name), eager.codebook(name)
                books = (lazy_book, pickle.loads(pickle.dumps(lazy_book)),
                         unpickled.codebook(name))
                for book in books:
                    assert book.values == eager_book.values
                    for value in (*eager_book.values, absent):
                        assert book.code(value) == eager_book.code(value)
                        assert (value in book) == (value in eager_book)
            for value in derived.codebook("m").values:
                assert (
                    derived.condition(m=value).to_bytes()
                    == eager.condition(m=value).to_bytes()
                    == unpickled.condition(m=value).to_bytes()
                )


class TestRandomizedAgainstDirectFormulas:
    def test_entropy_matches_direct_sum(self):
        rng = random.Random(11)
        weights = {(k,): rng.random() + 0.01 for k in range(9)}
        total = sum(weights.values())
        pmf = {o: w / total for o, w in weights.items()}
        d = TableDistribution(("x",), pmf, normalize=True)
        direct = -sum(p * math.log2(p) for p in pmf.values())
        assert d.entropy(["x"]) == pytest.approx(direct, abs=1e-12)
