"""Exact verification of Lemmas 3.3-3.5 on enumerable D_MM instances.

For each protocol below we enumerate the full joint distribution of
(J, indicators, transcript), so every inequality is checked *exactly*
(up to float tolerance), for correct protocols and for failing ones.
"""

import itertools
import pickle
import random
from fractions import Fraction

import pytest

from repro.engine import configure_cache, construction_cache
from repro.graphs import is_maximal_matching, normalize_edge
from repro.infotheory import JointDistribution, TableBuilder, TableDistribution
from repro.lowerbound import (
    DMMInstance,
    analyze_protocol,
    enumerate_indicator_tables,
    exact_outcomes,
    identity_sigma,
    micro_distribution,
    player_split,
    vertex_player_views,
)
from repro.model import Message, PublicCoins, SketchProtocol
from repro.protocols import (
    FullNeighborhoodMatching,
    SampledEdgesMatching,
)

MICRO = micro_distribution(r=1, t=2, k=2)  # 2^(1*2*2) * 2 = 32 outcomes
COINS = PublicCoins(seed=1234)


class Flipped(SketchProtocol):
    """Every message bit flipped: same partition of views, other bits."""

    name = "flipped-sampled"

    def __init__(self, inner):
        self.inner = inner

    def sketch(self, view, coins):
        m = self.inner.sketch(view, coins)
        return Message(bits=tuple(1 - b for b in m.bits))

    def decode(self, n, sketches, coins):
        unflipped = {
            v: Message(bits=tuple(1 - b for b in m.bits))
            for v, m in sketches.items()
        }
        return self.inner.decode(n, unflipped, coins)


class Padded(SketchProtocol):
    """Every message padded with one constant bit."""

    name = "padded-sampled"

    def __init__(self, inner):
        self.inner = inner

    def sketch(self, view, coins):
        m = self.inner.sketch(view, coins)
        return Message(bits=m.bits + (0,))

    def decode(self, n, sketches, coins):
        trimmed = {v: Message(bits=m.bits[:-1]) for v, m in sketches.items()}
        return self.inner.decode(n, trimmed, coins)


class LabelPadded(SketchProtocol):
    """Every message padded with as many zero bits as the player's label."""

    name = "label-padded-sampled"

    def __init__(self, inner):
        self.inner = inner

    def sketch(self, view, coins):
        m = self.inner.sketch(view, coins)
        return Message(bits=m.bits + (0,) * view.vertex)

    def decode(self, n, sketches, coins):
        trimmed = {
            v: Message(bits=m.bits[: m.num_bits - v]) for v, m in sketches.items()
        }
        return self.inner.decode(n, trimmed, coins)


class ExtraPairs(SketchProtocol):
    """The inner referee's output plus pairs the adversary scores invalid."""

    name = "extra-pairs-sampled"

    def __init__(self, inner, extra):
        self.inner = inner
        self.extra = extra

    def sketch(self, view, coins):
        return self.inner.sketch(view, coins)

    def decode(self, n, sketches, coins):
        output = sorted(self.inner.decode(n, sketches, coins))
        return output + self.extra(output)


class Counting(SketchProtocol):
    """Records every sketched view and every decoded transcript."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.sketched = []
        self.decoded = []

    def sketch(self, view, coins):
        self.sketched.append(view)
        return self.inner.sketch(view, coins)

    def decode(self, n, sketches, coins):
        self.decoded.append(tuple(sorted(sketches.items())))
        return self.inner.decode(n, sketches, coins)


@pytest.fixture(scope="module")
def full_analysis():
    return analyze_protocol(MICRO, FullNeighborhoodMatching(), COINS)


@pytest.fixture(scope="module")
def cheap_analysis():
    return analyze_protocol(MICRO, SampledEdgesMatching(0), COINS)


class TestFullProtocolAnalysis:
    def test_zero_error(self, full_analysis):
        assert full_analysis.error_probability == pytest.approx(0.0)

    def test_expected_mu_positive(self, full_analysis):
        # E|M^U| = expected surviving special edges picked by greedy;
        # each of the k*r = 2 special slots survives w.p. 1/2 and, when it
        # survives, must be matched (its endpoints have no other edges).
        assert full_analysis.expected_mu == pytest.approx(1.0)

    def test_lemma33_quantitative(self, full_analysis):
        assert full_analysis.lemma33_holds()

    def test_information_counts_special_bits(self, full_analysis):
        # The transcript reveals the whole graph: I(M;Π|J) = k*r bits.
        kr = MICRO.k * MICRO.r
        assert full_analysis.information_revealed == pytest.approx(float(kr))

    def test_lemma34(self, full_analysis):
        assert full_analysis.lemma34_holds()

    def test_lemma35_every_copy(self, full_analysis):
        assert full_analysis.lemma35_all_hold()

    def test_capacity_exceeds_information(self, full_analysis):
        """The combined Theorem-1 inequality: information <= capacity.
        A protocol that succeeds must pay for it in message length."""
        assert full_analysis.information_revealed <= (
            full_analysis.capacity_upper_bound + 1e-6
        )


class TestCheapProtocolAnalysis:
    def test_always_errs(self, cheap_analysis):
        # Budget 0: empty sketches; the referee outputs an empty matching,
        # which is maximal only when every special edge was dropped AND
        # public matchings vanished; error probability is large.
        assert cheap_analysis.error_probability > 0.5

    def test_no_information(self, cheap_analysis):
        assert cheap_analysis.information_revealed == pytest.approx(0.0)

    def test_lemma33_still_consistent(self, cheap_analysis):
        """Zero information forces the implied bound to be non-positive:
        the contrapositive of Lemma 3.3 in action."""
        assert cheap_analysis.lemma33_implied_bound <= 1e-9
        assert cheap_analysis.lemma33_holds()

    def test_lemma34_and_35(self, cheap_analysis):
        assert cheap_analysis.lemma34_holds()
        assert cheap_analysis.lemma35_all_hold()

    def test_worst_case_bits_zero(self, cheap_analysis):
        # encode_vertex_set of an empty list still writes a varint header.
        assert cheap_analysis.worst_case_bits <= 8


class TestInvalidOutputs:
    """Section 2.1 lets the referee output pairs that are not a valid
    matching; the exact lemma path scores them as the adversary does."""

    def analyze(self, extra):
        return analyze_protocol(
            MICRO, ExtraPairs(FullNeighborhoodMatching(), extra), COINS, exact=True
        )

    def test_self_loop_is_an_error(self, full_analysis):
        analysis = self.analyze(lambda output: [(0, 0)])
        assert analysis.error_probability == 1
        # A self-loop is no slot: the slots hit stay the inner protocol's.
        assert analysis.expected_mu == pytest.approx(full_analysis.expected_mu)

    def test_pair_given_twice_is_an_error(self, full_analysis):
        analysis = self.analyze(lambda output: [(v, u) for u, v in output])
        # The inner protocol is always right, so its output is empty
        # exactly on an edgeless G; every other output repeats a pair.
        outcomes = exact_outcomes(MICRO, identity_sigma(MICRO))
        with_edges = sum(o.graph.num_edges() > 0 for o in outcomes)
        assert 0 < with_edges < len(outcomes)
        assert analysis.error_probability == Fraction(with_edges, len(outcomes))
        assert analysis.expected_mu == pytest.approx(full_analysis.expected_mu)


class TestIntermediateBudgets:
    @pytest.mark.parametrize("budget", [1, 2])
    def test_lemma_chain_holds_for_partial_protocols(self, budget):
        analysis = analyze_protocol(MICRO, SampledEdgesMatching(budget), COINS)
        assert analysis.lemma33_holds()
        assert analysis.lemma34_holds()
        assert analysis.lemma35_all_hold()

    def test_information_monotone_in_budget(self):
        infos = [
            analyze_protocol(MICRO, SampledEdgesMatching(b), COINS).information_revealed
            for b in (0, 1, 4)
        ]
        assert infos[0] <= infos[1] + 1e-9 <= infos[2] + 2e-9

    def test_error_decreases_with_budget(self):
        errors = [
            analyze_protocol(MICRO, SampledEdgesMatching(b), COINS).error_probability
            for b in (0, 4)
        ]
        assert errors[1] < errors[0]


class TestLargerMicroInstances:
    def test_r2_instance(self):
        hard = micro_distribution(r=2, t=2, k=1)  # 2^(2*2) * 2 = 32 outcomes
        analysis = analyze_protocol(hard, FullNeighborhoodMatching(), COINS)
        assert analysis.error_probability == pytest.approx(0.0)
        assert analysis.lemma33_holds()
        assert analysis.lemma34_holds()
        assert analysis.lemma35_all_hold()

    def test_t3_instance(self):
        hard = micro_distribution(r=1, t=3, k=2)  # 2^6 * 3 = 192 outcomes
        analysis = analyze_protocol(hard, FullNeighborhoodMatching(), COINS)
        assert analysis.lemma33_holds()
        assert analysis.lemma34_holds()
        assert analysis.lemma35_all_hold()
        # Direct-sum effect: each copy's unique players reveal exactly
        # r = 1 bit about their special matching, and H(Π(U_i)) spans all
        # t matchings, so the 1/t factor leaves room.
        for i in range(hard.k):
            assert analysis.unique_information(i) <= (
                analysis.unique_entropy(i) / hard.t + 1e-6
            )


class TestNonIdentitySigma:
    """The lemmas condition on Σ = σ; they must hold for every σ."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_lemma_chain_under_shuffled_sigma(self, seed):
        import random

        hard = micro_distribution(r=1, t=2, k=2)
        sigma = list(range(hard.n))
        random.Random(seed).shuffle(sigma)
        for protocol in (FullNeighborhoodMatching(), SampledEdgesMatching(1)):
            a = analyze_protocol(hard, protocol, COINS, sigma=tuple(sigma))
            assert a.lemma33_holds()
            assert a.lemma34_holds()
            assert a.lemma35_all_hold()

    def test_full_protocol_information_is_sigma_invariant(self):
        import random

        hard = micro_distribution(r=1, t=2, k=2)
        infos = []
        for seed in (4, 5):
            sigma = list(range(hard.n))
            random.Random(seed).shuffle(sigma)
            a = analyze_protocol(
                hard, FullNeighborhoodMatching(), COINS, sigma=tuple(sigma)
            )
            infos.append(a.information_revealed)
        # The full protocol always reveals the complete graph: exactly
        # k*r bits about the special indicators, whatever the labels.
        assert all(abs(i - hard.k * hard.r) < 1e-9 for i in infos)


class TestProofEquationDetails:
    """Fine-grained checks of individual equations inside the proofs."""

    def test_eq1_unconditional_indicator_entropy(self, full_analysis):
        """Eq (1): conditioned on (Σ, J) but not Π, the special
        indicators are uniform on 2^(kr): H(M_{1,J}..M_{k,J} | J) = kr."""
        hard = full_analysis.hard
        total = 0.0
        for j in range(hard.t):
            cond = full_analysis.dist.condition(J=j)
            total += full_analysis.dist.probability(J=j) * cond.entropy(
                full_analysis.m_vars(j)
            )
        assert total == pytest.approx(float(hard.k * hard.r))

    def test_output_correctness_entropy_at_most_one_bit(self, full_analysis):
        """H(O) <= 1, the cheap term in Eq (2)."""
        assert full_analysis.dist.entropy(["O"]) <= 1.0 + 1e-9

    def test_claim32_for_low_error_protocol(self, full_analysis):
        """Claim 3.2: a protocol with error <= 0.01 has E|M^U| >= kr/5."""
        hard = full_analysis.hard
        assert full_analysis.error_probability <= 0.01
        assert full_analysis.expected_mu >= hard.k * hard.r / 5.0

    def test_indicators_independent_of_j(self, full_analysis):
        """The subsampling coins are independent of the special index."""
        hard = full_analysis.hard
        for i in range(hard.k):
            for j in range(hard.t):
                assert full_analysis.dist.is_independent([f"M_{i}_{j}"], ["J"])

    def test_unique_transcripts_independent_across_copies(self, full_analysis):
        """The engine behind Lemma 3.4: Π(U_i) ⊥ Π(U_i') given (Σ, J)
        since the copies are subsampled independently."""
        cond = full_analysis.dist.condition(J=0)
        assert cond.is_independent(["PiU_0"], ["PiU_1"])

    def test_mu_never_exceeds_kr(self, full_analysis, cheap_analysis):
        kr = MICRO.k * MICRO.r
        for analysis in (full_analysis, cheap_analysis):
            for outcome, prob in analysis.dist.pmf.items():
                mu = outcome[-1]
                assert 0 <= mu <= kr


class TestInformationInvariances:
    """Sanity properties of the exact information accounting."""

    def test_information_invariant_under_message_relabeling(self):
        """I(M;Π|Σ,J) depends only on the partition a protocol's messages
        induce, not on the bit patterns — flipping every message bit
        changes nothing."""
        base = SampledEdgesMatching(1)
        a = analyze_protocol(MICRO, base, COINS)
        b = analyze_protocol(MICRO, Flipped(base), COINS)
        assert b.information_revealed == pytest.approx(a.information_revealed)
        assert b.error_probability == pytest.approx(a.error_probability)
        assert b.public_entropy == pytest.approx(a.public_entropy)
        for i in range(MICRO.k):
            assert b.unique_information(i) == pytest.approx(a.unique_information(i))

    def test_padding_messages_changes_bits_not_information(self):
        """Appending a constant bit to every message raises the cost but
        not the revealed information — bits and information are distinct
        resources, which is the whole subject of the paper."""
        base = SampledEdgesMatching(1)
        a = analyze_protocol(MICRO, base, COINS)
        b = analyze_protocol(MICRO, Padded(base), COINS)
        assert b.worst_case_bits == a.worst_case_bits + 1
        assert b.information_revealed == pytest.approx(a.information_revealed)


class TestPackedTranscriptKeys:
    """The pmf keys transcripts by packed Messages (hashable bytes); the
    joint distribution must be identical to the historical per-bit-tuple
    keying — same groups, same masses."""

    def test_transcript_entries_are_packed_messages(self, full_analysis):
        names = list(full_analysis.dist.variables)
        pi_p_index = names.index("PiP")
        for outcome in full_analysis.dist.pmf:
            assert all(isinstance(m, Message) for m in outcome[pi_p_index])
            for i in range(MICRO.k):
                group = outcome[names.index(f"PiU_{i}")]
                assert all(isinstance(m, Message) for m in group)

    def test_distribution_identical_under_bit_tuple_regrouping(
        self, full_analysis, cheap_analysis
    ):
        """Re-keying every Message as its per-bit tuple neither merges nor
        splits any outcome: the packed representation is a bijective
        relabeling, so all Lemma 3.3–3.5 quantities are unchanged."""
        def unpack(value):
            if isinstance(value, Message):
                return value.bits
            if isinstance(value, tuple):
                return tuple(unpack(x) for x in value)
            return value

        for analysis in (full_analysis, cheap_analysis):
            regrouped = {}
            for outcome, prob in analysis.dist.pmf.items():
                key = unpack(outcome)
                regrouped[key] = regrouped.get(key, 0.0) + prob
            assert len(regrouped) == len(analysis.dist.pmf)
            assert sorted(regrouped.values()) == pytest.approx(
                sorted(analysis.dist.pmf.values())
            )


class TestExactVsMonteCarlo:
    """The exact enumeration and Monte-Carlo sampling are independent
    code paths; their error probabilities must agree."""

    def test_error_probability_matches_sampling(self):
        import random

        from repro.lowerbound import DMMInstance, identity_sigma
        from repro.model import run_protocol
        from repro.graphs import is_maximal_matching, normalize_edge

        hard = MICRO
        protocol = SampledEdgesMatching(0)
        exact = analyze_protocol(hard, protocol, COINS)

        rng = random.Random(7)
        trials = 1500
        errors = 0
        sigma = identity_sigma(hard)
        for _ in range(trials):
            indicators = tuple(
                tuple(rng.getrandbits(hard.r) for _ in range(hard.t))
                for _ in range(hard.k)
            )
            inst = DMMInstance(
                hard=hard,
                j_star=rng.randrange(hard.t),
                sigma=sigma,
                indicators=indicators,
            )
            run = run_protocol(inst.graph, protocol, COINS, n=hard.n)
            output = {normalize_edge(u, v) for u, v in run.output}
            if not is_maximal_matching(inst.graph, output):
                errors += 1
        estimate = errors / trials
        assert estimate == pytest.approx(exact.error_probability, abs=0.03)

    def test_expected_mu_matches_sampling(self):
        import random

        from repro.lowerbound import DMMInstance, identity_sigma
        from repro.model import run_protocol
        from repro.graphs import normalize_edge

        hard = MICRO
        protocol = FullNeighborhoodMatching()
        exact = analyze_protocol(hard, protocol, COINS)

        rng = random.Random(8)
        trials = 1500
        total_mu = 0
        sigma = identity_sigma(hard)
        for _ in range(trials):
            indicators = tuple(
                tuple(rng.getrandbits(hard.r) for _ in range(hard.t))
                for _ in range(hard.k)
            )
            inst = DMMInstance(
                hard=hard,
                j_star=rng.randrange(hard.t),
                sigma=sigma,
                indicators=indicators,
            )
            run = run_protocol(inst.graph, protocol, COINS, n=hard.n)
            output = {normalize_edge(u, v) for u, v in run.output}
            slots = set()
            for i in range(hard.k):
                slots.update(inst.special_slot_pairs(i))
            total_mu += len(output & slots)
        assert total_mu / trials == pytest.approx(exact.expected_mu, abs=0.05)


# ----------------------------------------------------------------------
# The outcome table and the work-once protocol loop
# ----------------------------------------------------------------------
def _reference_analysis(hard, protocol, coins, sigma, *, oracle, exact):
    """The enumeration before the outcome table: every outcome rebuilds
    its instance, calls ``player_split`` and then ``vertex_player_views``,
    and sketches every player of both once.  With ``oracle`` it sums the
    rows into a dict :class:`JointDistribution`, else into a table."""
    k, t, n = hard.k, hard.t, hard.n
    names = [
        "J",
        *[f"M_{i}_{j}" for i in range(k) for j in range(t)],
        "PiP",
        *[f"PiU_{i}" for i in range(k)],
        "O",
        "MU",
    ]
    pmf = {}
    builder = None if oracle else TableBuilder(names, exact=exact)
    expected_mu = error_prob = Fraction(0) if exact else 0.0
    worst_bits = 0
    tables = list(enumerate_indicator_tables(hard))
    prob = Fraction(1, t * len(tables)) if exact else 1.0 / (t * len(tables))
    for j_star in range(t):
        for table in tables:
            instance = DMMInstance(
                hard=hard, j_star=j_star, sigma=sigma, indicators=table
            )
            split = player_split(instance)
            pi_p = tuple(
                protocol.sketch(split.public[label], coins)
                for label in sorted(split.public)
            )
            pi_u = [
                tuple(
                    protocol.sketch(split.unique[(i, v)], coins)
                    for v in sorted(v for (ci, v) in split.unique if ci == i)
                )
                for i in range(k)
            ]
            worst_bits = max(
                worst_bits, *(m.num_bits for m in pi_p + sum(pi_u, ()))
            )
            views = vertex_player_views(instance)
            sketches = {v: protocol.sketch(view, coins) for v, view in views.items()}
            output = protocol.decode(n, sketches, coins)
            output = {normalize_edge(u, v) for u, v in output}
            slots = set()
            for i in range(k):
                slots.update(instance.special_slot_pairs(i))
            mu = len(output & slots)
            correct = is_maximal_matching(instance.graph, output)
            expected_mu += prob * mu
            if not correct:
                error_prob += prob
            row = (
                j_star,
                *(table[i][j] for i in range(k) for j in range(t)),
                pi_p,
                *pi_u,
                1 if correct else 0,
                mu,
            )
            if builder is not None:
                builder.add(row, prob)
            else:
                pmf[row] = pmf.get(row, 0.0) + prob
    dist = builder.build() if builder is not None else JointDistribution(names, pmf)
    return dist, expected_mu, error_prob, worst_bits


def _sigma(hard, seed):
    """Identity for ``seed=None``, else a seeded shuffle of [n]."""
    sigma = list(identity_sigma(hard))
    if seed is not None:
        random.Random(seed).shuffle(sigma)
    return tuple(sigma)


def _all_views(outcome):
    return (*outcome.public, *itertools.chain(*outcome.unique), *outcome.referee)


PROTOCOLS = {
    "full": FullNeighborhoodMatching,
    "sampled2": lambda: SampledEdgesMatching(2),
    "sampled1": lambda: SampledEdgesMatching(1),
    "sampled0": lambda: SampledEdgesMatching(0),
    "flipped": lambda: Flipped(SampledEdgesMatching(1)),
    "padded": lambda: Padded(SampledEdgesMatching(1)),
    "label-padded": lambda: LabelPadded(SampledEdgesMatching(1)),
}
#: mode -> (compare through the dict oracle, exact)
MODES = {
    "table": (False, False),
    "reference": (True, False),
    "exact": (False, True),
}


class TestAgainstReferenceLoop:
    """The outcome table plus the work-once loop reproduce the old
    per-outcome loop bit for bit."""

    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("sigma_seed", [None, 11])
    @pytest.mark.parametrize("t", [2, 3])
    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_identical_to_reference(self, name, t, sigma_seed, mode):
        oracle, exact = MODES[mode]
        hard = micro_distribution(r=1, t=t, k=2)
        sigma = _sigma(hard, sigma_seed)
        protocol = PROTOCOLS[name]()
        got = analyze_protocol(hard, protocol, COINS, sigma, exact=exact)
        dist, mu, err, bits = _reference_analysis(
            hard, protocol, COINS, sigma, oracle=oracle, exact=exact
        )
        if oracle:
            # The dict oracle over the table's rows equals the old loop's.
            assert JointDistribution(got.dist.variables, got.dist.pmf).pmf == dist.pmf
        else:
            assert got.dist.to_bytes() == dist.to_bytes()
        assert got.expected_mu == mu
        assert got.error_probability == err
        assert type(got.expected_mu) is type(mu)
        assert got.worst_case_bits == bits

    @pytest.mark.parametrize("sigma_seed", [None, 11])
    @pytest.mark.parametrize("t", [2, 3])
    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_sketch_once_per_view_decode_once_per_transcript(
        self, name, t, sigma_seed
    ):
        hard = micro_distribution(r=1, t=t, k=2)
        sigma = _sigma(hard, sigma_seed)
        inner = PROTOCOLS[name]()
        counting = Counting(inner)
        analyze_protocol(hard, counting, COINS, sigma)
        outcomes = exact_outcomes(hard, sigma)
        views = {view for outcome in outcomes for view in _all_views(outcome)}
        assert len(counting.sketched) == len(set(counting.sketched))
        assert set(counting.sketched) == views
        transcripts = {
            tuple((v.vertex, inner.sketch(v, COINS)) for v in outcome.referee)
            for outcome in outcomes
        }
        assert len(counting.decoded) == len(set(counting.decoded))
        assert set(counting.decoded) == transcripts
        # The point of the table: far fewer views than player slots.
        assert len(views) < len(outcomes)


class TestExactOutcomes:
    @pytest.mark.parametrize("sigma_seed", [None, 5])
    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_records_match_player_split(self, t, sigma_seed):
        """Every outcome equals a rebuild through ``player_split``,
        although the table reads its unique views from ``copy_outcomes``."""
        hard = micro_distribution(r=1, t=t, k=2)
        sigma = _sigma(hard, sigma_seed)
        outcomes = exact_outcomes(hard, sigma)
        order = itertools.product(range(t), enumerate_indicator_tables(hard))
        pairs = list(zip(outcomes, order, strict=True))
        for outcome, (j_star, table) in pairs:
            assert (outcome.j_star, outcome.indicators) == (j_star, table)
            instance = DMMInstance(
                hard=hard, j_star=j_star, sigma=sigma, indicators=table
            )
            split = player_split(instance)
            views = vertex_player_views(instance)
            assert outcome.referee == tuple(views[v] for v in sorted(views))
            assert outcome.public == tuple(
                split.public[v] for v in sorted(split.public)
            )
            assert outcome.unique == tuple(
                tuple(
                    split.unique[(i, v)]
                    for v in sorted(v for (ci, v) in split.unique if ci == i)
                )
                for i in range(hard.k)
            )
            assert outcome.slots == frozenset(
                pair for i in range(hard.k) for pair in instance.special_slot_pairs(i)
            )
            assert outcome.graph == instance.graph

    def test_equal_values_are_shared(self):
        outcomes = exact_outcomes(micro_distribution(r=1, t=3, k=2))
        for values in (
            [view for outcome in outcomes for view in _all_views(outcome)],
            [outcome.public for outcome in outcomes],
            [group for outcome in outcomes for group in outcome.unique],
            [outcome.referee for outcome in outcomes],
            [outcome.slots for outcome in outcomes],
            [outcome.graph for outcome in outcomes],
        ):
            assert len({id(v) for v in values}) == len(set(values))

    def test_second_call_is_a_cache_hit(self):
        hard = micro_distribution(r=1, t=3, k=2)
        first = exact_outcomes(hard)
        stats = construction_cache().stats
        hits = stats.hits
        assert exact_outcomes(hard, identity_sigma(hard)) is first
        assert stats.hits == hits + 1

    def test_other_sigma_is_another_table(self):
        hard = micro_distribution(r=1, t=2, k=2)
        assert exact_outcomes(hard) != exact_outcomes(hard, _sigma(hard, 3))

    def test_cache_disabled_gives_equal_analyses(self):
        hard = micro_distribution(r=1, t=3, k=2)
        cached = analyze_protocol(hard, SampledEdgesMatching(1), COINS, exact=True)
        configure_cache(enabled=False)
        try:
            assert exact_outcomes(hard) is not exact_outcomes(hard)
            uncached = analyze_protocol(
                hard, SampledEdgesMatching(1), COINS, exact=True
            )
        finally:
            configure_cache()
        assert uncached == cached

    def test_pickle_round_trip(self):
        outcomes = exact_outcomes(micro_distribution(r=1, t=3, k=2))
        again = pickle.loads(pickle.dumps(outcomes, protocol=pickle.HIGHEST_PROTOCOL))
        assert again == outcomes
        views = [view for outcome in again for view in _all_views(outcome)]
        assert len({id(v) for v in views}) == len(set(views))

    def test_disk_tier_round_trip(self, tmp_path):
        hard = micro_distribution(r=1, t=2, k=2)
        try:
            configure_cache(directory=tmp_path)
            stored = exact_outcomes(hard)
            loaded = configure_cache(directory=tmp_path)
            assert exact_outcomes(hard) == stored
            assert loaded.stats.disk_hits == 1
        finally:
            configure_cache()


class TestLemmaQuantityCache:
    @pytest.mark.parametrize("exact", [False, True])
    def test_quantities_equal_direct_recomputation(self, exact):
        hard = micro_distribution(r=1, t=3, k=2)
        a = analyze_protocol(hard, SampledEdgesMatching(1), COINS, exact=exact)
        dist = a.dist

        def expectation_over_j(a_vars, b_vars):
            total = 0.0
            for j in range(hard.t):
                p_j = dist.probability(J=j)
                if p_j > 0:
                    cond = dist.condition(J=j)
                    total += p_j * cond.mutual_information(a_vars(j), b_vars)
            return total

        assert [(j, p) for j, p, _ in a.conditionals] == [
            (j, dist.probability(J=j)) for j in range(hard.t)
        ]
        for j, _, cond in a.conditionals:
            assert cond.to_bytes() == dist.condition(J=j).to_bytes()
        assert a.information_revealed == expectation_over_j(
            a.m_vars, a.transcript_vars
        )
        assert a.public_entropy == dist.entropy(["PiP"])
        for i in range(hard.k):
            assert a.unique_information(i) == expectation_over_j(
                lambda j: [f"M_{i}_{j}"], [f"PiU_{i}"]
            )
            assert a.unique_entropy(i) == dist.entropy([f"PiU_{i}"])
        assert a.lemma34_rhs == a.public_entropy + sum(
            a.unique_information(i) for i in range(hard.k)
        )

    def test_l35_accessors_condition_at_most_t_times(self, monkeypatch):
        hard = micro_distribution(r=1, t=3, k=2)
        a = analyze_protocol(hard, SampledEdgesMatching(1), COINS, exact=True)
        calls = {"condition": 0, "entropy": 0, "mutual_information": 0}

        def counting(name):
            method = getattr(TableDistribution, name)

            def counted(self, *args, **kwargs):
                calls[name] += 1
                return method(self, *args, **kwargs)

            return counted

        for name in calls:
            monkeypatch.setattr(TableDistribution, name, counting(name))

        def read_l35():
            for i in range(hard.k):
                a.unique_information(i)
                a.unique_entropy(i)
                a.lemma35_holds(i)
            a.lemma35_all_hold()

        read_l35()
        first = dict(calls)
        read_l35()
        assert calls == first
        assert 0 < calls["condition"] <= hard.t
        # Lemmas 3.3 and 3.4 reuse the same conditionals.
        a.lemma33_holds()
        a.lemma34_holds()
        assert calls["condition"] == first["condition"]
