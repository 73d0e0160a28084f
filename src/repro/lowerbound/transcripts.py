"""Exact joint distributions of (J, M_{i,j}, Π) — Lemmas 3.3-3.5 as code.

For a micro :class:`~repro.lowerbound.params.HardDistribution` (k*t*r
indicator bits small enough to enumerate) and any concrete protocol with
fixed public coins (= a deterministic protocol, the averaging step of
the proof of Theorem 1), this module enumerates every (j*, subsampling
pattern) outcome, runs all public and unique players, runs the referee,
and assembles the *exact* joint distribution of

    J, { M_{i,j} }, Π(P), Π(U_1), ..., Π(U_k), O, |M^U_π|

conditioned on a fixed sigma (every lemma in the paper conditions on Σ,
so fixing it loses nothing).  On that distribution the three lemmas are
plain numerical statements:

* Lemma 3.3 (quantitative form extracted from its proof):
      I(M_{1,J},...,M_{k,J} ; Π | J)  >=  E|M^U_π| - Pr[err]·k·r - 1
* Lemma 3.4:
      I(M ; Π | J)  <=  H(Π(P)) + Σ_i I(M_{i,J} ; Π(U_i) | J)
* Lemma 3.5:
      I(M_{i,J} ; Π(U_i) | J)  <=  H(Π(U_i)) / t

The checkers below compute both sides of each, for any protocol.

The enumeration is split in two.  :func:`exact_outcomes` builds the
protocol-independent part once per (hard, σ): every outcome's player
views, special slots and G, with equal values interned, and each copy's
unique views read from that copy's :func:`copy_outcomes` table.  Each
:func:`analyze_protocol` call then does only protocol work, on small-int
codes keyed by those interned objects: one ``sketch`` per distinct view,
one ``decode`` per distinct referee transcript and one maximality check
per distinct (G, transcript).  Views repeat across outcomes because a
view depends on only a few indicator bits — the locality Lemma 3.5
rests on.

Lemma 3.5 needs less than the full joint.  Π(U_i) reads only j*, σ and
copy i's indicator row, so :func:`copy_outcomes` holds copy i's
t·2^(t·r) (j*, row) outcomes, and :func:`analyze_copies` builds one
exact table per copy over (J, M_{i,0..t-1}, Π(U_i)).  In exact
arithmetic that table *is* the full joint's marginal on those
variables, so every Lemma 3.5 quantity comes out bit-identical to
:func:`analyze_protocol` in exact mode, at t·2^(t·r) outcomes per copy
instead of t·2^(k·t·r).  Float mode keeps the full enumeration: the two
tables round differently there.  Lemma 3.3, H(Π(P)) and Lemma 3.4 need
the full joint, because public players see every copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain

from ..engine import construction_cache
from ..graphs import Edge, FrozenGraph, is_maximal_matching, normalize_edge
from ..infotheory import Codebook, JointDistribution, TableBuilder, TableDistribution
from ..model import PublicCoins, SketchProtocol, VertexView
from .distribution import (
    DMMInstance,
    IndicatorTable,
    enumerate_indicator_rows,
    enumerate_indicator_tables,
    identity_sigma,
)
from .params import HardDistribution
from .players import copy_player_views, public_player_views


@dataclass(frozen=True)
class ExactOutcome:
    """One (j*, indicator table) outcome under a fixed σ: everything the
    protocol loop reads, nothing protocol-specific.

    Equal views, view groups, slot sets and graphs are shared objects
    across the outcomes of one :func:`exact_outcomes` table, so the
    enumeration's memos key on their identity.
    """

    j_star: int
    indicators: IndicatorTable
    public: tuple[VertexView, ...]  # public players, in label order
    unique: tuple[tuple[VertexView, ...], ...]  # per copy, in RS-vertex order
    referee: tuple[VertexView, ...]  # the ordinary model's players, label order
    slots: frozenset[Edge]  # M^RS_{i,j*} of every copy i
    graph: FrozenGraph


def exact_outcomes(
    hard: HardDistribution, sigma: tuple[int, ...] | None = None
) -> tuple[ExactOutcome, ...]:
    """Every (j*, indicator table) outcome of ``hard`` under ``sigma``,
    j*-major in :func:`enumerate_indicator_tables` order.

    Copy i's unique views read only j* and copy i's row, so they are
    looked up in its :func:`copy_outcomes` table rather than rebuilt per
    outcome; the public views come from each outcome's graph.  The
    referee gets the public players plus the unique players of genuinely
    unique vertices (what
    :func:`~repro.lowerbound.players.vertex_player_views` reconstructs
    from a :func:`~repro.lowerbound.players.player_split`).  The table is
    a pure function of ``(hard, sigma)``, so it lives in the engine's
    construction cache: every protocol analysed on the same micro
    instance shares one table.  ``sigma`` defaults to the identity
    permutation.
    """
    if sigma is None:
        sigma = identity_sigma(hard)
    sigma = tuple(sigma)

    def build() -> tuple[ExactOutcome, ...]:
        # One pool for every kind of value: views, groups, slot sets and
        # graphs of different types never compare equal.
        pool: dict = {}

        def intern(value):
            return pool.setdefault(value, value)

        def views(by_key: dict) -> tuple[VertexView, ...]:
            # In key order: label order.
            return intern(tuple(intern(by_key[key]) for key in sorted(by_key)))

        # Copy i's view group (RS-vertex order) by (j*, copy i's row).
        unique_groups = [
            {
                (o.j_star, o.row): intern(tuple(map(intern, o.unique)))
                for o in copy_outcomes(hard, i, sigma)
            }
            for i in range(hard.k)
        ]
        tables = list(enumerate_indicator_tables(hard))
        outcomes = []
        for j_star in range(hard.t):
            for table in tables:
                instance = DMMInstance(
                    hard=hard, j_star=j_star, sigma=sigma, indicators=table
                )
                public = public_player_views(instance)
                unique = tuple(
                    groups[j_star, row] for groups, row in zip(unique_groups, table)
                )
                # A unique player holding a public vertex's copy is
                # ignored (its label is already a public key); unique
                # labels are distinct across copies.
                referee = dict(public)
                for group in unique:
                    for view in group:
                        referee.setdefault(view.vertex, view)
                slots = frozenset(
                    pair
                    for i in range(hard.k)
                    for pair in instance.special_slot_pairs(i)
                )
                outcomes.append(
                    ExactOutcome(
                        j_star=j_star,
                        indicators=table,
                        public=views(public),
                        unique=unique,
                        referee=views(referee),
                        slots=intern(slots),
                        graph=intern(instance.graph),
                    )
                )
        return tuple(outcomes)

    return construction_cache().get_or_build(
        ("exact-outcomes", hard.cache_token, sigma), build
    )


@dataclass(frozen=True)
class CopyOutcome:
    """One (j*, copy-i indicator row) outcome under a fixed σ: copy i's
    unique players, the only players whose messages Lemma 3.5 reads."""

    j_star: int
    row: tuple[int, ...]  # copy i's t indicator masks
    unique: tuple[VertexView, ...]  # copy i's unique players, RS-vertex order


def copy_outcomes(
    hard: HardDistribution, i: int, sigma: tuple[int, ...] | None = None
) -> tuple[CopyOutcome, ...]:
    """Every (j*, copy-i indicator row) outcome of ``hard`` under
    ``sigma``: t·2^(t·r) of them, j*-major in
    :func:`~repro.lowerbound.distribution.enumerate_indicator_rows` order.

    Copy i's views read only its own row
    (:func:`~repro.lowerbound.players.copy_player_views`), so the other
    copies' rows are left empty.  Equal views and view groups are
    interned.  Like :func:`exact_outcomes` the table is cached per
    ``(hard, i, sigma)``, so every protocol shares it.
    """
    if not 0 <= i < hard.k:
        raise ValueError("copy index out of range")
    if sigma is None:
        sigma = identity_sigma(hard)
    sigma = tuple(sigma)

    def build() -> tuple[CopyOutcome, ...]:
        pool: dict = {}

        def intern(value):
            return pool.setdefault(value, value)

        empty = ((0,) * hard.t,) * hard.k
        outcomes = []
        for j_star in range(hard.t):
            for row in enumerate_indicator_rows(hard):
                instance = DMMInstance(
                    hard=hard,
                    j_star=j_star,
                    sigma=sigma,
                    indicators=empty[:i] + (row,) + empty[i + 1 :],
                )
                views = copy_player_views(instance, i)
                outcomes.append(
                    CopyOutcome(
                        j_star=j_star,
                        row=row,
                        unique=intern(
                            tuple(intern(views[v]) for v in sorted(views))
                        ),
                    )
                )
        return tuple(outcomes)

    return construction_cache().get_or_build(
        ("copy-outcomes", hard.cache_token, i, sigma), build
    )


def _conditionals_on_j(dist, t: int) -> tuple:
    """``(j, Pr[J = j], dist | J = j)`` for every j of positive mass."""
    out = []
    for j in range(t):
        p_j = dist.probability(J=j)
        if p_j > 0:
            out.append((j, p_j, dist.condition(J=j)))
    return tuple(out)


def _information_given_j(conditionals, a_vars, b_vars: list[str]) -> float:
    """E_j I(a_vars(j) ; b_vars | J = j) over precomputed conditionals."""
    total = 0.0
    for j, p_j, cond in conditionals:
        total += p_j * cond.mutual_information(a_vars(j), b_vars)
    return total


def _lemma35_information(conditionals, i: int) -> float:
    """I(M_{i,J} ; Π(U_i) | Σ, J), the left side of Lemma 3.5."""
    return _information_given_j(conditionals, lambda j: [f"M_{i}_{j}"], [f"PiU_{i}"])


class _Lemma35:
    """Lemma 3.5's inequality, for an analysis with ``hard``,
    ``unique_information(i)`` and ``unique_entropy(i)``."""

    def lemma35_holds(self, i: int) -> bool:
        return (
            self.unique_information(i)
            <= self.unique_entropy(i) / self.hard.t + 1e-6
        )

    def lemma35_all_hold(self) -> bool:
        return all(self.lemma35_holds(i) for i in range(self.hard.k))


@dataclass(frozen=True)
class ExactAnalysis(_Lemma35):
    """The exact joint distribution plus derived lemma quantities.

    :func:`analyze_protocol` always builds ``dist`` as a columnar
    :class:`TableDistribution`; there is no ``kernel=`` switch.  Every
    lemma quantity below reads ``dist`` through the API the dict
    :class:`JointDistribution` oracle shares, so a comparison builds the
    oracle over the table's rows where it is made:
    ``replace(a, dist=JointDistribution(a.dist.variables, a.dist.pmf))``.
    In exact mode ``expected_mu`` and ``error_probability`` are
    :class:`~fractions.Fraction`.
    """

    hard: HardDistribution
    dist: TableDistribution | JointDistribution
    expected_mu: float | Fraction  # E |M^U_π|
    error_probability: float | Fraction  # Pr[output not maximal matching]
    worst_case_bits: int  # max message length over players and outcomes

    # ------------------------------------------------------------------
    # Variable-name helpers
    # ------------------------------------------------------------------
    def m_vars(self, j: int) -> list[str]:
        return [f"M_{i}_{j}" for i in range(self.hard.k)]

    @property
    def transcript_vars(self) -> list[str]:
        return ["PiP"] + [f"PiU_{i}" for i in range(self.hard.k)]

    # ------------------------------------------------------------------
    # Conditionals on J, built once
    # ------------------------------------------------------------------
    @cached_property
    def conditionals(self) -> tuple:
        """``(j, Pr[J = j], dist | J = j)`` for every j of positive mass.

        Every conditional quantity below is an expectation over J, so
        the t conditionals are built once and shared by all of them.
        """
        return _conditionals_on_j(self.dist, self.hard.t)

    # ------------------------------------------------------------------
    # Lemma 3.3
    # ------------------------------------------------------------------
    @cached_property
    def information_revealed(self) -> float:
        """I(M_{1,J},...,M_{k,J} ; Π | Σ, J), computed as E_j of the
        conditional mutual information given J = j."""
        return _information_given_j(
            self.conditionals, self.m_vars, self.transcript_vars
        )

    @property
    def lemma33_implied_bound(self) -> float:
        """The proof's quantitative RHS: E|M^U| - Pr[err]·k·r - 1."""
        kr = self.hard.k * self.hard.r
        return self.expected_mu - self.error_probability * kr - 1.0

    def lemma33_holds(self) -> bool:
        return self.information_revealed >= self.lemma33_implied_bound - 1e-6

    # ------------------------------------------------------------------
    # Lemma 3.4
    # ------------------------------------------------------------------
    @cached_property
    def public_entropy(self) -> float:
        """H(Π(P))."""
        return self.dist.entropy(["PiP"])

    @cached_property
    def _unique_information(self) -> tuple[float, ...]:
        return tuple(
            _lemma35_information(self.conditionals, i) for i in range(self.hard.k)
        )

    def unique_information(self, i: int) -> float:
        """I(M_{i,J} ; Π(U_i) | Σ, J), computed once per copy."""
        return self._unique_information[i]

    @property
    def lemma34_lhs(self) -> float:
        return self.information_revealed

    @cached_property
    def lemma34_rhs(self) -> float:
        return self.public_entropy + sum(
            self.unique_information(i) for i in range(self.hard.k)
        )

    def lemma34_holds(self) -> bool:
        return self.lemma34_lhs <= self.lemma34_rhs + 1e-6

    # ------------------------------------------------------------------
    # Lemma 3.5
    # ------------------------------------------------------------------
    @cached_property
    def _unique_entropy(self) -> tuple[float, ...]:
        return tuple(self.dist.entropy([f"PiU_{i}"]) for i in range(self.hard.k))

    def unique_entropy(self, i: int) -> float:
        """H(Π(U_i)), computed once per copy."""
        return self._unique_entropy[i]

    # ------------------------------------------------------------------
    # Theorem 1 algebra on the measured quantities
    # ------------------------------------------------------------------
    @property
    def capacity_upper_bound(self) -> float:
        """The proof's capacity bound |P|·b + (k·N/t)·b at the protocol's
        measured worst-case message length b."""
        hd = self.hard
        return self.worst_case_bits * (hd.num_public + hd.k * hd.N / hd.t)


def _by_identity(make):
    """``make`` memoised by object identity.

    The outcome tables intern equal views, view groups, graphs and
    indicator tables, so one entry per object is one entry per distinct
    value, and no value is hashed.  Each entry keeps its object alive,
    so no id is reused while the memo lives; a table that did not intern
    would cost more calls, never a different result.
    """
    memo: dict[int, tuple] = {}

    def call(obj):
        hit = memo.get(id(obj))
        if hit is None:
            hit = memo[id(obj)] = (obj, make(obj))
        return hit[1]

    return call


def _message_codes(protocol: SketchProtocol, coins: PublicCoins):
    """``codes(group)``, a view group's messages as codes of ``messages``.

    A message is a function of the player's view and the public coins
    (§2.1), so ``protocol.sketch`` runs once per distinct view, and
    equal messages share one code.  A view is looked up by value once
    per view object: the k :func:`copy_outcomes` tables intern apart, so
    an equal view may be another object in another copy's table.
    """
    messages = Codebook()
    sketched: dict[VertexView, int] = {}

    def sketch(view: VertexView) -> int:
        code = sketched.get(view)
        if code is None:
            code = sketched[view] = messages.intern(protocol.sketch(view, coins))
        return code

    code = _by_identity(sketch)
    return _by_identity(lambda group: tuple(map(code, group))), messages


def _group_column(book: Codebook, codes, messages: Codebook):
    """``column(group)``, the code in ``book`` of a view group's message
    tuple: the tuple is hashed once per distinct group."""
    return _by_identity(
        lambda group: book.intern(tuple(map(messages.value, codes(group))))
    )


def analyze_protocol(
    hard: HardDistribution,
    protocol: SketchProtocol,
    coins: PublicCoins,
    sigma: tuple[int, ...] | None = None,
    *,
    exact: bool = False,
) -> ExactAnalysis:
    """Enumerate the joint distribution of one deterministic protocol.

    ``coins`` fixes the public randomness (Yao averaging); ``sigma``
    defaults to the identity permutation.  The outcomes come from the
    shared :func:`exact_outcomes` table; this call only runs the
    protocol.  A message is a function of the player's view and the
    coins, and the referee's output of the transcript and the coins
    (§2.1), so ``protocol.sketch`` runs once per distinct view,
    ``protocol.decode`` once per distinct referee transcript, and
    :func:`~repro.graphs.is_maximal_matching` once per distinct (G,
    referee transcript).

    Each outcome streams into :class:`TableBuilder` as a row of integer
    codes: equal messages share a code, a view group's messages are a
    tuple of codes, and the memos are keyed by those ints or by the
    table's interned objects, so no view, message or message tuple is
    hashed per outcome.  ``exact`` counts outcomes: each has weight 1
    over the t · 2^(k·t·r) total, so the table's probabilities are exact
    rationals, and ``expected_mu`` and ``error_probability`` are integer
    sums divided once into a :class:`~fractions.Fraction` — no float
    rounding reaches the lemma inputs.  Float mode sums each outcome's
    mass ``1 / (t · 2^(k·t·r))``.
    """
    k, t, n = hard.k, hard.t, hard.n
    outcomes = exact_outcomes(hard, sigma)

    m_names = [f"M_{i}_{j}" for i in range(k) for j in range(t)]
    names = ["J", *m_names, "PiP", *[f"PiU_{i}" for i in range(k)], "O", "MU"]

    builder = TableBuilder(names, exact=exact)
    books = builder.codebooks
    j_book, m_books = books[0], books[1 : 1 + k * t]
    o_book, mu_book = books[-2:]
    # Exact mode counts outcomes; float mode adds each outcome's mass,
    # and the stored float results pin that order of additions.
    prob, zero = (1, 0) if exact else (1.0 / len(outcomes), 0.0)
    expected_mu = error_prob = zero

    codes, messages = _message_codes(protocol, coins)
    public = _group_column(books[1 + k * t], codes, messages)
    unique = [_group_column(book, codes, messages) for book in books[2 + k * t : -2]]
    indicators = _by_identity(
        lambda table: tuple(map(Codebook.intern, m_books, chain.from_iterable(table)))
    )
    # Referee transcripts, as tuples of message codes.
    transcripts = Codebook()
    referee = _by_identity(lambda group: transcripts.intern(codes(group)))
    outputs: dict[int, tuple[tuple[Edge, ...], frozenset[Edge]]] = {}
    # (id(G), transcript) -> maximal; the table holds every G meanwhile.
    verdicts: dict[tuple[int, int], bool] = {}

    for outcome in outcomes:
        # Referee: the ordinary-model players (Remark: extra copies of
        # public vertices are ignored), plus free (sigma, j*).
        transcript = referee(outcome.referee)
        decoded = outputs.get(transcript)
        if decoded is None:
            sketches = {
                view.vertex: messages.value(code)
                for view, code in zip(outcome.referee, transcripts.value(transcript))
            }
            output = tuple(protocol.decode(n, sketches, coins))
            # Correctness reads the raw pairs, as the adversary's
            # score_matching does: a self-loop or a pair given twice
            # makes the output invalid.  Only proper pairs can hit a slot.
            decoded = outputs[transcript] = (
                output,
                frozenset(normalize_edge(u, v) for u, v in output if u != v),
            )
        output_pairs, slot_pairs = decoded
        key = (id(outcome.graph), transcript)
        correct = verdicts.get(key)
        if correct is None:
            correct = verdicts[key] = is_maximal_matching(outcome.graph, output_pairs)
        mu = len(slot_pairs & outcome.slots)

        expected_mu += prob * mu
        if not correct:
            error_prob += prob

        # Every (j*, indicator table) pair is a distinct row (the
        # indicators are part of the outcome), so rows stream in with
        # uniform weight and merge trivially at build().
        builder.append(
            (
                j_book.intern(outcome.j_star),
                *indicators(outcome.indicators),
                public(outcome.public),
                *[column(group) for column, group in zip(unique, outcome.unique)],
                o_book.intern(1 if correct else 0),
                mu_book.intern(mu),
            ),
            prob,
        )

    # Every referee view is also a public or unique player's view, so
    # the codebook holds exactly the messages of the Section 3.1 players.
    worst_bits = max((m.num_bits for m in messages.values), default=0)
    if exact:
        expected_mu = Fraction(expected_mu, len(outcomes))
        error_prob = Fraction(error_prob, len(outcomes))
    return ExactAnalysis(
        hard=hard,
        dist=builder.build(normalize=exact),
        expected_mu=expected_mu,
        error_probability=error_prob,
        worst_case_bits=worst_bits,
    )


@dataclass(frozen=True)
class CopyAnalysis(_Lemma35):
    """Lemma 3.5 one copy at a time, in exact arithmetic.

    ``tables[i]`` is the exact joint of (J, M_{i,0..t-1}, Π(U_i)) over
    copy i's t·2^(t·r) outcomes, each of mass 1/(t·2^(t·r)): the full
    joint's marginal on those variables, exactly.  The Lemma 3.5
    quantities use :class:`ExactAnalysis`'s own E_j formula, so they
    equal its exact-mode values bit for bit.
    """

    hard: HardDistribution
    tables: tuple[TableDistribution, ...]

    @cached_property
    def _unique_information(self) -> tuple[float, ...]:
        return tuple(
            _lemma35_information(_conditionals_on_j(table, self.hard.t), i)
            for i, table in enumerate(self.tables)
        )

    def unique_information(self, i: int) -> float:
        """I(M_{i,J} ; Π(U_i) | Σ, J), from copy i's table."""
        return self._unique_information[i]

    @cached_property
    def _unique_entropy(self) -> tuple[float, ...]:
        return tuple(
            table.entropy([f"PiU_{i}"]) for i, table in enumerate(self.tables)
        )

    def unique_entropy(self, i: int) -> float:
        """H(Π(U_i)), from copy i's table."""
        return self._unique_entropy[i]


def analyze_copies(
    hard: HardDistribution,
    protocol: SketchProtocol,
    coins: PublicCoins,
    sigma: tuple[int, ...] | None = None,
) -> CopyAnalysis:
    """Exact Lemma 3.5 tables of one deterministic protocol, per copy.

    Each copy's outcomes come from the shared :func:`copy_outcomes`
    table; ``protocol.sketch`` runs once per distinct view across all
    copies.  The tables are exact, each outcome counted once: the
    per-copy table equals the full joint's marginal only in exact
    arithmetic.
    """
    t = hard.t
    codes, messages = _message_codes(protocol, coins)
    tables = []
    for i in range(hard.k):
        names = ["J", *[f"M_{i}_{j}" for j in range(t)], f"PiU_{i}"]
        builder = TableBuilder(names, exact=True)
        *books, unique_book = builder.codebooks
        unique = _group_column(unique_book, codes, messages)
        for outcome in copy_outcomes(hard, i, sigma):
            values = (outcome.j_star, *outcome.row)
            builder.append(
                (*map(Codebook.intern, books, values), unique(outcome.unique)), 1
            )
        tables.append(builder.build(normalize=True))
    return CopyAnalysis(hard=hard, tables=tuple(tables))
