"""The MM -> MIS reduction of Section 4 (Theorem 2, Lemma 4.1).

Given G ~ D_MM on n vertices, the players build H on 2n vertices:

* two disjoint copies of G — vertex u becomes u^l (label u) and u^r
  (label u + n);
* a public biclique across the copies: an edge (u^l, v^r) for *every*
  pair of public vertices u, v (including u = v), which is what forces
  any correct MIS of H to miss at least one side's public block
  entirely.

Each original player simulates both of its copies (2b bits), runs any
MIS sketching protocol on H, and the referee — who knows sigma and j*
for free (Remark 3.6) — converts the returned MIS S into a matching of
G via Lemma 4.1: on a side whose public block avoids S, a special slot
(u, v) survived the subsampling **iff** not both copies of u, v are in S.

Side selection: the paper's step (4) picks the larger of M^l, M^r.  Both
sides always *contain* the survivors (the easy direction of Lemma 4.1
is unconditional), but only a side with empty public intersection is
exact — so this module defaults to selecting a clean side (which the
referee can test directly, knowing the public labels), and offers the
paper's size rule for comparison.  Experiment T2 reports both.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..graphs import Edge, FrozenGraph, normalize_edge
from ..model import PublicCoins, SketchProtocol, run_protocol
from .distribution import DMMInstance


class SideRule(Enum):
    """How the referee picks between the left and right decodes."""

    EMPTY_PUBLIC = "empty-public"  # pick a side whose public block misses S
    LARGER = "larger"  # the paper's |M^l| >= |M^r| rule


def build_reduction_graph(instance: DMMInstance) -> FrozenGraph:
    """H: two copies of G plus the public cross-biclique.

    Frozen, so the MIS protocols run on it through the batched sketch
    path.  Each row is assembled whole: u's left row is G's row of u,
    its right row the same shifted by n, and a public u additionally
    sees the other side's whole public block.
    """
    n = instance.hard.n
    g = instance.graph
    public = instance.public_labels
    left_block = sorted(public)
    right_block = [v + n for v in left_block]
    rows: dict[int, list[int]] = {}
    for u in range(n):
        row = list(g.neighbors_sorted(u))
        shifted = [v + n for v in row]
        if u in public:
            row += right_block
            shifted += left_block
        rows[u] = row
        rows[u + n] = shifted
    return FrozenGraph.from_neighbor_lists(rows)


def left_public(instance: DMMInstance) -> frozenset[int]:
    """Labels of P^l: the left copy of the public block in H."""
    return instance.public_labels


def right_public(instance: DMMInstance) -> frozenset[int]:
    """Labels of P^r: the right copy (shifted by n) of the public block."""
    n = instance.hard.n
    return frozenset(v + n for v in instance.public_labels)


def _side_decode(instance: DMMInstance, mis: set[int], offset: int) -> set[Edge]:
    """M^side: special slots (u, v) with not both copies in the MIS."""
    out: set[Edge] = set()
    for i in range(instance.hard.k):
        for u, v in instance.special_slot_pairs(i):
            if not (u + offset in mis and v + offset in mis):
                out.add(normalize_edge(u, v))
    return out


@dataclass(frozen=True)
class ReductionDecode:
    """The referee's full decode record."""

    matching: set[Edge]
    side: str  # "left" or "right"
    left_clean: bool  # S ∩ P^l == ∅
    right_clean: bool
    left_size: int
    right_size: int


def decode_matching_from_mis(
    instance: DMMInstance,
    mis: set[int],
    rule: SideRule = SideRule.EMPTY_PUBLIC,
) -> ReductionDecode:
    """Steps (3)-(4) of the reduction: MIS of H -> matching of G."""
    left = _side_decode(instance, mis, offset=0)
    right = _side_decode(instance, mis, offset=instance.hard.n)
    left_clean = not (mis & left_public(instance))
    right_clean = not (mis & right_public(instance))

    if rule is SideRule.LARGER:
        pick_left = len(left) >= len(right)
    else:
        if left_clean and not right_clean:
            pick_left = True
        elif right_clean and not left_clean:
            pick_left = False
        elif left_clean and right_clean:
            pick_left = len(left) <= len(right)  # both exact; either works
        else:
            pick_left = len(left) >= len(right)  # MIS was invalid; best effort

    return ReductionDecode(
        matching=left if pick_left else right,
        side="left" if pick_left else "right",
        left_clean=left_clean,
        right_clean=right_clean,
        left_size=len(left),
        right_size=len(right),
    )


@dataclass(frozen=True)
class Lemma41Check:
    """Exact verification of Lemma 4.1 on one (instance, MIS) pair."""

    side: str
    premise_holds: bool  # S ∩ P^side == ∅
    easy_direction_holds: bool  # survived => not both in S (unconditional)
    hard_direction_holds: bool  # not both in S => survived (needs premise)

    @property
    def iff_holds(self) -> bool:
        return self.easy_direction_holds and self.hard_direction_holds


def check_lemma41(
    instance: DMMInstance, mis: set[int], side: str
) -> Lemma41Check:
    """Check both directions of Lemma 4.1 for one side."""
    offset = 0 if side == "left" else instance.hard.n
    public = left_public(instance) if side == "left" else right_public(instance)
    premise = not (mis & public)

    easy = True
    hard = True
    for i in range(instance.hard.k):
        mask = instance.indicators[i][instance.j_star]
        pairs = instance.special_slot_pairs(i)
        for e, (u, v) in enumerate(pairs):
            survived = bool((mask >> e) & 1)
            both_in = (u + offset) in mis and (v + offset) in mis
            if survived and both_in:
                easy = False
            if not survived and not both_in:
                hard = False
    return Lemma41Check(
        side=side,
        premise_holds=premise,
        easy_direction_holds=easy,
        hard_direction_holds=hard,
    )


@dataclass(frozen=True)
class ReductionRun:
    """Result of driving an MIS protocol through the full reduction."""

    decode: ReductionDecode
    mis_output: set[int]
    per_player_bits: int  # max over original players of their 2 messages
    recovered_all_survivors: bool
    output_is_exactly_survivors: bool


def run_reduction(
    instance: DMMInstance,
    mis_protocol: SketchProtocol,
    coins: PublicCoins,
    rule: SideRule = SideRule.EMPTY_PUBLIC,
) -> ReductionRun:
    """Build H, run the MIS protocol (each player simulating both of its
    copies), decode the matching, and score it against the survivors."""
    n = instance.hard.n
    h = build_reduction_graph(instance)
    run = run_protocol(h, mis_protocol, coins, n=2 * n)
    mis = set(run.output)
    decode = decode_matching_from_mis(instance, mis, rule=rule)

    # Cost accounting: original player u sent the messages of u and u+n.
    per_player = 0
    sketches = run.transcript.sketches
    for u in range(n):
        bits = sketches[u].num_bits + sketches[u + n].num_bits
        per_player = max(per_player, bits)

    survivors = instance.union_special_matching
    return ReductionRun(
        decode=decode,
        mis_output=mis,
        per_player_bits=per_player,
        recovered_all_survivors=survivors <= decode.matching,
        output_is_exactly_survivors=decode.matching == survivors,
    )
