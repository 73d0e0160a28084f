"""Adversary harness: run real protocols against D_MM and measure failure.

Theorem 1 cannot be "run", but its prediction can: any bounded-sketch
protocol's success probability on G ~ D_MM stays low until the sketch
budget reaches the scale of the special matchings.  This harness

* samples instances, runs a protocol in the *original* vertex-player
  model, and scores the output under both the strict task (valid maximal
  matching / MIS of G) and the relaxed task of Remark 3.6(iv) (a valid
  matching with >= k*r/4 unique-unique edges, maximal or not);
* records the realized communication cost per run, so the sweep plots
  success against measured bits, not against a nominal knob;
* labels each run's transcript telemetry with the instance's player
  roles (public / unique / special, :meth:`DMMInstance.player_roles`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine import ExecutionEngine, derive_seed, resolve_engine
from ..graphs import (
    is_maximal_independent_set,
    is_maximal_matching,
    is_valid_matching,
    is_vertex_cover,
    matched_vertices,
)
from ..infotheory import TableDistribution
from ..model import PublicCoins, SketchProtocol, run_protocol
from .claims import count_unique_unique
from .distribution import DMMInstance, sample_dmm_family
from .params import HardDistribution


@dataclass(frozen=True)
class AttackResult:
    """Aggregated performance of one protocol over sampled instances."""

    protocol_name: str
    trials: int
    strict_successes: int
    relaxed_successes: int
    mean_unique_unique: float
    max_bits: int  # worst message over all players and trials
    mean_bits: float  # mean over trials of the per-player average

    @property
    def strict_success_rate(self) -> float:
        return self.strict_successes / self.trials

    @property
    def relaxed_success_rate(self) -> float:
        return self.relaxed_successes / self.trials


def matching_strict_check(instance: DMMInstance, output) -> bool:
    """The paper's primary task: a valid maximal matching of G."""
    return is_maximal_matching(instance.graph, output)


def matching_relaxed_check(instance: DMMInstance, output) -> bool:
    """Remark 3.6(iv): a valid matching with >= k*r/4 unique-unique edges."""
    if not is_valid_matching(instance.graph, output):
        return False
    return count_unique_unique(instance, output) >= instance.hard.claim31_threshold


def score_matching(instance: DMMInstance, output) -> tuple[bool, bool, int]:
    """Strict success, relaxed success and unique-unique edge count of
    one output, from a single validity check.

    Agrees with :func:`matching_strict_check`, :func:`matching_relaxed_check`
    and :func:`~repro.lowerbound.claims.count_unique_unique`; an invalid
    matching (a self-loop pair included) scores ``(False, False, 0)``.
    Strictness is the cover test :func:`~repro.graphs.is_maximal_matching`
    applies after its own validity check.
    """
    edges = list(output)
    graph = instance.graph
    if not is_valid_matching(graph, edges):
        return False, False, 0
    unique = count_unique_unique(instance, edges)
    strict = is_vertex_cover(graph, matched_vertices(edges))
    return strict, unique >= instance.hard.claim31_threshold, unique


def mis_strict_check(instance: DMMInstance, output) -> bool:
    """The MIS task: output is a maximal independent set of G."""
    return is_maximal_independent_set(instance.graph, output)


def attack_with_matching_protocol(
    hard: HardDistribution,
    protocol: SketchProtocol,
    trials: int,
    seed: int = 0,
    engine: ExecutionEngine | None = None,
) -> AttackResult:
    """Run a matching protocol against fresh D_MM samples."""
    return _attack(hard, protocol, trials, seed, mis=False, engine=engine)


def attack_with_mis_protocol(
    hard: HardDistribution,
    protocol: SketchProtocol,
    trials: int,
    seed: int = 0,
    engine: ExecutionEngine | None = None,
) -> AttackResult:
    """Run an MIS protocol against fresh D_MM samples (strict task only;
    the relaxed column then reports strict as well)."""
    return _attack(hard, protocol, trials, seed, mis=True, engine=engine)


def _attack_trial(item: tuple) -> tuple[bool, bool, float, int, float]:
    """Score one attack trial (module-level so process pools can run it)."""
    instance, coins_seed, protocol, mis = item
    run = run_protocol(
        instance.graph,
        protocol,
        PublicCoins(seed=coins_seed),
        n=instance.hard.n,
        roles=instance.player_roles,
    )
    if mis:
        strict = relaxed = mis_strict_check(instance, run.output)
        unique = 0.0
    else:
        strict, relaxed, unique = score_matching(instance, run.output)
    return strict, relaxed, float(unique), run.max_bits, run.transcript.average_bits


def _attack(hard, protocol, trials, seed, mis, engine=None) -> AttackResult:
    if trials <= 0:
        raise ValueError("trials must be positive")
    engine = resolve_engine(engine)
    # The instance family is content-addressed: every attack over the
    # same (hard, trials, seed) — e.g. each knob of a budget sweep —
    # shares one sampled family.  Coin seeds are hash-derived per trial,
    # independent of the protocol, so knob points stay comparable.
    instances = sample_dmm_family(hard, trials, seed)
    items = [
        (instance, derive_seed(seed, "attack-coins", trial), protocol, mis)
        for trial, instance in enumerate(instances)
    ]
    outcomes = engine.map(_attack_trial, items)
    strict_ok = sum(o[0] for o in outcomes)
    relaxed_ok = sum(o[1] for o in outcomes)
    unique_total = sum(o[2] for o in outcomes)
    max_bits = max((o[3] for o in outcomes), default=0)
    bits_total = sum(o[4] for o in outcomes)
    return AttackResult(
        protocol_name=protocol.name,
        trials=trials,
        strict_successes=strict_ok,
        relaxed_successes=relaxed_ok,
        mean_unique_unique=unique_total / trials,
        max_bits=max_bits,
        mean_bits=bits_total / trials,
    )


def _information_trial(item: tuple) -> tuple[int, tuple]:
    """One (J, Π) sample (module-level so process pools can run it)."""
    instance, coins_seed, protocol = item
    run = run_protocol(
        instance.graph,
        protocol,
        PublicCoins(seed=coins_seed),
        n=instance.hard.n,
        roles=instance.player_roles,
    )
    transcript = tuple(
        run.transcript.sketches[v] for v in sorted(run.transcript.sketches)
    )
    return instance.j_star, transcript


def empirical_information(
    hard: HardDistribution,
    protocol: SketchProtocol,
    trials: int,
    seed: int = 0,
    engine: ExecutionEngine | None = None,
) -> float:
    """Plug-in estimate of I(J ; Π) — the Monte-Carlo face of Lemma 3.3.

    Samples (special index, full transcript) pairs from D_MM runs of the
    protocol and computes mutual information on the empirical columnar
    :class:`TableDistribution` (transcript message tuples are interned
    once into codebook entries, so the estimate scales with the number
    of *distinct* transcripts, not with ``trials``).
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    engine = resolve_engine(engine)
    instances = sample_dmm_family(hard, trials, seed)
    items = [
        (instance, derive_seed(seed, "attack-coins", trial), protocol)
        for trial, instance in enumerate(instances)
    ]
    samples = engine.map(_information_trial, items)
    dist = TableDistribution.from_samples(("J", "Pi"), samples)
    return dist.mutual_information(["J"], ["Pi"])


@dataclass(frozen=True)
class SweepPoint:
    """One point of a budget sweep: knob value -> attack result."""

    knob: int
    result: AttackResult


def budget_sweep(
    hard: HardDistribution,
    make_protocol,
    knobs: list[int],
    trials: int,
    seed: int = 0,
    mis: bool = False,
    engine: ExecutionEngine | None = None,
) -> list[SweepPoint]:
    """Sweep a protocol-family knob (e.g. edges per vertex) against D_MM.

    Every knob point attacks the *same* cached instance family with the
    same per-trial coins, so the sweep isolates the knob's effect.
    """
    attack = attack_with_mis_protocol if mis else attack_with_matching_protocol
    return [
        SweepPoint(
            knob=knob,
            result=attack(hard, make_protocol(knob), trials, seed, engine=engine),
        )
        for knob in knobs
    ]


def _adaptive_attack_trial(item: tuple) -> tuple[bool, bool, float, int, float]:
    """Score one adaptive-attack trial (module-level for process pools)."""
    from ..model import run_adaptive_protocol

    instance, coins_seed, protocol = item
    run = run_adaptive_protocol(
        instance.graph,
        protocol,
        PublicCoins(seed=coins_seed),
        n=instance.hard.n,
        roles=instance.player_roles,
    )
    strict, relaxed, unique = score_matching(instance, run.output)
    return strict, relaxed, float(unique), run.max_bits, float(run.max_bits)


def attack_with_adaptive_matching(
    hard: HardDistribution,
    protocol,
    trials: int,
    seed: int = 0,
    engine: ExecutionEngine | None = None,
) -> AttackResult:
    """Run an *adaptive* (multi-round) matching protocol against D_MM.

    The paper's §1.1 remark — one extra round of sketching collapses the
    bound to O(sqrt n) — is only meaningful if the adaptive protocol
    actually beats one-round protocols *on the hard family*; this runner
    measures exactly that (cost = worst-case total bits per player
    across rounds).
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    engine = resolve_engine(engine)
    instances = sample_dmm_family(hard, trials, seed)
    items = [
        (instance, derive_seed(seed, "attack-coins", trial), protocol)
        for trial, instance in enumerate(instances)
    ]
    outcomes = engine.map(_adaptive_attack_trial, items)
    return AttackResult(
        protocol_name=protocol.name,
        trials=trials,
        strict_successes=sum(o[0] for o in outcomes),
        relaxed_successes=sum(o[1] for o in outcomes),
        mean_unique_unique=sum(o[2] for o in outcomes) / trials,
        max_bits=max((o[3] for o in outcomes), default=0),
        mean_bits=sum(o[4] for o in outcomes) / trials,
    )
