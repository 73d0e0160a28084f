"""The average-communication extension (remark after Theorem 1).

The paper notes the per-player *average* version of Theorem 1 is
standard, via [50, §3]: because the protocol is simultaneous and the
hard input is placed at a uniformly random position (the permutation
sigma), no player can know in advance whether it will be the one holding
the expensive input — so the expected message length is the same for
every player, and a bound on the max transfers to the average up to
constants.

This module makes the symmetrization step measurable:
:func:`symmetrized_cost_profile` runs a protocol over fresh D_MM samples
(fresh sigma per sample) and returns each player's *expected* message
length.  For any protocol whose sketch depends only on the view (all of
ours), the profile flattens as trials grow — the executable content of
the remark.  The residual spread is reported so the experiment can show
convergence rather than assert blind uniformity.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine import ExecutionEngine, derive_seed, resolve_engine
from ..model import PublicCoins, SketchProtocol, run_protocol
from .distribution import sample_dmm_family
from .params import HardDistribution


@dataclass(frozen=True)
class CostProfile:
    """Per-player expected message bits under random relabeling."""

    mean_bits_per_player: dict[int, float]
    trials: int

    @property
    def mean(self) -> float:
        values = self.mean_bits_per_player.values()
        return sum(values) / len(values) if values else 0.0

    @property
    def max(self) -> float:
        return max(self.mean_bits_per_player.values(), default=0.0)

    @property
    def min(self) -> float:
        return min(self.mean_bits_per_player.values(), default=0.0)

    @property
    def relative_spread(self) -> float:
        """(max - min) / mean: 0 for a perfectly symmetric profile."""
        if self.mean == 0:
            return 0.0
        return (self.max - self.min) / self.mean


def _profile_trial(item: tuple) -> dict[int, int]:
    """Per-player message bits of one trial (module-level for pools)."""
    instance, coins_seed, protocol = item
    run = run_protocol(
        instance.graph, protocol, PublicCoins(seed=coins_seed), n=instance.hard.n
    )
    return run.transcript.bits


def symmetrized_cost_profile(
    hard: HardDistribution,
    protocol: SketchProtocol,
    trials: int,
    seed: int = 0,
    engine: ExecutionEngine | None = None,
) -> CostProfile:
    """Expected per-player message bits over fresh D_MM samples.

    Each trial draws a fresh sigma (inside the cached instance family),
    so any positional asymmetry in the instance is averaged out; what
    remains is the protocol's own per-player cost, which by symmetry
    converges to a constant profile.  Trials are independent (hash-
    derived seeds) and run through the engine; totals are reduced in
    trial order, so the profile is backend-independent.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    engine = resolve_engine(engine)
    instances = sample_dmm_family(hard, trials, seed)
    items = [
        (instance, derive_seed(seed, "profile-coins", trial), protocol)
        for trial, instance in enumerate(instances)
    ]
    totals: dict[int, float] = {v: 0.0 for v in range(hard.n)}
    for per_player in engine.map(_profile_trial, items):
        for v, bits in per_player.items():
            totals[v] += bits
    return CostProfile(
        mean_bits_per_player={v: b / trials for v, b in totals.items()},
        trials=trials,
    )


def max_to_average_gap(profile: CostProfile) -> float:
    """max / mean of the expected-cost profile — the factor the
    symmetrization argument shows is O(1) for simultaneous protocols."""
    if profile.mean == 0:
        return 1.0
    return profile.max / profile.mean


def cost_profile_entropy(profile: CostProfile) -> float:
    """Entropy (bits) of the normalized cost-share distribution.

    Treat each player's share of the total expected cost as a
    probability and measure its entropy on a columnar
    :class:`~repro.infotheory.table.TableDistribution`: a perfectly
    symmetric profile hits the ``log2 n`` maximum, and any positional
    asymmetry shows up as missing entropy — a scalar convergence
    diagnostic to report next to :func:`max_to_average_gap`.
    """
    from ..infotheory import TableDistribution

    shares = {
        (v,): bits
        for v, bits in profile.mean_bits_per_player.items()
        if bits > 0
    }
    if not shares:
        return 0.0
    dist = TableDistribution(("player",), shares, normalize=True)
    return dist.entropy(["player"])
