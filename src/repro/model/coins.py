"""Public coins: the shared random string of the sketching model.

All players and the referee see the same random string; player-private
randomness is *not* part of the model (Section 2.1).  We realize the
shared string as a seed from which any party can deterministically derive
named random streams — two players deriving the stream "l0/level/3" get
bit-identical randomness, which is exactly the public-coin semantics.

Derivation uses SHA-256 of (seed, label), not Python's salted ``hash``,
so streams are stable across processes and runs.  The shared L0 labels
that every player of a graph consults are memoized further up, per
family (``_derived_params``, ``_family_params``); most streams derived
here are per player (``sampled-mm/17``).  The same ``(seed, label)``
recurs when a run repeats a trial's coins, as each knob of a budget
sweep does, so the last few thousand stream seeds are memoized: a hit
saves one SHA-256, and the bound keeps a long process from holding
every stream it ever derived.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import lru_cache


@lru_cache(maxsize=1 << 12)
def _stream_seed(seed: int, label: str) -> int:
    """The memoized SHA-256-derived seed of stream ``label``.

    Pure in (seed, label), so the cache can only ever change timings —
    every ``rng`` call still returns a *fresh* generator at position 0.
    """
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class PublicCoins:
    """A handle on the shared random string."""

    seed: int

    def rng(self, label: str) -> random.Random:
        """A deterministic random stream named by ``label``.

        Every party calling ``coins.rng("x")`` receives an identical,
        freshly-seeded generator; distinct labels give independent-looking
        streams.
        """
        return random.Random(_stream_seed(self.seed, label))

    def uniform_int(self, label: str, upper: int) -> int:
        """A single shared uniform draw from {0, ..., upper-1}."""
        if upper <= 0:
            raise ValueError("upper must be positive")
        return self.rng(label).randrange(upper)

    def uniform_ints(self, label: str, count: int, upper: int) -> list[int]:
        """``count`` shared uniform draws from {0, ..., upper-1} in bulk.

        One stream derivation (one SHA-256, memoized) serves the whole
        batch, where the per-draw API would hash once per value.  Note
        the draws come from a *single* stream, so
        ``uniform_ints(label, k, u)`` is NOT element-wise equal to
        ``[uniform_int(f"{label}/{i}", u) for i in range(k)]`` — batched
        construction code must adopt one convention and keep it.
        """
        if upper <= 0:
            raise ValueError("upper must be positive")
        if count < 0:
            raise ValueError("count must be non-negative")
        rng = self.rng(label)
        return [rng.randrange(upper) for _ in range(count)]

    def child(self, label: str) -> "PublicCoins":
        """A derived coin namespace (e.g. per protocol instance)."""
        return PublicCoins(seed=_stream_seed(self.seed, f"child/{label}"))
