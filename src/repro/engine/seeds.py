"""Deterministic seed derivation for batched Monte-Carlo runs.

Every repeated-trial loop in the reproduction needs one fresh seed per
trial, derived from a user-facing base seed.  Arithmetic schemes like
``base * 1_000_003 + trial`` collide across base seeds — ``(0, 1000003)``
and ``(1, 0)`` name the same coins — and, worse, make the trial seeds of
nearby base seeds overlap, so "independent" replications share samples.

The engine instead derives seeds the same way :class:`repro.model.coins
.PublicCoins` derives its named streams: SHA-256 over the base seed and a
path of labels.  Distinct paths give independent-looking 63-bit seeds,
the mapping is stable across processes and platforms (no salted
``hash``), and — crucially for the parallel backends — the seed of trial
``i`` depends only on ``(base_seed, path, i)``, never on execution order,
so serial and process-pool runs are bit-identical.  A batch's items
carry their seeds, ``derive_seed(base_seed, namespace, trial)`` each.
"""

from __future__ import annotations

import hashlib

#: Bump when the derivation scheme changes; part of the hashed material
#: so old and new schemes can never silently alias.
_SCHEME_VERSION = 1


def derive_seed(base_seed: int, *path: object) -> int:
    """A 63-bit seed derived from ``base_seed`` and a label path.

    ``derive_seed(s, "attack", 7)`` is independent-looking from
    ``derive_seed(s, "attack", 8)`` and from ``derive_seed(s + 1,
    "attack", anything)`` — no arithmetic collisions.
    """
    material = "/".join([f"v{_SCHEME_VERSION}", str(int(base_seed)), *map(str, path)])
    digest = hashlib.sha256(material.encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1

