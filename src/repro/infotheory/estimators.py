"""Entropy / mutual information estimation from samples.

The exact lemma computations enumerate micro instances; at larger sizes
the experiments fall back to plug-in estimation over Monte-Carlo samples
of (indicators, transcript).  The plug-in entropy estimator is biased
low by ~ (support - 1) / (2 ln 2 * samples); the Miller–Madow correction
is provided and used by the larger Lemma 3.3 sweeps.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Iterable, Sequence

from .reference import Outcome
from .table import TableDistribution


def plugin_entropy(samples: Iterable[Hashable]) -> float:
    """Plug-in (maximum-likelihood) entropy estimate, in bits."""
    counts: dict[Hashable, int] = {}
    total = 0
    for s in samples:
        counts[s] = counts.get(s, 0) + 1
        total += 1
    if total == 0:
        raise ValueError("no samples")
    return -sum(
        (c / total) * math.log2(c / total) for c in counts.values()
    )


def miller_madow_entropy(samples: Sequence[Hashable]) -> float:
    """Plug-in entropy with the Miller–Madow first-order bias correction."""
    counts: dict[Hashable, int] = {}
    for s in samples:
        counts[s] = counts.get(s, 0) + 1
    total = len(samples)
    if total == 0:
        raise ValueError("no samples")
    plugin = -sum((c / total) * math.log2(c / total) for c in counts.values())
    support = len(counts)
    return plugin + (support - 1) / (2.0 * math.log(2.0) * total)


def empirical_distribution(
    variables: Sequence[str], samples: Sequence[Outcome]
) -> TableDistribution:
    """The plug-in joint distribution of sampled outcome tuples."""
    return TableDistribution.from_samples(variables, samples)


def plugin_mutual_information(
    pairs: Sequence[tuple[Hashable, Hashable]]
) -> float:
    """Plug-in I(X ; Y) from paired samples, in bits (clamped at 0)."""
    dist = TableDistribution.from_samples(
        ("x", "y"), [(x, y) for x, y in pairs]
    )
    return dist.mutual_information(["x"], ["y"])
