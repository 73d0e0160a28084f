"""Concentration bounds behind Claim 3.1's probability statement.

Claim 3.1's proof: |∪ M_i| is Binomial(k·r, 1/2), so
P[|∪ M_i| < k·r/3] <= 2^(-k·r/10) by Chernoff.  This module computes
the *exact* binomial tail and the standard Chernoff forms so the paper's
constant can be checked numerically (it holds with room to spare — the
tests sweep k·r and assert exact <= claimed).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=4096)
def _log_binomial(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def binomial_pmf(n: int, p: float, k: int) -> float:
    """P[Bin(n, p) = k], computed in log space for stability."""
    if not 0 <= k <= n:
        return 0.0
    if p in (0.0, 1.0):
        deterministic = 0 if p == 0.0 else n
        return 1.0 if k == deterministic else 0.0
    log_p = _log_binomial(n, k) + k * math.log(p) + (n - k) * math.log(1.0 - p)
    return math.exp(log_p)


def binomial_tail_below(n: int, p: float, threshold: float) -> float:
    """P[Bin(n, p) < threshold], exactly."""
    upper = math.ceil(threshold) - 1
    if upper < 0:
        return 0.0
    return sum(binomial_pmf(n, p, k) for k in range(0, min(upper, n) + 1))


def binomial_tail_below_exact(n: int, p, threshold: float) -> Fraction:
    """P[Bin(n, p) < threshold] as an exact rational."""
    upper = math.ceil(threshold) - 1
    if upper < 0:
        return Fraction(0)
    pq = Fraction(p)
    return sum(
        (
            math.comb(n, k) * pq**k * (1 - pq) ** (n - k)
            for k in range(0, min(upper, n) + 1)
        ),
        Fraction(0),
    )


def chernoff_lower_tail(n: int, p: float, delta: float) -> float:
    """The multiplicative Chernoff bound
    P[X < (1 - delta) * n * p] <= exp(-delta^2 * n * p / 2)."""
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    return math.exp(-(delta**2) * n * p / 2.0)


def claim31_tail_exact(kr: int, *, exact: bool = False):
    """The exact probability that fewer than k·r/3 special edges survive.

    ``exact=True`` returns the tail as a ``Fraction`` (summed from the
    rational binomial pmf) instead of a log-space float sum.
    """
    if exact:
        return binomial_tail_below_exact(kr, Fraction(1, 2), kr / 3.0)
    return binomial_tail_below(kr, 0.5, kr / 3.0)


def claim31_tail_paper_bound(kr: int) -> float:
    """The paper's claimed bound 2^(-k·r/10)."""
    return 2.0 ** (-kr / 10.0)


def claim31_tail_chernoff(kr: int) -> float:
    """The Chernoff form with mean k·r/2 and deviation to k·r/3
    (delta = 1/3): exp(-(1/9)·(kr/2)/2) = exp(-kr/36)."""
    return chernoff_lower_tail(kr, 0.5, 1.0 / 3.0)
