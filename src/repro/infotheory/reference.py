"""Reference dict-of-tuples joint distributions (the differential oracle).

This is the original implementation of the exact finite joint
distribution the lemma checkers were built on: a dict mapping full
outcome tuples to float probabilities.  The columnar kernel in
:mod:`repro.infotheory.table` replaced it on the hot paths, but this
module is kept verbatim-in-spirit as the *oracle*: the oracle
registry's ``infotheory`` pair (``repro.conformance.oracles``) and the
differential suite (``tests/test_infotheory_differential.py``) prove
the two implementations observationally equivalent on supports,
marginals, conditionals, entropies and mutual informations, exactly as
the ``graphs`` pair and ``tests/test_frozen_differential.py`` do for
the graph core; the suite also covers divergences.

Probabilities are floats.  Construction validates normalization within
:data:`NORMALIZATION_TOLERANCE` and drops zero-probability outcomes, so
``support()`` reflects the strictly positive outcomes only; lemma
comparisons allow the same slack.  Sums start from int 0, so a pmf of
``Fraction`` values keeps its marginals, conditionals and event
probabilities exact: the oracle for the columnar kernel's exact mode.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Iterable, Mapping, Sequence

Outcome = tuple[Hashable, ...]

#: The single normalization/negativity tolerance of the infotheory
#: package.  Historically the negativity check used ``1e-9`` while the
#: sum-to-one check used a hard-coded ``1e-6``; both now share this
#: constant (the sum is accumulated with ``math.fsum``, so the tighter
#: tolerance is safe even for large supports).  Exposed from
#: ``repro.infotheory`` for the lemma checkers and the columnar kernel.
NORMALIZATION_TOLERANCE = 1e-9


class JointDistribution:
    """A probability distribution over tuples of named random variables."""

    def __init__(
        self,
        variables: Sequence[str],
        pmf: Mapping[Outcome, float],
        *,
        normalize: bool = False,
    ) -> None:
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(
                f"duplicate variable names in {self.variables!r}"
            )
        cleaned: dict[Outcome, float] = {}
        for outcome, prob in pmf.items():
            if len(outcome) != len(self.variables):
                raise ValueError(
                    f"outcome {outcome!r} has arity {len(outcome)}, expected "
                    f"{len(self.variables)} for variables {self.variables!r}"
                )
            if prob < -NORMALIZATION_TOLERANCE:
                raise ValueError(f"negative probability {prob} for {outcome!r}")
            if prob > 0:
                cleaned[outcome] = cleaned.get(outcome, 0) + prob
        total = math.fsum(cleaned.values())
        if normalize:
            if total <= 0:
                raise ValueError("cannot normalize an all-zero pmf")
            cleaned = {o: p / total for o, p in cleaned.items()}
        elif abs(total - 1.0) > NORMALIZATION_TOLERANCE:
            raise ValueError(f"pmf sums to {total}, expected 1")
        self.pmf: dict[Outcome, float] = cleaned

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_samples(
        cls, variables: Sequence[str], samples: Iterable[Outcome]
    ) -> "JointDistribution":
        """Empirical (plug-in) distribution from a sample list."""
        counts: dict[Outcome, float] = {}
        total = 0
        for sample in samples:
            counts[tuple(sample)] = counts.get(tuple(sample), 0.0) + 1.0
            total += 1
        if total == 0:
            raise ValueError("no samples")
        return cls(variables, {o: c / total for o, c in counts.items()})

    @classmethod
    def uniform(
        cls, variables: Sequence[str], outcomes: Sequence[Outcome]
    ) -> "JointDistribution":
        if not outcomes:
            raise ValueError("no outcomes")
        p = 1.0 / len(outcomes)
        pmf: dict[Outcome, float] = {}
        for o in outcomes:
            pmf[tuple(o)] = pmf.get(tuple(o), 0.0) + p
        return cls(variables, pmf)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def _indices(self, names: Sequence[str]) -> list[int]:
        try:
            return [self.variables.index(name) for name in names]
        except ValueError as exc:
            raise KeyError(f"unknown variable in {names!r}") from exc

    def marginal(self, names: Sequence[str]) -> "JointDistribution":
        """The marginal distribution of the named variables (in that order)."""
        idx = self._indices(names)
        pmf: dict[Outcome, float] = {}
        for outcome, prob in self.pmf.items():
            key = tuple(outcome[i] for i in idx)
            pmf[key] = pmf.get(key, 0) + prob
        return JointDistribution(names, pmf)

    def condition(self, **fixed: Hashable) -> "JointDistribution":
        """The conditional distribution given variable=value assignments.

        The fixed variables are removed from the result.
        """
        fixed_names = list(fixed)
        idx = dict(zip(fixed_names, self._indices(fixed_names)))
        keep = [v for v in self.variables if v not in fixed]
        keep_idx = self._indices(keep)
        pmf: dict[Outcome, float] = {}
        mass = 0
        for outcome, prob in self.pmf.items():
            if all(outcome[idx[name]] == value for name, value in fixed.items()):
                key = tuple(outcome[i] for i in keep_idx)
                pmf[key] = pmf.get(key, 0) + prob
                mass += prob
        if mass <= 0:
            raise ValueError(f"conditioning event {fixed!r} has zero probability")
        return JointDistribution(keep, {o: p / mass for o, p in pmf.items()})

    def support(self, names: Sequence[str] | None = None) -> set[Outcome]:
        """The set of outcomes carrying strictly positive probability.

        Zero-probability outcomes are *dropped at construction time* (a
        documented invariant shared with the columnar kernel), so the
        support is exactly the key set of the stored pmf — never a
        superset recording outcomes whose mass cancelled or was zero on
        input.  With ``names`` the support of that marginal is returned.
        """
        if names is None:
            return set(self.pmf)
        return set(self.marginal(names).pmf)

    def items(self):
        """Iterate ``(outcome, probability)`` pairs of the support."""
        return self.pmf.items()

    def get(self, outcome: Outcome, default: float = 0.0) -> float:
        """P[outcome], 0 outside the support (shared accessor with the
        columnar kernel so divergences run on either implementation)."""
        return self.pmf.get(tuple(outcome), default)

    def probability(self, **fixed: Hashable) -> float:
        """P[variables = values] for a partial assignment."""
        fixed_names = list(fixed)
        idx = dict(zip(fixed_names, self._indices(fixed_names)))
        return sum(
            prob
            for outcome, prob in self.pmf.items()
            if all(outcome[idx[name]] == value for name, value in fixed.items())
        )

    # ------------------------------------------------------------------
    # Information measures
    # ------------------------------------------------------------------
    def entropy(
        self, names: Sequence[str], given: Sequence[str] = ()
    ) -> float:
        """Shannon entropy H(A | B) in bits; H(A) when ``given`` is empty."""
        names = list(names)
        given = list(given)
        if not given:
            return _entropy_of(self.marginal(names).pmf.values())
        # H(A | B) = H(A, B) - H(B); duplicated names across the groups
        # are collapsed so H(A | A) = 0 comes out exactly.
        all_vars = list(dict.fromkeys(names + given))
        h_joint = _entropy_of(self.marginal(all_vars).pmf.values())
        h_given = _entropy_of(self.marginal(given).pmf.values())
        return h_joint - h_given

    def mutual_information(
        self,
        a: Sequence[str],
        b: Sequence[str],
        given: Sequence[str] = (),
    ) -> float:
        """I(A ; B | C) = H(A | C) - H(A | B, C), in bits."""
        a, b, given = list(a), list(b), list(given)
        if set(a) & set(b):
            raise ValueError("A and B must be disjoint variable groups")
        h_a_c = self.entropy(a, given=given)
        h_a_bc = self.entropy(a, given=list(dict.fromkeys(b + given)))
        value = h_a_c - h_a_bc
        # Clamp tiny negative float noise: MI is non-negative.
        return 0.0 if -NORMALIZATION_TOLERANCE < value < 0 else value

    def is_independent(
        self, a: Sequence[str], b: Sequence[str], given: Sequence[str] = ()
    ) -> bool:
        """A ⊥ B | C, decided via I(A;B|C) ~ 0."""
        return self.mutual_information(a, b, given=given) < 1e-7

    def __repr__(self) -> str:
        return (
            f"JointDistribution(variables={self.variables}, "
            f"support={len(self.pmf)})"
        )


def _entropy_of(probabilities: Iterable[float]) -> float:
    return -sum(p * math.log2(p) for p in probabilities if p > 0)
