"""Sampling and bookkeeping for D_MM instances (Section 3.1, steps 1-5).

A :class:`DMMInstance` is one draw G ~ D_MM together with *all* of the
latent structure the proofs quantify over:

* ``j_star`` — the secret special matching index (step 2);
* ``indicators`` — the M_{i,j} random variables: for every copy i and
  matching j, which of the r edges survived the 1/2-subsampling (step 3);
* ``sigma`` — the relabeling permutation of [n] (step 4);
* the induced public/unique vertex split and the per-copy labelings.

The instance exposes exactly the decompositions the lemmas need: public
labels, per-copy unique labels, the special matching's slots and
survivors, and per-copy player views for the public/unique player model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from ..graphs import Edge, FrozenGraph, normalize_edge
from .params import HardDistribution

#: indicators[i][j] is an r-bit mask: bit e set iff edge e of matching j
#: survived in copy i.
IndicatorTable = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class DMMInstance:
    """One sample from D_MM, with its latent variables."""

    hard: HardDistribution
    j_star: int
    sigma: tuple[int, ...]
    indicators: IndicatorTable

    def __post_init__(self) -> None:
        hd = self.hard
        if not 0 <= self.j_star < hd.t:
            raise ValueError("j_star out of range")
        if sorted(self.sigma) != list(range(hd.n)):
            raise ValueError("sigma is not a permutation of [n]")
        if len(self.indicators) != hd.k or any(
            len(row) != hd.t for row in self.indicators
        ):
            raise ValueError("indicator table must be k x t")
        for row in self.indicators:
            for mask in row:
                if not 0 <= mask < (1 << hd.r):
                    raise ValueError("indicator mask out of range for r edges")

    # ------------------------------------------------------------------
    # Vertex bookkeeping
    # ------------------------------------------------------------------
    @cached_property
    def v_star(self) -> tuple[int, ...]:
        """The 2r RS vertices incident on the special matching, ascending."""
        return tuple(sorted(self.hard.rs.matching_endpoints(self.j_star)))

    @cached_property
    def public_rs_vertices(self) -> tuple[int, ...]:
        """RS vertices outside V*, ascending (slot order of step 4a)."""
        star = set(self.v_star)
        return tuple(v for v in sorted(self.hard.rs.graph.vertices) if v not in star)

    @cached_property
    def _public_slot(self) -> dict[int, int]:
        return {v: slot for slot, v in enumerate(self.public_rs_vertices)}

    @cached_property
    def _star_slot(self) -> dict[int, int]:
        return {v: slot for slot, v in enumerate(self.v_star)}

    def _check_copy(self, i: int) -> None:
        if not 0 <= i < self.hard.k:
            raise ValueError("copy index out of range")

    def label_in_copy(self, i: int, rs_vertex: int) -> int:
        """The G-label of RS vertex ``rs_vertex`` as it appears in copy i.

        Public vertices share one label across copies (step 4a); V*
        vertices get fresh labels per copy (step 4b).
        """
        self._check_copy(i)
        if rs_vertex in self._public_slot:
            return self.sigma[self._public_slot[rs_vertex]]
        base = self.hard.num_public
        return self.sigma[base + i * 2 * self.hard.r + self._star_slot[rs_vertex]]

    @cached_property
    def _copy_labels(self) -> tuple[dict[int, int], ...]:
        public = {
            v: self.sigma[slot] for slot, v in enumerate(self.public_rs_vertices)
        }
        out = []
        for i in range(self.hard.k):
            offset = self.hard.num_public + i * 2 * self.hard.r
            labels = dict(public)
            for slot, v in enumerate(self.v_star):
                labels[v] = self.sigma[offset + slot]
            out.append(labels)
        return tuple(out)

    def copy_labels(self, i: int) -> dict[int, int]:
        """Copy i's whole RS-vertex -> G-label map (``label_in_copy`` for
        every RS vertex at once), built once per instance from sigma.

        Shared across calls: treat it as read-only.
        """
        self._check_copy(i)
        return self._copy_labels[i]

    @cached_property
    def public_labels(self) -> frozenset[int]:
        """Labels of the public vertices of G."""
        return frozenset(self.sigma[: self.hard.num_public])

    def unique_labels(self, i: int) -> frozenset[int]:
        """Labels of the unique vertices of copy i."""
        self._check_copy(i)
        base = self.hard.num_public
        r2 = 2 * self.hard.r
        return frozenset(self.sigma[base + i * r2 : base + (i + 1) * r2])

    @cached_property
    def all_unique_labels(self) -> frozenset[int]:
        out: set[int] = set()
        for i in range(self.hard.k):
            out |= self.unique_labels(i)
        return frozenset(out)

    def is_unique_label(self, label: int) -> bool:
        return label in self.all_unique_labels

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------
    def copy_edges(self, i: int) -> list[Edge]:
        """The (labeled) surviving edges of copy G_i."""
        labels = self.copy_labels(i)
        edges: list[Edge] = []
        for matching, mask in zip(self.hard.rs.matchings, self.indicators[i]):
            for e, (u, v) in enumerate(matching):
                if (mask >> e) & 1:
                    edges.append(normalize_edge(labels[u], labels[v]))
        return edges

    @cached_property
    def graph(self) -> FrozenGraph:
        """G: the union of the k relabeled subsampled copies (step 5).

        Frozen CSR form: the instance is immutable, so the graph is
        built once directly from the edge list — deterministic edge
        order, digest-addressed, and cheap per-player neighbor slices
        for ``views_of``.
        """
        edges: list[Edge] = []
        for i in range(self.hard.k):
            edges.extend(self.copy_edges(i))
        return FrozenGraph.from_edges(range(self.hard.n), edges)

    def special_slot_pairs(self, i: int) -> list[Edge]:
        """M^RS_{i,j*} of Section 4: the labeled pairs of the special
        matching in copy i *before* subsampling (all r slots)."""
        labels = self.copy_labels(i)
        return [
            normalize_edge(labels[u], labels[v])
            for (u, v) in self.hard.rs.matchings[self.j_star]
        ]

    def special_surviving_edges(self, i: int) -> list[Edge]:
        """The surviving special-matching edges of copy i (the M_i of
        Claim 3.1) — always between unique labels."""
        pairs = self.special_slot_pairs(i)
        mask = self.indicators[i][self.j_star]
        return [pairs[e] for e in range(self.hard.r) if (mask >> e) & 1]

    @cached_property
    def union_special_matching(self) -> set[Edge]:
        """∪_i M_i: all surviving special edges across copies (disjoint
        vertex sets, so their union is a matching)."""
        out: set[Edge] = set()
        for i in range(self.hard.k):
            out.update(self.special_surviving_edges(i))
        return out

    def unique_unique_edges(self, edges) -> list[Edge]:
        """Filter a pair list to those with both endpoints unique —
        the M^U accounting of Claims 3.1/3.2."""
        uniq = self.all_unique_labels
        return [e for e in edges if e[0] in uniq and e[1] in uniq]


def sample_dmm(hard: HardDistribution, rng: random.Random) -> DMMInstance:
    """Draw one instance of D_MM (steps 2-4: j*, subsampling coins, sigma)."""
    j_star = rng.randrange(hard.t)
    indicators = tuple(
        tuple(rng.getrandbits(hard.r) for _ in range(hard.t))
        for _ in range(hard.k)
    )
    sigma = list(range(hard.n))
    rng.shuffle(sigma)
    return DMMInstance(
        hard=hard, j_star=j_star, sigma=tuple(sigma), indicators=indicators
    )


def sample_dmm_family(
    hard: HardDistribution, trials: int, base_seed: int = 0
) -> tuple[DMMInstance, ...]:
    """``trials`` independent D_MM draws with hash-derived per-trial seeds.

    Instance ``i`` is a pure function of ``(hard, base_seed, i)`` — not
    of a shared sequential rng — so families can be built trial-parallel
    and are content-addressed in the engine's construction cache: every
    attack/sweep re-using the same ``(hard, trials, base_seed)`` gets the
    identical family back without re-sampling.  Instances are shared and
    frozen.
    """
    from ..engine import construction_cache, derive_seed

    if trials < 0:
        raise ValueError("trials must be non-negative")

    def build() -> tuple[DMMInstance, ...]:
        return tuple(
            sample_dmm(
                hard, random.Random(derive_seed(base_seed, "dmm-family", trial))
            )
            for trial in range(trials)
        )

    return construction_cache().get_or_build(
        ("dmm-family", hard.cache_token, trials, base_seed), build
    )


def identity_sigma(hard: HardDistribution) -> tuple[int, ...]:
    """The identity relabeling — the canonical fixed sigma for exact
    enumeration experiments (which condition on Σ = σ anyway)."""
    return tuple(range(hard.n))


def enumerate_indicator_tables(hard: HardDistribution):
    """Yield every possible k x t indicator table (2^(k*t*r) of them).

    Only feasible for micro instances; used to build exact joint
    distributions for the Lemma 3.3-3.5 experiments.
    """
    total_bits = hard.k * hard.t * hard.r
    if total_bits > 24:
        raise ValueError(
            f"enumerating 2^{total_bits} indicator tables is infeasible"
        )
    for code in range(1 << total_bits):
        table = []
        shift = 0
        for _i in range(hard.k):
            row = []
            for _j in range(hard.t):
                row.append((code >> shift) & ((1 << hard.r) - 1))
                shift += hard.r
            table.append(tuple(row))
        yield tuple(table)
