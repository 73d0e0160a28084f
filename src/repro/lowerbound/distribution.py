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

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable

from ..graphs import Edge, FrozenGraph, normalize_edge
from .params import HardDistribution

if TYPE_CHECKING:  # only for annotations; keeps the import graph flat
    from ..engine import ExecutionEngine

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
    #
    # A cached instance keeps its defining data (j*, sigma, the indicator
    # table) plus two values built on first use: ``graph`` and the role
    # table behind ``player_roles``.  Every other view below is rebuilt
    # from sigma and j* when it is read and is not kept, so the
    # construction cache, which counts instances rather than bytes,
    # holds little per instance.
    # ------------------------------------------------------------------
    @property
    def v_star(self) -> tuple[int, ...]:
        """The 2r RS vertices incident on the special matching, ascending."""
        return tuple(sorted(self.hard.rs.matching_endpoints(self.j_star)))

    @property
    def public_rs_vertices(self) -> tuple[int, ...]:
        """RS vertices outside V*, ascending (slot order of step 4a)."""
        star = self.hard.rs.matching_endpoints(self.j_star)
        return tuple(v for v in sorted(self.hard.rs.graph.vertices) if v not in star)

    def _check_copy(self, i: int) -> None:
        if not 0 <= i < self.hard.k:
            raise ValueError("copy index out of range")

    def _star_offset(self, i: int) -> int:
        """Where copy i's V* slots start in sigma: its 2r unique labels
        are ``sigma[offset : offset + 2r]``, in V* order (step 4b)."""
        return self.hard.num_public + 2 * self.hard.r * i

    def label_in_copy(self, i: int, rs_vertex: int) -> int:
        """The G-label of RS vertex ``rs_vertex`` as it appears in copy i.

        Public vertices share one label across copies (step 4a); V*
        vertices get fresh labels per copy (step 4b).
        """
        return self.copy_labels(i)[rs_vertex]

    def copy_labels(self, i: int) -> dict[int, int]:
        """Copy i's whole RS-vertex -> G-label map (``label_in_copy`` for
        every RS vertex at once), built from sigma on each call: the
        public slots, then copy i's V* slots."""
        self._check_copy(i)
        offset = self._star_offset(i)
        labels = dict(zip(self.public_rs_vertices, self.sigma))
        labels.update(zip(self.v_star, self.sigma[offset : offset + 2 * self.hard.r]))
        return labels

    @property
    def public_labels(self) -> frozenset[int]:
        """Labels of the public vertices of G."""
        return frozenset(self.sigma[: self.hard.num_public])

    def unique_labels(self, i: int) -> frozenset[int]:
        """Labels of the unique vertices of copy i."""
        self._check_copy(i)
        offset = self._star_offset(i)
        return frozenset(self.sigma[offset : offset + 2 * self.hard.r])

    @property
    def all_unique_labels(self) -> frozenset[int]:
        """Labels of the unique vertices of every copy."""
        return frozenset(self.sigma[self.hard.num_public :])

    def is_unique_label(self, label: int) -> bool:
        """True iff ``label`` is a label of G and not a public one."""
        return 0 <= label < self.hard.n and self._roles[label] != "public"

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
        built once — deterministic edge order, digest-addressed, and
        cheap per-player neighbor slices for batch sketches.  One
        RS-vertex -> label map serves every copy: it holds the public
        labels, and each copy overwrites only its V* slots.  Each
        surviving edge (a set bit of an indicator mask) adds its two
        labels straight into per-vertex neighbor sets, which also
        collapse the public-public edges several copies share; the
        graph equals ``FrozenGraph.from_edges`` over every copy's
        :meth:`copy_edges`.
        """
        hd, sigma = self.hard, self.sigma
        neighbors: list[set[int]] = [set() for _ in range(hd.n)]
        matchings = hd.rs.matchings
        star, r2 = self.v_star, 2 * hd.r
        labels = dict(zip(self.public_rs_vertices, sigma))
        for i, row in enumerate(self.indicators):
            offset = self._star_offset(i)
            labels.update(zip(star, sigma[offset : offset + r2]))
            for matching, mask in zip(matchings, row):
                while mask:
                    low = mask & -mask
                    u, v = matching[low.bit_length() - 1]
                    a, b = labels[u], labels[v]
                    neighbors[a].add(b)
                    neighbors[b].add(a)
                    mask ^= low
        return FrozenGraph.from_neighbor_lists(dict(enumerate(neighbors)))

    def _special_slots(self) -> list[tuple[int, int]]:
        """Each special-matching edge as its endpoints' two positions in
        V*: copy i labels position p with ``sigma[_star_offset(i) + p]``."""
        position = {v: p for p, v in enumerate(self.v_star)}
        return [
            (position[u], position[v])
            for u, v in self.hard.rs.matchings[self.j_star]
        ]

    def _copy_special_pairs(
        self, i: int, slots: list[tuple[int, int]]
    ) -> list[Edge]:
        sigma, offset = self.sigma, self._star_offset(i)
        return [normalize_edge(sigma[offset + a], sigma[offset + b]) for a, b in slots]

    def special_slot_pairs(self, i: int) -> list[Edge]:
        """M^RS_{i,j*} of Section 4: the labeled pairs of the special
        matching in copy i *before* subsampling (all r slots)."""
        self._check_copy(i)
        return self._copy_special_pairs(i, self._special_slots())

    def special_surviving_edges(self, i: int) -> list[Edge]:
        """The surviving special-matching edges of copy i (the M_i of
        Claim 3.1) — always between unique labels."""
        pairs = self.special_slot_pairs(i)
        mask = self.indicators[i][self.j_star]
        return [pairs[e] for e in range(self.hard.r) if (mask >> e) & 1]

    @property
    def union_special_matching(self) -> set[Edge]:
        """∪_i M_i: all surviving special edges across copies (disjoint
        vertex sets, so their union is a matching).  A fresh set per
        read; V*'s layout is read once for all k copies."""
        slots = self._special_slots()
        out: set[Edge] = set()
        for i, row in enumerate(self.indicators):
            mask = row[self.j_star]
            if mask:
                pairs = self._copy_special_pairs(i, slots)
                out.update(pairs[e] for e in range(self.hard.r) if (mask >> e) & 1)
        return out

    @cached_property
    def _roles(self) -> tuple[str, ...]:
        roles = ["unique"] * self.hard.n
        for label in self.sigma[: self.hard.num_public]:
            roles[label] = "public"
        for u, v in self.union_special_matching:
            roles[u] = roles[v] = "special"
        return tuple(roles)

    def player_roles(self) -> tuple[str, ...]:
        """The role of each label in the §3.1 accounting, indexed by label.

        ``special``: an endpoint of a surviving special edge
        (:attr:`union_special_matching`); ``unique``: any other unique
        label; ``public``: a public label.  Pass the bound method as
        ``roles=`` to the runner.  The table is built on the first call
        (by a telemetry recorder or the unique-unique count) and shared
        afterwards (read-only).
        """
        return self._roles

    def unique_unique_edges(self, edges) -> list[Edge]:
        """Filter a pair list to those with both endpoints unique —
        the M^U accounting of Claims 3.1/3.2.  An id that is not a label
        of G is not unique."""
        roles, n = self._roles, self.hard.n
        return [
            (u, v)
            for u, v in edges
            if 0 <= u < n
            and 0 <= v < n
            and roles[u] != "public"
            and roles[v] != "public"
        ]


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


def map_dmm_trials(
    hard: HardDistribution,
    trials: int,
    seed: int,
    trial: Callable[[tuple], Any],
    namespace: str,
    *extra: Any,
    engine: "ExecutionEngine | None" = None,
) -> list:
    """``trial`` over the cached family ``sample_dmm_family(hard, trials,
    seed)``, through the engine, in trial order.

    Trial ``i`` gets the item ``(instance_i, derive_seed(seed,
    namespace, i), *extra)``: coin seeds are hash-derived per trial and
    independent of the protocol, so every run over the same ``(hard,
    trials, seed)`` — each knob of a budget sweep, say — shares one
    sampled family and one set of coins.  ``trial`` must be module-level
    so process pools can run it.
    """
    from ..engine import derive_seed, resolve_engine

    if trials <= 0:
        raise ValueError("trials must be positive")
    engine = resolve_engine(engine)
    instances = sample_dmm_family(hard, trials, seed)
    items = [
        (instance, derive_seed(seed, namespace, index), *extra)
        for index, instance in enumerate(instances)
    ]
    return engine.map(trial, items)


def identity_sigma(hard: HardDistribution) -> tuple[int, ...]:
    """The identity relabeling — the canonical fixed sigma for exact
    enumeration experiments (which condition on Σ = σ anyway)."""
    return tuple(range(hard.n))


#: Indicator bits beyond which exhaustive enumeration is refused.
_MAX_ENUMERATION_BITS = 24


def _check_enumerable(bits: int, what: str) -> None:
    if bits > _MAX_ENUMERATION_BITS:
        raise ValueError(f"enumerating 2^{bits} {what} is infeasible")


def enumerate_indicator_rows(hard: HardDistribution):
    """Yield every indicator row of one copy: t r-bit masks, 2^(t*r) of
    them, matching j's mask in bits j*r .. j*r + r - 1 of the row code.

    One copy's rows are all Lemma 3.5 needs: Π(U_i) reads only copy i's
    row (see :func:`~repro.lowerbound.players.copy_player_views`).
    """
    bits = hard.t * hard.r
    _check_enumerable(bits, "indicator rows")
    mask = (1 << hard.r) - 1
    for code in range(1 << bits):
        yield tuple((code >> (j * hard.r)) & mask for j in range(hard.t))


def enumerate_indicator_tables(hard: HardDistribution):
    """Yield every possible k x t indicator table (2^(k*t*r) of them),
    copy 0's row varying fastest.

    Only feasible for micro instances; used to build exact joint
    distributions for the Lemma 3.3-3.5 experiments.
    """
    _check_enumerable(hard.k * hard.t * hard.r, "indicator tables")
    rows = tuple(enumerate_indicator_rows(hard))
    for reversed_table in itertools.product(rows, repeat=hard.k):
        yield reversed_table[::-1]
