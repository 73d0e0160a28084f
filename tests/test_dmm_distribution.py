"""Tests for the hard distribution D_MM (params, sampling, bookkeeping)."""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import cache_key
from repro.lowerbound import (
    DMMInstance,
    HardDistribution,
    enumerate_indicator_tables,
    identity_sigma,
    micro_distribution,
    paper_scale_distribution,
    sample_dmm,
    scaled_distribution,
)
from repro.rsgraphs import verify_rs_graph


class TestParameters:
    def test_scaled_distribution_shapes(self):
        hd = scaled_distribution(m=12, k=3)
        assert hd.n == hd.N - 2 * hd.r + 2 * hd.r * hd.k
        assert hd.num_public == hd.N - 2 * hd.r
        assert hd.num_unique == 2 * hd.r * hd.k
        assert hd.k == 3

    def test_paper_scale_sets_k_equal_t(self):
        hd = paper_scale_distribution(m=8)
        assert hd.k == hd.t

    def test_micro_distribution_valid_rs(self):
        hd = micro_distribution(r=2, t=3, k=2)
        assert verify_rs_graph(hd.rs.graph, hd.rs.matchings, r=2)
        assert hd.N == 2 * 2 * 3
        assert hd.t == 3

    def test_micro_rejects_bad_params(self):
        with pytest.raises(ValueError):
            micro_distribution(r=0)

    def test_rejects_nonuniform_rs(self):
        from repro.rsgraphs import sum_class_rs_graph

        rs = sum_class_rs_graph(16)
        if not rs.is_uniform:
            with pytest.raises(ValueError):
                HardDistribution(rs=rs, k=2)

    def test_rejects_bad_k(self):
        hd = micro_distribution()
        with pytest.raises(ValueError):
            HardDistribution(rs=hd.rs, k=0)

    def test_claim31_numbers(self):
        hd = micro_distribution(r=2, t=2, k=4)
        assert hd.claim31_threshold == 2.0
        assert 0 < hd.claim31_probability_bound < 1


class TestSampling:
    def _hd(self):
        return scaled_distribution(m=10, k=3)

    def test_sample_is_valid_instance(self):
        hd = self._hd()
        inst = sample_dmm(hd, random.Random(0))
        assert 0 <= inst.j_star < hd.t
        assert sorted(inst.sigma) == list(range(hd.n))

    def test_graph_on_n_labels(self):
        hd = self._hd()
        inst = sample_dmm(hd, random.Random(1))
        assert inst.graph.num_vertices() == hd.n
        assert inst.graph.vertices == frozenset(range(hd.n))

    def test_public_unique_partition(self):
        hd = self._hd()
        inst = sample_dmm(hd, random.Random(2))
        labels = set(inst.public_labels)
        for i in range(hd.k):
            ulabels = inst.unique_labels(i)
            assert len(ulabels) == 2 * hd.r
            assert not (labels & ulabels)
            labels |= ulabels
        assert labels == set(range(hd.n))

    def test_unique_labels_disjoint_across_copies(self):
        hd = self._hd()
        inst = sample_dmm(hd, random.Random(3))
        for i in range(hd.k):
            for i2 in range(i + 1, hd.k):
                assert not (inst.unique_labels(i) & inst.unique_labels(i2))

    def test_label_in_copy_consistency(self):
        hd = self._hd()
        inst = sample_dmm(hd, random.Random(4))
        public_rs = inst.public_rs_vertices
        # Public vertices share one label across all copies.
        for v in public_rs[:5]:
            labels = {inst.label_in_copy(i, v) for i in range(hd.k)}
            assert len(labels) == 1
        # V* vertices get distinct labels per copy.
        for v in inst.v_star[:4]:
            labels = {inst.label_in_copy(i, v) for i in range(hd.k)}
            assert len(labels) == hd.k

    def test_copy_edges_match_indicators(self):
        hd = self._hd()
        inst = sample_dmm(hd, random.Random(5))
        for i in range(hd.k):
            expected = sum(
                bin(inst.indicators[i][j]).count("1") for j in range(hd.t)
            )
            assert len(inst.copy_edges(i)) == expected

    def test_graph_is_union_of_copies(self):
        hd = self._hd()
        inst = sample_dmm(hd, random.Random(6))
        union = set()
        for i in range(hd.k):
            union.update(inst.copy_edges(i))
        assert inst.graph.edge_set() == frozenset(union)

    def test_special_edges_unique_unique(self):
        hd = self._hd()
        inst = sample_dmm(hd, random.Random(7))
        for i in range(hd.k):
            for u, v in inst.special_surviving_edges(i):
                assert inst.is_unique_label(u)
                assert inst.is_unique_label(v)

    def test_special_slots_all_r(self):
        hd = self._hd()
        inst = sample_dmm(hd, random.Random(8))
        for i in range(hd.k):
            assert len(inst.special_slot_pairs(i)) == hd.r

    def test_union_special_is_matching(self):
        from repro.graphs import is_matching

        hd = self._hd()
        inst = sample_dmm(hd, random.Random(9))
        assert is_matching(inst.union_special_matching)

    @given(st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_unique_unique_edges_are_exactly_survivors(self, seed):
        """The induced property: G's unique-unique edges = ∪ M_i."""
        hd = scaled_distribution(m=8, k=2)
        inst = sample_dmm(hd, random.Random(seed))
        uu = {
            e
            for e in inst.graph.edges()
            if inst.is_unique_label(e[0]) and inst.is_unique_label(e[1])
        }
        assert uu == inst.union_special_matching


#: Every accessor that takes a copy index i.
PER_COPY = [
    lambda inst, i: inst.label_in_copy(i, inst.v_star[0]),
    lambda inst, i: inst.copy_labels(i),
    lambda inst, i: inst.unique_labels(i),
    lambda inst, i: inst.copy_edges(i),
    lambda inst, i: inst.special_slot_pairs(i),
    lambda inst, i: inst.special_surviving_edges(i),
]
PER_COPY_IDS = [
    "label_in_copy",
    "copy_labels",
    "unique_labels",
    "copy_edges",
    "special_slot_pairs",
    "special_surviving_edges",
]


class TestCopyBookkeeping:
    @pytest.mark.parametrize("accessor", PER_COPY, ids=PER_COPY_IDS)
    @pytest.mark.parametrize("past_end", [False, True], ids=["i=-1", "i=k"])
    def test_copy_index_out_of_range(self, accessor, past_end):
        hd = scaled_distribution(m=8, k=2)
        # All-ones masks: every edge survives, so no accessor can return
        # early on an empty copy.
        full = (1 << hd.r) - 1
        inst = DMMInstance(
            hd, 0, identity_sigma(hd), indicators=((full,) * hd.t,) * hd.k
        )
        with pytest.raises(ValueError, match="copy index out of range"):
            accessor(inst, hd.k if past_end else -1)

    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_copy_labels_match_label_in_copy(self, seed):
        hd = scaled_distribution(m=10, k=3)
        inst = sample_dmm(hd, random.Random(seed))
        for i in range(hd.k):
            labels = inst.copy_labels(i)
            assert set(labels) == set(hd.rs.graph.vertices)
            for v in hd.rs.graph.vertices:
                assert labels[v] == inst.label_in_copy(i, v)


class TestCachedInvariants:
    def test_hard_distribution_pickles_with_cached_invariants(self):
        hd = scaled_distribution(m=10, k=3)
        token = hd.cache_token
        key = cache_key(("pickle-roundtrip", hd))
        sizes = (hd.N, hd.r, hd.t, hd.n, hd.num_public, hd.num_unique)
        assert {"N", "r", "t", "n", "num_public", "num_unique"} <= set(vars(hd))
        clone = pickle.loads(pickle.dumps(hd))
        assert clone == hd
        assert clone.cache_token == token
        assert cache_key(("pickle-roundtrip", clone)) == key
        assert (
            clone.N, clone.r, clone.t, clone.n, clone.num_public, clone.num_unique
        ) == sizes

    def test_rs_graph_pickles_with_cached_invariants(self):
        rs = scaled_distribution(m=10, k=3).rs
        token = rs.cache_token
        key = cache_key(("pickle-roundtrip", rs))
        sizes, r = rs.matching_sizes, rs.r
        assert {"matching_sizes", "r"} <= set(vars(rs))
        clone = pickle.loads(pickle.dumps(rs))
        assert clone == rs
        assert clone.cache_token == token
        assert cache_key(("pickle-roundtrip", clone)) == key
        assert (clone.matching_sizes, clone.r) == (sizes, r)


class TestInstanceValidation:
    def test_rejects_bad_j_star(self):
        hd = micro_distribution()
        with pytest.raises(ValueError):
            DMMInstance(hd, j_star=99, sigma=identity_sigma(hd), indicators=((0, 0), (0, 0)))

    def test_rejects_bad_sigma(self):
        hd = micro_distribution()
        with pytest.raises(ValueError):
            DMMInstance(hd, 0, sigma=(0,) * hd.n, indicators=((0, 0), (0, 0)))

    def test_rejects_bad_indicator_shape(self):
        hd = micro_distribution()
        with pytest.raises(ValueError):
            DMMInstance(hd, 0, identity_sigma(hd), indicators=((0,), (0,)))

    def test_rejects_oversized_mask(self):
        hd = micro_distribution(r=1, t=2, k=2)
        with pytest.raises(ValueError):
            DMMInstance(hd, 0, identity_sigma(hd), indicators=((4, 0), (0, 0)))


class TestEnumeration:
    def test_count(self):
        hd = micro_distribution(r=1, t=2, k=2)
        tables = list(enumerate_indicator_tables(hd))
        assert len(tables) == 2 ** (1 * 2 * 2)
        assert len(set(tables)) == len(tables)

    def test_shapes(self):
        hd = micro_distribution(r=2, t=2, k=1)
        for table in enumerate_indicator_tables(hd):
            assert len(table) == 1
            assert len(table[0]) == 2
            assert all(0 <= mask < 4 for mask in table[0])

    def test_infeasible_guard(self):
        hd = micro_distribution(r=3, t=3, k=3)  # 27 bits
        with pytest.raises(ValueError):
            list(enumerate_indicator_tables(hd))
