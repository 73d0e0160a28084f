"""Tests for the execution engine: seeds, cache, backends, determinism.

The engine's contract is that *scheduling never touches results*: the
same plan under the serial backend and under a process pool returns
bit-identical values, and a warm construction cache changes timings
only, never outputs.  These tests pin both halves of that contract,
plus the seed-derivation scheme that replaced the colliding
``base_seed * 1_000_003 + trial`` arithmetic.
"""

import os
import random
import threading
from concurrent.futures.process import BrokenProcessPool

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    ConstructionCache,
    ExecutionEngine,
    ProcessPoolBackend,
    SerialBackend,
    TrialPlan,
    cache_key,
    derive_seed,
    trial_seed,
    trial_seeds,
)
from repro.engine.backends import in_worker_process
from repro.graphs import erdos_renyi, is_maximal_matching
from repro.model import (
    PublicCoins,
    estimate_success_probability,
    run_protocol,
    run_protocol_batch,
)
from repro.protocols import FullNeighborhoodMatching


# ----------------------------------------------------------------------
# Module-level task functions (process pools must pickle them).
# ----------------------------------------------------------------------
def _square_task(trial: int, seed: int) -> tuple:
    return (trial, seed % 97, trial * trial)


def _rng_task(trial: int, seed: int) -> float:
    return random.Random(seed).random()


def _item_double(item: int) -> int:
    return item * 2


def _die_in_worker(item: int) -> int:
    if in_worker_process():
        os._exit(1)
    return item


def _make_graph(trial: int):
    return erdos_renyi(12, 0.4, random.Random(1000 + trial))


@pytest.fixture(scope="module")
def pool_engine():
    engine = ExecutionEngine(workers=2)
    yield engine
    engine.close()


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(7, "ns", 3) == derive_seed(7, "ns", 3)

    def test_distinct_across_components(self):
        assert derive_seed(0, "a", 1) != derive_seed(0, "a", 2)
        assert derive_seed(0, "a", 1) != derive_seed(0, "b", 1)
        assert derive_seed(0, "a", 1) != derive_seed(1, "a", 1)

    def test_old_scheme_collision_resolved(self):
        """(0, 1000003) and (1, 0) collided under base*1_000_003+trial."""
        assert trial_seed(0, 1_000_003) != trial_seed(1, 0)

    def test_trial_seeds_match_trial_seed(self):
        seeds = trial_seeds(5, 4, namespace="x")
        assert seeds == [trial_seed(5, t, "x") for t in range(4)]
        assert len(set(seeds)) == 4

    def test_seeds_fit_rng_range(self):
        for t in range(50):
            s = trial_seed(0, t)
            assert 0 <= s < 2**63

    @given(
        base=st.integers(min_value=0, max_value=2**32),
        trials=st.lists(
            st.integers(min_value=0, max_value=10_000), min_size=2,
            max_size=8, unique=True,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_no_collisions_within_namespace(self, base, trials):
        seeds = {trial_seed(base, t) for t in trials}
        assert len(seeds) == len(trials)


class TestConstructionCache:
    def test_miss_then_hit(self):
        cache = ConstructionCache()
        calls = []
        build = lambda: calls.append(1) or "value"  # noqa: E731
        assert cache.get_or_build(("k", 1), lambda: "value") == "value"
        assert cache.get_or_build(("k", 1), build) == "value"
        assert not calls  # second call was a hit
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_parameter_change_is_miss(self):
        cache = ConstructionCache()
        assert cache.get_or_build(("k", 1), lambda: "a") == "a"
        assert cache.get_or_build(("k", 2), lambda: "b") == "b"
        assert cache.stats.misses == 2 and cache.stats.hits == 0

    def test_disabled_cache_bypasses(self):
        cache = ConstructionCache(enabled=False)
        assert cache.get_or_build(("k",), lambda: 1) == 1
        assert cache.get_or_build(("k",), lambda: 2) == 2  # rebuilt
        assert cache.stats.bypasses == 2
        assert len(cache) == 0

    def test_lru_eviction(self):
        cache = ConstructionCache(max_entries=2)
        cache.get_or_build(("a",), lambda: 1)
        cache.get_or_build(("b",), lambda: 2)
        cache.get_or_build(("a",), lambda: 1)  # refresh a
        cache.get_or_build(("c",), lambda: 3)  # evicts b
        assert len(cache) == 2
        cache.get_or_build(("b",), lambda: 4)
        assert cache.stats.misses == 4  # b was rebuilt

    def test_disk_tier_round_trip(self, tmp_path):
        first = ConstructionCache(directory=tmp_path)
        first.get_or_build(("expensive", 42), lambda: {"n": 42})
        # A fresh process-equivalent: new cache instance, same directory.
        second = ConstructionCache(directory=tmp_path)
        value = second.get_or_build(
            ("expensive", 42), lambda: pytest.fail("should load from disk")
        )
        assert value == {"n": 42}
        assert second.stats.disk_hits == 1

    def test_corrupt_disk_file_is_miss(self, tmp_path):
        cache = ConstructionCache(directory=tmp_path)
        cache.get_or_build(("k",), lambda: "good")
        pkl = next(tmp_path.glob("*.pkl"))
        pkl.write_bytes(b"not a pickle")
        fresh = ConstructionCache(directory=tmp_path)
        assert fresh.get_or_build(("k",), lambda: "rebuilt") == "rebuilt"
        assert fresh.stats.misses == 1

    def test_cache_key_stability_and_schema(self):
        assert cache_key(("a", 1)) == cache_key(("a", 1))
        assert cache_key(("a", 1)) != cache_key(("a", 2))
        assert cache_key(("a", 1)) != cache_key(("a", "1"))


class TestBackends:
    def test_serial_preserves_order(self):
        assert SerialBackend().map(_item_double, [3, 1, 2]) == [6, 2, 4]

    def test_pool_matches_serial(self, pool_engine):
        items = list(range(40))
        serial = SerialBackend().map(_item_double, items)
        parallel = pool_engine.backend_for(len(items)).map(_item_double, items)
        assert parallel == serial

    def test_unpicklable_falls_back_to_serial(self):
        backend = ProcessPoolBackend(workers=2)
        try:
            result = backend.map(lambda x: x + 1, [1, 2, 3])
        finally:
            backend.close()
        assert result == [2, 3, 4]
        assert backend.serial_fallbacks == 1

    def test_unpicklable_later_item_falls_back_to_serial(self):
        backend = ProcessPoolBackend(workers=2)
        lock = threading.Lock()
        try:
            assert backend.map(type, [1, 2, lock, 4]) == [int, int, type(lock), int]
            assert backend.serial_fallbacks == 1
            # The pool itself is untouched: the next batch runs on it.
            assert backend.map(_item_double, [1, 2, 3]) == [2, 4, 6]
            assert backend.serial_fallbacks == 1
        finally:
            backend.close()

    def test_task_errors_propagate_from_the_pool(self):
        backend = ProcessPoolBackend(workers=2)
        try:
            with pytest.raises(ValueError):
                backend.map(int, ["1", "2", "x", "4"])
            assert backend.serial_fallbacks == 0
        finally:
            backend.close()

    def test_pool_recovers_after_a_worker_dies(self):
        backend = ProcessPoolBackend(workers=2)
        try:
            with pytest.raises(BrokenProcessPool):
                backend.map(_die_in_worker, [1, 2, 3])
            assert backend.map(_item_double, [1, 2, 3]) == [2, 4, 6]
        finally:
            backend.close()

    def test_not_in_worker_in_main_process(self):
        assert not in_worker_process()


class TestExecutionEngine:
    def test_default_is_serial(self):
        engine = ExecutionEngine()
        assert engine.describe() == "serial"
        assert engine.backend_for(1000) is engine._serial

    def test_auto_thresholds_by_batch_size(self):
        engine = ExecutionEngine(workers="auto", parallel_threshold=8)
        try:
            assert engine.backend_for(4).name == "serial"
            assert engine.backend_for(8).name == "process-pool"
        finally:
            engine.close()

    def test_fixed_workers_parallelize_small_batches(self, pool_engine):
        assert pool_engine.backend_for(2).name == "process-pool"
        assert pool_engine.backend_for(1).name == "serial"

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            ExecutionEngine(workers=0)

    def test_run_trials_serial_parallel_identical(self, pool_engine):
        plan = TrialPlan(fn=_rng_task, trials=24, base_seed=9, namespace="t")
        serial = ExecutionEngine().run_trials(plan)
        parallel = pool_engine.run_trials(plan)
        assert serial.values == parallel.values
        assert [r.seed for r in serial.results] == [
            r.seed for r in parallel.results
        ]

    def test_trial_results_tagged_with_plan_seeds(self):
        plan = TrialPlan(fn=_square_task, trials=5, base_seed=3, namespace="q")
        batch = ExecutionEngine().run_trials(plan)
        for r in batch.results:
            assert r.seed == plan.seed_for(r.trial)


class TestModelBatchAPI:
    def test_run_protocol_batch_matches_manual_runs(self):
        protocol = FullNeighborhoodMatching()
        plan = TrialPlan(
            fn=_square_task, trials=3, base_seed=5, namespace="protocol-batch"
        )
        runs = run_protocol_batch(_make_graph, protocol, trials=3, base_seed=5)
        for trial, run in enumerate(runs):
            expected = run_protocol(
                _make_graph(trial),
                protocol,
                PublicCoins(seed=plan.seed_for(trial)),
            )
            assert run.output == expected.output
            assert run.transcript == expected.transcript

    def test_estimate_success_is_batch_fraction(self):
        protocol = FullNeighborhoodMatching()
        rate = estimate_success_probability(
            _make_graph, protocol, is_maximal_matching, trials=6, base_seed=2
        )
        runs = run_protocol_batch(_make_graph, protocol, trials=6, base_seed=2)
        manual = sum(
            is_maximal_matching(_make_graph(t), run.output)
            for t, run in enumerate(runs)
        ) / 6
        assert rate == manual

    def test_trials_must_be_positive(self):
        protocol = FullNeighborhoodMatching()
        with pytest.raises(ValueError):
            run_protocol_batch(_make_graph, protocol, trials=0)
        with pytest.raises(ValueError):
            estimate_success_probability(
                _make_graph, protocol, is_maximal_matching, trials=0
            )

    @given(
        trials=st.integers(min_value=1, max_value=8),
        base_seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=10, deadline=None)
    def test_property_serial_parallel_bit_identical(
        self, trials, base_seed, pool_engine
    ):
        """The headline determinism contract, property-tested: transcripts
        and success estimates agree bit-for-bit across backends."""
        protocol = FullNeighborhoodMatching()
        serial_engine = ExecutionEngine()
        serial_runs = run_protocol_batch(
            _make_graph, protocol, trials=trials, base_seed=base_seed,
            engine=serial_engine,
        )
        pool_runs = run_protocol_batch(
            _make_graph, protocol, trials=trials, base_seed=base_seed,
            engine=pool_engine,
        )
        assert [r.transcript for r in serial_runs] == [
            r.transcript for r in pool_runs
        ]
        assert [r.output for r in serial_runs] == [r.output for r in pool_runs]
        assert estimate_success_probability(
            _make_graph, protocol, is_maximal_matching, trials=trials,
            base_seed=base_seed, engine=serial_engine,
        ) == estimate_success_probability(
            _make_graph, protocol, is_maximal_matching, trials=trials,
            base_seed=base_seed, engine=pool_engine,
        )


class TestExperimentDeterminism:
    def test_attack_identical_across_backends(self, pool_engine):
        from repro.lowerbound import attack_with_matching_protocol, scaled_distribution
        from repro.protocols import SampledEdgesMatching

        hard = scaled_distribution(m=8, k=2)
        serial = attack_with_matching_protocol(
            hard, SampledEdgesMatching(1), trials=5, seed=3,
            engine=ExecutionEngine(),
        )
        parallel = attack_with_matching_protocol(
            hard, SampledEdgesMatching(1), trials=5, seed=3, engine=pool_engine
        )
        assert serial == parallel
        assert serial.trials == 5

    def test_warm_cache_changes_timings_not_outputs(self):
        """A warm cache returns the identical object, so downstream
        sampling from it is bit-identical to the cold-cache run."""
        from repro.lowerbound import sample_dmm_family, scaled_distribution

        hard = scaled_distribution(m=8, k=2)
        cold = sample_dmm_family(hard, trials=4, base_seed=1)
        warm = sample_dmm_family(hard, trials=4, base_seed=1)
        assert len(cold) == 4
        assert warm is cold  # cached family object
        rebuilt = scaled_distribution(m=8, k=2)
        assert rebuilt.cache_token == hard.cache_token
