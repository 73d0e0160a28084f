"""Tests for the execution engine: seeds, cache, backends, determinism.

The engine's contract is that *scheduling never touches results*: the
same items, each carrying its derived seed, mapped under the serial
backend and under a process pool return bit-identical values, and a
warm construction cache changes timings only, never outputs.  These
tests pin both halves of that contract, plus the seed-derivation scheme
that replaced the colliding ``base_seed * 1_000_003 + trial``
arithmetic, and the ``REPRO_WORKERS`` rule.
"""

import os
import random
import threading
from concurrent.futures.process import BrokenProcessPool

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    AUTO_PARALLEL_THRESHOLD,
    ConstructionCache,
    ExecutionEngine,
    ProcessPoolBackend,
    SerialBackend,
    cache_key,
    default_engine,
    derive_seed,
    workers_from_env,
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
def _seeded_items(base: int, namespace: str, trials: int) -> list[tuple]:
    """One ``(trial, seed)`` item per trial, as the experiments build them."""
    return [(t, derive_seed(base, namespace, t)) for t in range(trials)]


def _rng_task(item: tuple) -> tuple:
    trial, seed = item
    return (trial, seed, random.Random(seed).random())


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
        assert derive_seed(0, "trial", 1_000_003) != derive_seed(1, "trial", 0)

    def test_trial_seeds_match_trial_seed(self):
        """A batch's item seeds are the per-trial derivations, all distinct."""
        items = _seeded_items(5, "x", 4)
        assert [seed for _t, seed in items] == [
            derive_seed(5, "x", t) for t in range(4)
        ]
        assert len({seed for _t, seed in items}) == 4

    def test_seeds_fit_rng_range(self):
        for t in range(50):
            s = derive_seed(0, "trial", t)
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
        seeds = {derive_seed(base, "trial", t) for t in trials}
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
        engine = ExecutionEngine(workers="auto")
        try:
            assert engine.backend_for(AUTO_PARALLEL_THRESHOLD - 1).name == "serial"
            assert (
                engine.backend_for(AUTO_PARALLEL_THRESHOLD).name == "process-pool"
            )
        finally:
            engine.close()

    def test_fixed_workers_parallelize_small_batches(self, pool_engine):
        assert pool_engine.backend_for(2).name == "process-pool"
        assert pool_engine.backend_for(1).name == "serial"

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            ExecutionEngine(workers=0)

    def test_run_trials_serial_parallel_identical(self, pool_engine):
        """One list of derived-seed items maps identically on both backends."""
        items = _seeded_items(9, "t", 24)
        assert pool_engine.backend_for(len(items)).name == "process-pool"
        serial = ExecutionEngine().map(_rng_task, items)
        parallel = pool_engine.map(_rng_task, items)
        assert serial == parallel
        assert [(t, seed) for t, seed, _value in parallel] == items

    def test_trial_results_tagged_with_plan_seeds(self, pool_engine):
        """Results come back in item order, each with its item's seed."""
        items = _seeded_items(3, "q", 5)
        for engine in (ExecutionEngine(), pool_engine):
            results = engine.map(_rng_task, items)
            assert [(t, seed) for t, seed, _value in results] == items
            assert [value for _t, _seed, value in results] == [
                random.Random(seed).random() for _t, seed in items
            ]


@pytest.fixture
def fresh_default_engine(monkeypatch):
    """Let ``default_engine()`` read REPRO_WORKERS afresh; restored after."""
    import repro.engine.core as core

    monkeypatch.setattr(core, "_default_engine", None)
    yield
    if core._default_engine is not None:
        core._default_engine.close()


class TestWorkersFromEnv:
    """``REPRO_WORKERS`` follows the ``--workers`` rule; a bad value raises."""

    @pytest.mark.parametrize("raw", ["0", "-3", "abc"])
    def test_malformed_value_names_the_variable(self, raw, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", raw)
        with pytest.raises(ValueError, match=f"REPRO_WORKERS='{raw}'"):
            workers_from_env()

    @pytest.mark.parametrize("raw", ["0", "-3", "abc"])
    def test_default_engine_refuses_a_malformed_value(
        self, raw, monkeypatch, fresh_default_engine
    ):
        monkeypatch.setenv("REPRO_WORKERS", raw)
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            default_engine()

    @pytest.mark.parametrize("raw", ["0", "-3", "abc"])
    def test_build_engine_refuses_a_malformed_value(
        self, raw, monkeypatch, fresh_default_engine
    ):
        from repro.runs import build_engine

        monkeypatch.setenv("REPRO_WORKERS", raw)
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            build_engine()

    @pytest.mark.parametrize(
        "raw, workers, policy",
        [
            ("2", 2, "process-pool(2, fixed)"),
            ("auto", "auto", "auto)"),
            ("", None, "serial"),
        ],
    )
    def test_valid_values_are_accepted(
        self, raw, workers, policy, monkeypatch, fresh_default_engine
    ):
        monkeypatch.setenv("REPRO_WORKERS", raw)
        assert workers_from_env() == workers
        assert policy in default_engine().describe()


class TestModelBatchAPI:
    def test_run_protocol_batch_matches_manual_runs(self):
        protocol = FullNeighborhoodMatching()
        runs = run_protocol_batch(_make_graph, protocol, trials=3, base_seed=5)
        for trial, run in enumerate(runs):
            expected = run_protocol(
                _make_graph(trial),
                protocol,
                PublicCoins(seed=derive_seed(5, "protocol-batch", trial)),
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
