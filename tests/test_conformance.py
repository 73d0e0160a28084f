"""Conformance subsystem: registry, laws, fuzz driver, shrinker, bundles.

``test_registry_cases_conform`` is the one place the test suite compares
fast paths with their references: every oracle pair's own generator,
differential and laws, on Hypothesis-drawn seeds.  The rest of this file
tests the *machinery* — that case generation is deterministic and
replayable, that the budget splitter and law registry are complete, and
(the load-bearing part) that an injected fault in a fast implementation
is caught, shrunk to a 1-minimal counterexample, and survives a bundle
round-trip.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conformance import (
    LAWS,
    ORACLE_PAIRS,
    Case,
    all_layers,
    all_pairs,
    budget_shares,
    case_seed,
    failed_laws,
    get_pair,
    laws_for,
    pairs_for_layers,
    replay_bundle,
    run_conformance,
    shrink_case,
)
from repro.graphs import FrozenGraph


@pytest.mark.parametrize("pair", all_pairs(), ids=lambda pair: pair.name)
@given(seed=st.integers(0, 2**63 - 1))
@settings(max_examples=200, deadline=None)
def test_registry_cases_conform(pair, seed):
    case = pair.generate(seed)
    bad = [verdict for verdict in pair.check(case) if not verdict.ok]
    assert not bad, "\n".join(
        [*(verdict.describe() for verdict in bad), json.dumps(case.to_json())]
    )


class TestRegistry:
    def test_every_layer_has_a_pair(self):
        assert {p.layer for p in ORACLE_PAIRS} == {
            "codec", "graphs", "infotheory", "sketches", "engine", "lemmas",
        }

    def test_pair_names_unique(self):
        names = [p.name for p in all_pairs()]
        assert len(names) == len(set(names))

    def test_get_pair_roundtrip(self):
        for pair in ORACLE_PAIRS:
            assert get_pair(pair.name) is pair

    def test_get_pair_unknown(self):
        with pytest.raises(KeyError):
            get_pair("nope")

    def test_pairs_for_layers_filters(self):
        assert [p.name for p in pairs_for_layers(["codec"])] == ["codec"]
        assert pairs_for_layers(None) == all_pairs()

    def test_pairs_for_layers_unknown_layer(self):
        with pytest.raises(KeyError):
            pairs_for_layers(["nope"])

    def test_every_layer_has_a_law(self):
        covered = set()
        for law in LAWS:
            covered |= set(law.layers)
        assert covered >= set(all_layers())

    def test_laws_for_matches_declared_layers(self):
        for layer in all_layers():
            names = {law.name for law in laws_for(layer)}
            expected = {law.name for law in LAWS if layer in law.layers}
            assert names == expected
            assert names  # every layer owns at least one law
        # The serialize/deserialize law covers every data layer; the
        # engine layer (whose "data" is a transcript batch) is pinned by
        # the determinism law instead.
        assert "roundtrip" in {law.name for law in laws_for("codec")}
        assert "determinism" in {law.name for law in laws_for("engine")}


class TestCaseModel:
    def test_generation_is_deterministic(self):
        for pair in ORACLE_PAIRS:
            a = pair.case_for(7, 3)
            b = pair.case_for(7, 3)
            assert a == b
            assert a.to_json() == b.to_json()

    def test_distinct_indices_distinct_seeds(self):
        pair = get_pair("codec")
        seeds = {pair.case_for(0, i).seed for i in range(20)}
        assert len(seeds) == 20

    def test_case_seed_matches_stream(self):
        pair = get_pair("graphs")
        assert pair.case_for(5, 9).seed == case_seed(5, "graphs", 9)

    def test_json_roundtrip_exact(self):
        for pair in ORACLE_PAIRS:
            case = pair.case_for(11, 0)
            # Through an actual JSON string, as a bundle would travel.
            blob = json.loads(json.dumps(case.to_json()))
            assert Case.from_json(blob) == case

    def test_from_json_rejects_future_version(self):
        blob = get_pair("codec").case_for(0, 0).to_json()
        blob["version"] = 999
        with pytest.raises(ValueError):
            Case.from_json(blob)

    def test_law_rng_isolated_from_path(self):
        case = get_pair("codec").case_for(0, 0)
        assert case.rng("a").random() != case.rng("b").random()
        assert case.rng("a").random() == case.rng("a").random()


class TestBudget:
    def test_shares_sum_to_budget(self):
        pairs = all_pairs()
        # From one case per pair up: below that, every pair still gets one.
        for budget in (len(pairs), 7, 40, 200, 210):
            shares = budget_shares(pairs, budget)
            assert sum(shares.values()) == budget
            assert all(v >= 1 for v in shares.values())

    def test_shares_follow_weights(self):
        shares = budget_shares(all_pairs(), 200)
        assert shares["codec"] > shares["engine"]

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            budget_shares(all_pairs(), 0)


class TestSweep:
    def test_small_sweep_passes_every_pair(self):
        report = run_conformance(seed=0, budget=len(ORACLE_PAIRS))
        assert report.ok
        assert report.total_cases == len(ORACLE_PAIRS)
        assert set(report.stats) == {p.name for p in ORACLE_PAIRS}
        assert all(s.failures == 0 for s in report.stats.values())

    def test_layer_filter_restricts_stats(self):
        report = run_conformance(seed=0, budget=6, layers=["codec", "graphs"])
        assert set(report.stats) == {"codec", "graphs"}
        assert report.ok

    def test_render_mentions_every_pair(self):
        report = run_conformance(seed=1, budget=5, layers=["infotheory"])
        text = report.render()
        assert "infotheory" in text and "[ok]" in text

    def test_bundle_of_clean_run(self):
        report = run_conformance(seed=0, budget=5, layers=["codec"])
        bundle = report.to_bundle()
        assert bundle["ok"] is True
        assert bundle["failures"] == []
        assert bundle["version"] == 1


class _LyingDegree:
    """Patch FrozenGraph.degree to lie about one vertex — a seeded fault
    in the fast path that the graphs oracle pair must catch."""

    def __init__(self, monkeypatch, vertex=3):
        real = FrozenGraph.degree

        def lying(self_graph, v):
            value = real(self_graph, v)
            if v == vertex:
                return value + 1
            return value

        monkeypatch.setattr(FrozenGraph, "degree", lying)


class TestFaultInjection:
    def test_fault_is_caught_and_shrunk(self, monkeypatch):
        _LyingDegree(monkeypatch)
        report = run_conformance(seed=0, budget=30, layers=["graphs"])
        assert not report.ok
        failure = report.failures[0]
        assert failure.pair == "graphs"
        assert failure.laws
        # Greedy deletion reached a 1-minimal case: no single remaining
        # atom can be removed while still reproducing the failure.
        pair = get_pair("graphs")
        target = set(failure.laws)
        atoms = failure.shrunk.atoms
        assert 0 < len(atoms) < len(failure.case.atoms)
        for i in range(len(atoms)):
            smaller = failure.shrunk.replace_atoms(atoms[:i] + atoms[i + 1:])
            assert not (target & set(failed_laws(pair.check(smaller))))

    def test_bundle_replays_the_fault(self, monkeypatch):
        _LyingDegree(monkeypatch)
        report = run_conformance(seed=0, budget=20, layers=["graphs"])
        assert not report.ok
        bundle = json.loads(json.dumps(report.to_bundle()))
        reproduced = replay_bundle(bundle, reshrink=False)
        assert len(reproduced) == len(report.failures)
        assert reproduced[0].laws == report.failures[0].laws

    def test_bundle_passes_once_fault_is_fixed(self, monkeypatch):
        _LyingDegree(monkeypatch)
        report = run_conformance(seed=0, budget=20, layers=["graphs"])
        bundle = json.loads(json.dumps(report.to_bundle()))
        monkeypatch.undo()
        assert replay_bundle(bundle) == []

    def test_shrink_refuses_passing_case(self):
        pair = get_pair("codec")
        case = pair.case_for(0, 0)
        with pytest.raises(ValueError):
            shrink_case(pair, case)

    def test_check_never_raises_on_degenerate_case(self):
        # The shrinker may hand any pair an empty atom list; that must
        # come back as verdicts (possibly vacuous passes), not a crash.
        for pair in ORACLE_PAIRS:
            case = pair.case_for(0, 0).replace_atoms(())
            verdicts = pair.check(case)
            assert isinstance(verdicts, list)
