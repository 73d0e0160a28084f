"""Tests for the experiment registry and every registered experiment."""

import pytest

from repro.experiments import (
    ExperimentReport,
    all_experiments,
    format_value,
    get_experiment,
    render_kv,
    render_rows,
    render_table,
    run_experiment,
)


class TestTables:
    def test_render_table_alignment(self):
        lines = render_table(["a", "long-header"], [[1, 2], [333, 4]])
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_render_table_rejects_ragged(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [[1]])

    def test_format_value(self):
        assert format_value(True) == "yes"
        assert format_value(False) == "no"
        assert format_value(0.0) == "0"
        assert format_value(1234567.0) == "1.235e+06"
        assert format_value(3) == "3"

    def test_render_rows_matches_render_table(self):
        """Each cell is the row's value at its column's key, in column
        order; keys no column names are ignored, a missing one raises."""
        rows = [
            {"n": 16, "bits": 0.25, "ok": True, "unused": "x"},
            {"n": 1024, "bits": 123456.0, "ok": False, "unused": "y"},
        ]
        columns = [("success", "ok"), ("n", "n"), ("max bits", "bits")]
        assert render_rows(columns, rows) == render_table(
            ["success", "n", "max bits"],
            [[True, 16, 0.25], [False, 1024, 123456.0]],
        )
        with pytest.raises(KeyError):
            render_rows([*columns, ("missing", "absent")], rows)

    def test_render_kv(self):
        lines = render_kv([("key", 1), ("longer-key", 2.5)])
        assert len(lines) == 2
        assert lines[0].startswith("key")
        assert render_kv([]) == []


class TestRegistry:
    def test_all_ids_present(self):
        ids = {e.experiment_id for e in all_experiments()}
        expected = {
            "F1", "F2", "P21", "C31", "L33", "L34", "L35",
            "T1a", "T1b", "T2", "L41", "UB-SF", "UB-COL", "UB-2R", "R36",
        }
        assert expected <= ids

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            get_experiment("NOPE")

    def test_report_renders(self):
        report = run_experiment("F1", m=8, k=2)
        text = report.render()
        assert text.startswith("[F1]")
        assert "PUBLIC block" in text


class TestFigureExperiments:
    def test_f1_structure(self):
        data = run_experiment("F1", m=8, k=2, seed=1).data
        assert data["n"] == data["N"] - 2 * data["r"] + 2 * data["r"] * data["k"]
        assert data["num_public"] + data["num_unique"] == data["n"]
        assert 0 <= data["union_special_size"] <= data["k"] * data["r"]

    def test_f2_roundtrip(self):
        data = run_experiment("F2", m=8, k=2, seed=1).data
        assert data["h_vertices"] == 2 * data["n"]
        assert data["h_edges"] == 2 * data["copy_edges"] + data["biclique_edges"]
        assert data["lemma41_iff"]
        assert data["recovered_exactly"]
        assert data["left_clean"] or data["right_clean"]


class TestParameterExperiments:
    def test_p21_rows(self):
        data = run_experiment("P21", ms=[4, 8, 16]).data
        sum_class = [r for r in data["rows"] if "construction" not in r]
        tripartite = [r for r in data["rows"] if r.get("construction") == "tripartite"]
        assert [r["m"] for r in sum_class] == [4, 8, 16]
        for row in sum_class + tripartite:
            assert row["edges"] == row["r"] * row["t"]
            assert row["t"] >= 1
        # The tripartite construction is larger for the same m (3 parts).
        assert tripartite and tripartite[0]["n"] > sum_class[0]["n"]

    def test_c31_regimes(self):
        from repro.lowerbound import micro_distribution, scaled_distribution

        configs = [
            ("below", scaled_distribution(m=10, k=3)),
            ("in", micro_distribution(r=2, t=2, k=30)),
            ("in-scaled", scaled_distribution(m=8, k=150)),
        ]
        data = run_experiment("C31", configs=configs, trials=10, seed=0).data
        rows = {row["config"]: row for row in data["rows"]}
        # The claim's hypothesis does real work: below-regime fails often,
        # in-regime holds at (at least) the paper's probability bound.
        assert rows["below"]["holds_rate"] < 0.5
        assert not rows["below"]["in_regime"]
        for name in ("in", "in-scaled"):
            assert rows[name]["in_regime"]
            assert rows[name]["holds_rate"] >= rows[name]["paper_probability_bound"] - 0.15
        # Chernoff half: mean union size tracks kr/2.
        row = rows["in"]
        assert row["mean_union_size"] == pytest.approx(
            row["expected_union_size"], rel=0.3
        )


class TestLemmaExperiments:
    def test_l33_all_hold(self):
        data = run_experiment("L33").data
        assert all(row["holds"] for row in data["rows"])
        # The full protocol reveals everything, the empty one nothing.
        by_name = {row["protocol"]: row for row in data["rows"]}
        assert by_name["full-neighborhood-matching"]["error"] == pytest.approx(0.0)
        assert by_name["sampled-edges-matching(0)"]["information"] == pytest.approx(0.0)

    def test_l34_all_hold(self):
        data = run_experiment("L34").data
        assert all(row["holds"] for row in data["rows"])

    def test_l35_all_hold(self):
        data = run_experiment("L35", r=1, t=2, k=2).data
        assert all(row["holds"] for row in data["rows"])

    def test_l41_counts(self):
        data = run_experiment("L41", monte_carlo_trials=6, seed=0).data
        ex = data["exhaustive"]
        assert ex["mis_count"] > 0
        assert ex["iff_holds"] == ex["clean_sides"]
        # Easy direction is checked twice (both sides) per MIS.
        assert ex["easy_direction_checks"] == 2 * ex["mis_count"]
        mc = data["monte_carlo"]
        assert mc["iff_holds"] == mc["clean_sides"]


class TestTheoremExperiments:
    def test_t1a_rows_monotone(self):
        data = run_experiment("T1a", ns=[10**3, 10**6]).data
        rows = data["rows"]
        assert rows[0]["theorem1_epsilon_form"] < rows[1]["theorem1_epsilon_form"]
        assert rows[1]["trivial"] == 10**6

    def test_t1b_threshold_shape(self):
        data = run_experiment("T1b", m=10, k=3, trials=8, knobs=[0, 2, 33 + 99]).data
        # knobs beyond n behave like full neighborhood: last point succeeds.
        rows = data["rows"]
        assert rows[-1]["strict_rate"] == 1.0
        assert rows[0]["strict_rate"] <= rows[-1]["strict_rate"]
        assert data["required_bits"] > 0

    def test_t2_full_protocol_recovers(self):
        data = run_experiment("T2", m=8, k=2, trials=5, budgets=[0]).data
        by_name = {row["protocol"]: row for row in data["rows"]}
        assert by_name["full-neighborhood-mis"]["exact_recovery_rate"] == 1.0
        assert by_name["sampled-edges-mis(0)"]["exact_recovery_rate"] < 1.0


class TestUpperBoundExperiments:
    def test_ub_sf(self):
        data = run_experiment("UB-SF", ns=[16], trials=3, seed=0).data
        row = data["rows"][0]
        assert row["agm_success"] >= 2 / 3
        assert row["agm_bits"] > 0

    def test_ub_col(self):
        data = run_experiment("UB-COL", ns=[16], trials=3, seed=0).data
        assert data["rows"][0]["success"] >= 2 / 3

    def test_ub_2r_adaptivity_helps(self):
        data = run_experiment("UB-2R", n=25, trials=4, seed=0).data
        mm_rows = [r for r in data["rows"] if r["protocol"] == "filtering-mm"]
        assert mm_rows[-1]["maximal_rate"] >= mm_rows[0]["maximal_rate"]
        mis_rows = [r for r in data["rows"] if r["protocol"] == "luby-mis"]
        assert mis_rows[-1]["maximal_rate"] == 1.0

    def test_r36_all_demonstrated(self):
        data = run_experiment("R36", m=10, k=3, seed=0).data
        assert data["rs_shared"]
        assert data["referee_slots"]
        assert data["biclique_public_only"]
        assert data["relaxed_output_ok"]


class TestTheorem2DirectSweep:
    def test_direct_mis_attack_threshold(self):
        data = run_experiment("T2", m=8, k=2, trials=5, budgets=[0]).data
        sweep = data["direct_sweep"]
        assert sweep[0]["strict_rate"] <= 0.5  # zero budget fails
        assert sweep[-1]["strict_rate"] == 1.0  # full budget succeeds
        assert sweep[0]["bits"] < sweep[-1]["bits"]
