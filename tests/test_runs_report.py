"""Tests for store-backed report generation and record inspection.

The acceptance property lives here: ``repro report`` regenerated from a
warm store reproduces each experiment section *bit for bit* from the
stored records — checked for T1a, T1b, and C31 against both a live run
and a from-scratch report.

Every section and ``runs show`` also name each declared paper-claim
check with its verdict, judged on the stored data.
"""

import dataclasses
import re

import pytest

from repro.experiments import get_experiment
from repro.runs import (
    RunStore,
    diff_records,
    execute_run,
    format_record,
    format_records_table,
    generate_report,
)

ACCEPTANCE_IDS = ["T1a", "T1b", "C31"]


def _sections(text: str) -> dict[str, str]:
    """Split a report into its ``## <id>`` sections."""
    parts = re.split(r"(?m)^## ", text)
    out = {}
    for part in parts[1:]:
        exp_id, _, body = part.partition("\n")
        out[exp_id.strip()] = body
    return out


class TestGenerateReport:
    @pytest.fixture(scope="class")
    def warm(self, tmp_path_factory):
        """One store + first report shared by the class (runs C31 once)."""
        store = RunStore(tmp_path_factory.mktemp("runs"))
        text, outcomes = generate_report(
            store, experiment_ids=ACCEPTANCE_IDS
        )
        return store, text, outcomes

    def test_first_pass_executes_and_stores(self, warm):
        store, _, outcomes = warm
        assert all(o.executed for o in outcomes)
        assert len(store) == len(ACCEPTANCE_IDS)

    def test_regenerated_report_is_bit_identical(self, warm):
        store, first, _ = warm
        second, outcomes = generate_report(
            store, experiment_ids=ACCEPTANCE_IDS
        )
        assert all(o.cached for o in outcomes)
        assert second == first

    def test_sections_match_stored_records_bit_for_bit(self, warm):
        store, text, outcomes = warm
        sections = _sections(text)
        for outcome in outcomes:
            record = outcome.record
            body = sections[record.experiment_id]
            fenced = body.split("```text\n", 1)[1].split("\n```", 1)[0]
            assert fenced == "\n".join(record.lines)
            assert f"_(ran in {record.wall_time:.2f}s)_" in body

    def test_sections_match_live_run_bit_for_bit(self, warm):
        from repro.experiments import run_experiment

        store, text, _ = warm
        sections = _sections(text)
        for exp_id in ACCEPTANCE_IDS:
            live = run_experiment(exp_id)
            fenced = (
                sections[exp_id]
                .split("```text\n", 1)[1]
                .split("\n```", 1)[0]
            )
            assert fenced == "\n".join(live.lines), exp_id

    def test_report_written_to_path(self, warm, tmp_path):
        store, first, _ = warm
        out = tmp_path / "REPORT.md"
        text, _ = generate_report(
            store, out, experiment_ids=ACCEPTANCE_IDS
        )
        assert out.read_text() == text == first

    def test_header_and_contents(self, warm):
        _, text, _ = warm
        lines = text.splitlines()
        assert lines[0] == "# Reproduction report (auto-generated)"
        assert "## Contents" in lines
        for exp_id in ACCEPTANCE_IDS:
            assert any(
                line.startswith(f"* [{exp_id} — ") for line in lines
            ), exp_id

    def test_sections_name_every_check_with_its_verdict(self, warm):
        _, text, _ = warm
        sections = _sections(text)
        checks = {e: get_experiment(e).checks for e in ACCEPTANCE_IDS}
        for exp_id, names in checks.items():
            assert f"Checks: {len(names)} of {len(names)} held." in sections[exp_id]
            for name in names:
                assert f"* `{name}`: held" in sections[exp_id], (exp_id, name)
        total = sum(map(len, checks.values()))
        assert f"Paper-claim checks: {total} of {total} held." in text

    def test_fresh_supersedes_stored_records(self, warm):
        store, _, _ = warm
        text, outcomes = generate_report(
            store, experiment_ids=["T1a"], fresh=True
        )
        assert outcomes[0].executed
        assert "## T1a" in text


class TestInspectionViews:
    def _two_records(self, tmp_path):
        store = RunStore(tmp_path / "runs")
        a = execute_run("F1", {"m": 8, "k": 2}, store=store).record
        b = execute_run("F1", {"m": 10, "k": 2}, store=store).record
        return store, a, b

    def test_list_table(self, tmp_path):
        store, a, b = self._two_records(tmp_path)
        lines = format_records_table(store.records())
        assert lines[0].split() == [
            "key", "experiment", "seed", "mode", "version", "wall", "backend",
        ]
        assert len(lines) == 3
        assert any(a.key[:12] in line for line in lines[1:])

    def test_list_empty(self):
        assert format_records_table([]) == ["(no stored runs)"]

    def test_show_contains_key_params_and_lines(self, tmp_path):
        _, a, _ = self._two_records(tmp_path)
        text = "\n".join(format_record(a))
        assert a.key in text
        assert '"m":8' in text
        assert a.lines[0] in text

    def test_broken_stored_data_renders_the_check_failed(self, tmp_path):
        """Verdicts are judged on the stored data at render time: a record
        whose data breaks one claim shows that check, and only that one,
        as failed in REPORT.md and in ``runs show``."""
        store = RunStore(tmp_path / "runs")
        record = execute_run("F1", store=store).record
        kr = record.data["k"] * record.data["r"]
        broken = dict(record.data, union_special_size=kr + 1)
        store.put(dataclasses.replace(record, data=broken))
        text, outcomes = generate_report(store, experiment_ids=["F1"])
        assert outcomes[0].cached
        body = _sections(text)["F1"]
        shown = format_record(store.get(record.key))
        names = get_experiment("F1").checks
        assert f"Checks: {len(names) - 1} of {len(names)} held." in body
        assert f"checks     : {len(names) - 1} of {len(names)} held" in shown
        for name in names:
            verdict = "FAILED" if name == "special_union_at_most_kr" else "held"
            assert f"* `{name}`: {verdict}" in body
            assert f"  {name} = {verdict}" in shown

    def test_diff_reports_param_and_data_drift(self, tmp_path):
        _, a, b = self._two_records(tmp_path)
        text = "\n".join(diff_records(a, b))
        assert "param m: 8 -> 10" in text

    def test_diff_of_identical_records_is_clean(self, tmp_path):
        _, a, _ = self._two_records(tmp_path)
        assert "(records agree on params and data)" in diff_records(a, a)
