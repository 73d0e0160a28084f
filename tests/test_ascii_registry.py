"""Tests for the ASCII figure renderers and registry edge cases."""

import random

import pytest

from repro.experiments.ascii_art import render_figure1, render_figure2
from repro.experiments.registry import Experiment, ExperimentReport, register
from repro.lowerbound import micro_distribution, sample_dmm, scaled_distribution


class TestFigure1Rendering:
    def _instance(self, m=8, k=3, seed=0):
        return sample_dmm(scaled_distribution(m=m, k=k), random.Random(seed))

    def test_mentions_parameters(self):
        inst = self._instance()
        text = "\n".join(render_figure1(inst))
        hard = inst.hard
        assert f"N={hard.N}" in text
        assert f"k={hard.k}" in text
        assert f"j*={inst.j_star}" in text

    def test_public_block_lists_labels(self):
        inst = self._instance()
        text = "\n".join(render_figure1(inst))
        assert "PUBLIC block" in text
        for label in sorted(inst.public_labels)[:3]:
            assert f"{label:>3}" in text

    def test_copy_limit(self):
        inst = self._instance(k=5)
        text = "\n".join(render_figure1(inst, max_copies=2))
        assert "copy G_0" in text and "copy G_1" in text
        assert "copy G_2" not in text
        assert "3 more copies" in text

    def test_dropped_edges_marked(self):
        # Find an instance with at least one dropped special edge.
        for seed in range(20):
            inst = self._instance(seed=seed)
            total_slots = inst.hard.k * inst.hard.r
            if len(inst.union_special_matching) < total_slots:
                text = "\n".join(render_figure1(inst))
                assert "(dropped)" in text
                return
        pytest.fail("no instance with dropped edges found")

    def test_micro_instance_renders(self):
        inst = sample_dmm(micro_distribution(1, 2, 2), random.Random(1))
        lines = render_figure1(inst)
        assert len(lines) > 5


class TestFigure2Rendering:
    def test_counts_match_instance(self):
        inst = sample_dmm(scaled_distribution(m=8, k=2), random.Random(2))
        text = "\n".join(render_figure2(inst))
        assert f"2n = {2 * inst.hard.n}" in text
        assert f"{len(inst.public_labels) ** 2} edges" in text
        assert "biclique" in text


class TestRegistryEdgeCases:
    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):

            @register("F1", "duplicate", "nowhere")
            def dup() -> ExperimentReport:  # pragma: no cover
                raise AssertionError

    def test_run_stamps_registered_id_and_title(self):
        """A runner returns ``(lines, data)``; the report takes the
        experiment's own id and title."""
        experiment = Experiment(
            experiment_id="ZZZ",
            title="test title",
            paper_reference="nowhere",
            runner=lambda: (["a", "b"], {"x": 1}),
        )
        assert experiment.run() == ExperimentReport(
            "ZZZ", "test title", ("a", "b"), {"x": 1}
        )

    def test_report_render_includes_header(self):
        report = ExperimentReport(
            experiment_id="ZZZ", title="test title", lines=("a", "b")
        )
        rendered = report.render()
        assert rendered.startswith("[ZZZ] test title")
        assert rendered.endswith("a\nb")

    def test_report_data_defaults_empty(self):
        report = ExperimentReport(experiment_id="Z", title="t", lines=())
        assert report.data == {}
