"""Tests for HybridMatching and the repository scripts."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.graphs import (
    complete_graph,
    cycle_graph,
    is_maximal_matching,
    star_graph,
)
from repro.lowerbound import attack_with_matching_protocol, scaled_distribution
from repro.model import PublicCoins, run_protocol
from repro.protocols import HybridMatching, LowDegreeOnlyMatching

REPO = Path(__file__).resolve().parent.parent


class TestHybridMatching:
    def test_rejects_negative_params(self):
        with pytest.raises(ValueError):
            HybridMatching(-1, 2)
        with pytest.raises(ValueError):
            HybridMatching(2, -1)

    def test_low_degree_graph_exact(self):
        g = cycle_graph(12)
        run = run_protocol(g, HybridMatching(2, 0), PublicCoins(0))
        assert is_maximal_matching(g, run.output)

    def test_high_degree_still_sampled(self):
        """Unlike low-degree-only, the hybrid keeps dense players talking."""
        g = complete_graph(12)
        silent = run_protocol(g, LowDegreeOnlyMatching(3), PublicCoins(1))
        hybrid = run_protocol(g, HybridMatching(3, 2), PublicCoins(1))
        assert len(silent.output) == 0
        assert len(hybrid.output) > 0

    def test_star_center_capped(self):
        g = star_graph(20)
        run = run_protocol(g, HybridMatching(2, 1), PublicCoins(2))
        # Leaves reveal everything; output is a maximal (single-edge) matching.
        assert is_maximal_matching(g, run.output)

    def test_dominates_low_degree_only_on_dmm(self):
        hard = scaled_distribution(m=12, k=4)
        cap = max(2, hard.rs.graph.max_degree() // 2)
        hybrid = attack_with_matching_protocol(
            hard, HybridMatching(cap, 2), trials=10, seed=3
        )
        silent = attack_with_matching_protocol(
            hard, LowDegreeOnlyMatching(cap), trials=10, seed=3
        )
        assert hybrid.strict_success_rate >= silent.strict_success_rate


class TestScripts:
    def test_run_experiments_subset(self):
        """``python -m repro run-all F1 P21``, which runs the reproduction.

        The id is older than the command: it named the script that
        ``run-all`` replaced.
        """
        out = subprocess.run(
            [sys.executable, "-m", "repro", "run-all", "F1", "P21"],
            cwd=REPO,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert out.returncode == 0
        assert "[F1]" in out.stdout and "[P21]" in out.stdout

    def test_generate_report(self, tmp_path):
        """``python -m repro report``, the command ``make report`` runs.

        The id is older than the command: it named the report script
        this command replaced, and is kept so results stay comparable
        across versions.
        """
        target = tmp_path / "report.md"
        out = subprocess.run(
            [sys.executable, "-m", "repro", "report", "--out", str(target)],
            cwd=REPO,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert out.returncode == 0
        text = target.read_text()
        assert "# Reproduction report" in text
        assert "## T1b" in text
        assert "## XCC" in text
