"""Engine-flag interactions: every combination must agree bit for bit.

``--workers N`` and ``--exact`` each swap an implementation (process
pool vs serial, Fraction vs float probability kernel) without touching
the math.  This matrix pins that contract through the real CLI: the same
attack/run invocation under every flag combination prints identical
stable output lines.  Batched vs per-view sketch construction is not a
flag: ``run_protocol`` takes the per-view path when ``views=`` is
passed, and the transcripts of the two paths must be bit-identical.

``_build_engine`` installs process-global state (default engine and
cache); the autouse fixture restores both so the matrix cannot leak
configuration into other test files.
"""

import random

import pytest

from repro.cli import main
from repro.engine import ExecutionEngine, configure_cache, set_default_engine
from repro.graphs.builders import erdos_renyi
from repro.model import PublicCoins, run_protocol
from repro.model.views import views_of
from repro.protocols import make_protocol

#: The one registry protocol the whole matrix runs.
SPEC = "sampled:2"
ATTACK = ["attack", SPEC, "--m", "8", "--k", "2", "--trials", "4"]
RUN = ["run", "L33", "--kw", "r=1", "t=2", "k=2"]


@pytest.fixture(autouse=True)
def _restore_engine_globals():
    yield
    configure_cache()
    set_default_engine(ExecutionEngine())


def _stable_lines(text: str) -> list[str]:
    """Output lines that must not depend on engine flags.

    The engine summary line carries wall clock, backend policy, and
    cache traffic — all flag-dependent by design — so it is excluded;
    everything else (results, rates, bounds) must match exactly.
    """
    return [l for l in text.splitlines() if not l.startswith("(ran in")]


def _matrix(base):
    return [base, base + ["--workers", "2"]]


class TestAttackMatrix:
    def test_all_flag_combinations_agree(self, capsys):
        outputs = {}
        for argv in _matrix(ATTACK):
            assert main(argv) == 0
            outputs[tuple(argv)] = _stable_lines(capsys.readouterr().out)
        baseline = outputs[tuple(ATTACK)]
        assert "strict" in "\n".join(baseline)
        for argv, lines in outputs.items():
            assert lines == baseline, f"flags {argv[6:]} changed the output"

    def test_summary_line_reflects_flags(self, capsys, monkeypatch):
        # The no-flag default is serial; an inherited REPRO_WORKERS
        # would replace it.
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert main(ATTACK + ["--workers", "2"]) == 0
        assert "backend process-pool(2, fixed)" in capsys.readouterr().out
        assert main(ATTACK) == 0
        assert "backend serial" in capsys.readouterr().out


class TestExactMatrix:
    def test_engine_flags_never_change_either_mode(self, capsys):
        # --exact lives on `run`; cross it with the engine flags there.
        # Exact mode legitimately renders differently (true rationals,
        # no float noise), so each mode is compared against its own
        # baseline across the engine matrix.
        for mode in (RUN, RUN + ["--exact"]):
            outputs = {}
            for argv in _matrix(mode):
                assert main(argv) == 0
                outputs[tuple(argv)] = _stable_lines(capsys.readouterr().out)
            baseline = outputs[tuple(mode)]
            assert any("L33" in l for l in baseline)
            for argv, lines in outputs.items():
                assert lines == baseline, (
                    f"flags {argv[5:]} changed the output"
                )

    def test_exact_agrees_with_float_numerically(self, capsys):
        # Across modes the rendered cells differ (15/16 vs 0.9375); the
        # structured values must still agree to float precision.
        import json
        from fractions import Fraction

        rows = {}
        for label, argv in (
            ("float", RUN + ["--json"]),
            ("exact", RUN + ["--json", "--exact", "--workers", "2"]),
        ):
            assert main(argv) == 0
            rows[label] = json.loads(capsys.readouterr().out)["data"]["rows"]
        assert len(rows["float"]) == len(rows["exact"]) > 0
        for f_row, e_row in zip(rows["float"], rows["exact"]):
            assert f_row["protocol"] == e_row["protocol"]
            assert f_row["bits"] == e_row["bits"]
            assert f_row["holds"] == e_row["holds"]
            for field in ("error", "expected_mu", "information", "implied_bound"):
                exact = float(Fraction(str(e_row[field])))
                assert abs(float(f_row[field]) - exact) < 1e-9


class TestTranscriptBitIdentity:
    def test_batched_and_per_view_transcripts_match(self):
        # The CLI matrix compares rendered reports; this pins the raw
        # wire bits underneath: batched CSR construction vs the per-view
        # path must serialize every player's message identically.
        graph = erdos_renyi(10, 0.4, random.Random(3)).freeze()
        protocol = make_protocol(SPEC)
        coins = PublicCoins(seed=2020)
        batched = run_protocol(graph, protocol, coins)
        per_view = run_protocol(graph, protocol, coins, views=views_of(graph, n=10))
        a = batched.transcript.sketches
        b = per_view.transcript.sketches
        assert set(a) == set(b)
        for v in a:
            assert a[v].to_bytes() == b[v].to_bytes()
            assert a[v].num_bits == b[v].num_bits
        assert batched.output == per_view.output
        assert batched.max_bits == per_view.max_bits
