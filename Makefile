.PHONY: install test conformance golden-verify perfbench-smoke bench trace-smoke report sweep-smoke examples all

install:
	pip install -e .

# Tier-1 verify: matches CI and works from a clean checkout with no
# editable install (the source tree is put on PYTHONPATH directly).
test:
	PYTHONPATH=src python -m pytest -x -q

# Fixed-seed conformance smoke sweep (see docs/testing.md).  On failure
# it writes conformance_bundle.json; replay with
# `repro conformance shrink --bundle conformance_bundle.json`.
conformance:
	PYTHONPATH=src python -m repro conformance run --seed 0 --budget 200

# Re-derive every golden vector and diff against tests/data/ without
# rewriting anything.
golden-verify:
	PYTHONPATH=src python scripts/dump_golden_vectors.py --verify

# The benchmark's own unit tests, then one short untraced pass of every
# BENCHMARK.json workload at seed 0.  The harness exits 1 when an output
# digest differs from perfbench/expected.json, so fast paths must stay
# bit-identical (see perfbench/README.md).
perfbench-smoke:
	PYTHONPATH=src python -m pytest perfbench/test_harness.py -q
	python3 perfbench/harness.py --seed 0 --seconds 1 --trace 0

bench:
	pytest benchmarks/ --benchmark-only

# Traced smoke run: span tree + bits-per-player table on stdout, Chrome
# trace to trace_smoke.json (open in Perfetto / chrome://tracing).
trace-smoke:
	PYTHONPATH=src python -m repro trace T1b --out trace_smoke.json

# REPORT.md is rendered from the content-addressed run store
# (.repro_runs by default): warm records are served bit-for-bit,
# missing ones are executed and stored, so each experiment runs at most
# once (see docs/runs.md).
report:
	PYTHONPATH=src python -m repro report --out REPORT.md

# The resume-by-addressing smoke from CI: sweep, kill after one point,
# relaunch — the second launch must skip the stored point.
sweep-smoke:
	PYTHONPATH=src python -m repro sweep F1 --grid m=8,10 --store .repro_runs --max-points 1
	PYTHONPATH=src python -m repro sweep F1 --grid m=8,10 --store .repro_runs

examples:
	for f in examples/*.py; do python $$f; done

all: test conformance bench report
