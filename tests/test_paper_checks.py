"""Every registered experiment's declared paper-claim checks hold.

Each experiment runs at its default parameters (the ones REPORT.md
renders) and is judged on its record, as REPORT.md judges a stored one.
Eight also run on a wider lemma instance, the paper's k = t, or another
sample; exact L35 also runs one copy at a time at k = t = 5.
"""

import pytest

from repro.experiments import all_experiments
from repro.runs import execute_run, record_verdicts

EXTRA_PARAMS = [
    ("L33", {"t": 3}),
    ("L34", {"k": 3}),
    ("L35", {"t": 4, "k": 1}),
    # The paper's k = t, on the float path's full enumeration.
    ("L33", {"t": 3, "k": 3}),
    ("L34", {"t": 3, "k": 3}),
    ("L35", {"t": 3, "k": 3}),
    ("F1", {"m": 24, "k": 6, "seed": 1}),
    ("UB-EXT", {"trials": 4, "seed": 1}),
]

CASES = [(e.experiment_id, {}) for e in all_experiments()] + EXTRA_PARAMS


def _case_id(case) -> str:
    experiment_id, overrides = case
    params = ",".join(f"{k}={v}" for k, v in overrides.items())
    return f"{experiment_id}-{params}" if params else experiment_id


@pytest.mark.parametrize("case", CASES, ids=[_case_id(c) for c in CASES])
def test_declared_checks_hold(case):
    experiment_id, overrides = case
    record = execute_run(experiment_id, overrides, telemetry=False).record
    verdicts = record_verdicts(record)
    assert verdicts, f"{experiment_id} declares no checks"
    failed = [name for name, held in verdicts.items() if not held]
    assert not failed, f"{experiment_id} {overrides}: failed {failed}"


def test_exact_lemma35_per_copy_at_k_equals_t():
    """Exact L35 enumerates each copy's 5·2^5 outcomes, where the full
    joint would need 5·2^25."""
    record = execute_run("L35", {"t": 5, "k": 5}, exact=True, telemetry=False).record
    verdicts = record_verdicts(record)
    assert set(verdicts) == {
        "lemma35_holds",
        "full_protocol_within_entropy_over_t",
        "full_protocol_reveals_r_bits_per_copy",
    }
    assert all(verdicts.values()), verdicts
