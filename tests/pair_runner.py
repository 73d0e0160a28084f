"""The one runner behind the per-file differential test ids.

Every fast ↔ reference comparison is written once, as a pair of the
oracle registry (:mod:`repro.conformance.oracles`).  A per-file id such
as ``test_union_commutes_with_freeze`` names what it checks and runs
its pair through :func:`check_pair`, which asserts the verdicts that
make that check.

Cases come from the pair's seed-0 stream, the one ``repro conformance
run --seed 0 --layer <pair>`` walks, so a failing case can be replayed
and shrunk from the command line.
"""

import json

from repro.conformance import get_pair

#: How many stream cases a per-spec run may scan per case it needs
#: (the ``sketches`` pair draws each of its 12 specs equally often).
SCAN_PER_CASE = 50


def check_pair(pair_name: str, cases: int, *laws: str, spec: str | None = None):
    """Assert the named verdicts hold on ``cases`` cases of one pair.

    With ``spec``, only the stream's cases of that protocol spec count.
    Fails when a case lacks a named verdict (a renamed or misspelled
    law, or a crash while building the case), and when the stream
    yields fewer than ``cases`` cases of ``spec``.
    """
    assert laws, "name at least one verdict"
    pair = get_pair(pair_name)
    drawn = 0
    for index in range(cases * SCAN_PER_CASE):
        case = pair.case_for(0, index)
        if spec is not None and case.params.get("spec") != spec:
            continue
        verdicts = pair.check(case)
        missing = sorted(set(laws) - {verdict.law for verdict in verdicts})
        bad = [v for v in verdicts if not v.ok and v.law in (*laws, "build")]
        header = f"{pair_name} case {index}"
        if missing:
            header += f": no verdict named {missing}"
        assert not missing and not bad, "\n".join(
            [header, *(v.describe() for v in bad), json.dumps(case.to_json())]
        )
        drawn += 1
        if drawn == cases:
            return
    raise AssertionError(
        f"{pair_name}: {drawn} of {cases} cases of spec {spec!r} "
        f"in the first {cases * SCAN_PER_CASE} of the stream"
    )
