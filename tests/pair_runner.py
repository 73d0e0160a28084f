"""The one runner behind the per-file differential test ids.

Every fast ↔ reference comparison is written once, as a pair of the
oracle registry (:mod:`repro.conformance.oracles`).  A per-file id such
as ``test_union_commutes_with_freeze`` names what it checks and asserts
the verdicts that make that check on a :class:`PairRun`.  A file whose
ids share a pair checks its cases once, in a module-scoped fixture over
the largest case count, and each id reads the first cases it needs.

Cases come from the pair's seed-0 stream, the one ``repro conformance
run --seed 0 --layer <pair>`` walks, so a failing case can be replayed
and shrunk from the command line.
"""

import json

from repro.conformance import get_pair

#: How many stream cases a per-spec run may scan per case it needs
#: (the ``sketches`` pair draws each of its 12 specs equally often).
SCAN_PER_CASE = 50


class PairRun:
    """The verdicts of a pair's first ``cases`` stream cases, each case
    checked once.

    With ``spec``, only the stream's cases of that protocol spec count,
    scanning at most ``cases * SCAN_PER_CASE`` of the stream.
    """

    def __init__(self, pair_name: str, cases: int, spec: str | None = None):
        pair = get_pair(pair_name)
        self.pair_name = pair_name
        self.cases = cases
        self.spec = spec
        self.scanned = cases * SCAN_PER_CASE
        self.results = []  # (stream index, case, verdicts)
        for index in range(self.scanned):
            case = pair.case_for(0, index)
            if spec is not None and case.params.get("spec") != spec:
                continue
            self.results.append((index, case, pair.check(case)))
            if len(self.results) == cases:
                break

    def check(self, cases: int, *laws: str) -> None:
        """Assert the named verdicts hold on the first ``cases`` cases.

        Fails when a case lacks a named verdict (a renamed or misspelled
        law, or a crash while building the case), and when the stream
        yielded fewer than ``cases`` cases of the run's spec.
        """
        assert laws, "name at least one verdict"
        assert cases <= self.cases, f"this run holds {self.cases} cases"
        for index, case, verdicts in self.results[:cases]:
            missing = sorted(set(laws) - {verdict.law for verdict in verdicts})
            bad = [v for v in verdicts if not v.ok and v.law in (*laws, "build")]
            header = f"{self.pair_name} case {index}"
            if missing:
                header += f": no verdict named {missing}"
            assert not missing and not bad, "\n".join(
                [header, *(v.describe() for v in bad), json.dumps(case.to_json())]
            )
        if len(self.results) < cases:
            raise AssertionError(
                f"{self.pair_name}: {len(self.results)} of {cases} cases of spec "
                f"{self.spec!r} in the first {self.scanned} of the stream"
            )


def check_pair(pair_name: str, cases: int, *laws: str, spec: str | None = None):
    """Assert the named verdicts hold on ``cases`` cases of one pair: a
    run of its own, for an id that shares its pair with no other."""
    PairRun(pair_name, cases, spec).check(cases, *laws)
