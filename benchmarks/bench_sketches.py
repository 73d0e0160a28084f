"""Speed gate: batched AGM construction stays >= 3x the per-view path.

Batched construction of the AGM spanning-forest sketch (UB-SF's
O(log^3 n) upper bound, the paper's contrast side) builds every
player's state in one ``SketchFamily`` CSR pass; the per-view path is
the oracle, one ``sketch(view, coins)`` call per player.  The gate first
requires the two message dicts to be byte-identical on all three
graphs, then times both paths on the largest one and fails if the
batched path is less than 3x faster.

It is the only test under ``benchmarks/``, outside tier 1; CI runs it
in the ``sketch-gate`` job.  Run it on its own, printing the ratio:

    PYTHONPATH=src pytest benchmarks/bench_sketches.py -q -s
"""

from __future__ import annotations

import random
import time

from repro.graphs.builders import erdos_renyi
from repro.model import PublicCoins, views_of
from repro.sketches import AGMSpanningForest
from repro.sketches.core import SketchFamily

_COINS = PublicCoins(seed=17)
_PROTOCOL = AGMSpanningForest()

#: (n, edge probability): the UB-SF shapes, up to the largest bench graph.
_SIZES = [(32, 0.2), (64, 0.12), (96, 0.1)]
_GRAPHS = {
    n: erdos_renyi(n, p, random.Random(100 + n)).freeze() for n, p in _SIZES
}
_LARGEST = _SIZES[-1][0]


def _family(n: int) -> SketchFamily:
    return SketchFamily(_PROTOCOL._family(n, _COINS).params)


def _build_batch(n: int):
    """Fresh batched construction: one CSR pass, no engine cache."""
    return _family(n).fresh_messages(_GRAPHS[n], n)


def _build_per_view(n: int):
    """The historical oracle: every player sketches from its view."""
    views = views_of(_GRAPHS[n], n)
    return {v: _PROTOCOL.sketch(view, _COINS) for v, view in views.items()}


def _time_ops(fn, *args, min_seconds: float = 0.3) -> float:
    """Run ``fn`` repeatedly for >= min_seconds; return seconds/call."""
    fn(*args)  # warm up
    calls = 0
    start = time.perf_counter()
    while True:
        fn(*args)
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return elapsed / calls


def test_batched_agm_construction_at_least_3x_per_view():
    for n, _ in _SIZES:
        batch = _build_batch(n)
        oracle = _build_per_view(n)
        assert set(batch) == set(oracle)
        assert all(batch[v].to_bytes() == oracle[v].to_bytes() for v in batch)

    batch_s = _time_ops(_build_batch, _LARGEST)
    per_view_s = _time_ops(_build_per_view, _LARGEST)
    speedup = per_view_s / batch_s
    print(f"batched AGM construction at n={_LARGEST}: {speedup:.2f}x per-view")
    assert speedup >= 3.0, (
        f"batched AGM construction only {speedup:.1f}x "
        f"the per-view path on the largest bench graph"
    )
