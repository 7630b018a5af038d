"""Benchmark E4 — regenerate Figure 3 (execution-time breakdowns).

One benchmark per application, each producing the app's full set of
Figure 3 bars (BASE; SSBR/SS/DS under SC and PC; SSBR/SS and the DS
window sweep under RC) and asserting the paper's qualitative claims.
"""

import pytest
from conftest import save_result

from repro.apps import APP_NAMES
from repro.experiments import format_figure3, run_figure3


@pytest.mark.parametrize("app", APP_NAMES)
def test_figure3(benchmark, store50, results_dir, app):
    store50.get(app)  # build the trace outside the timed region

    results = benchmark.pedantic(
        lambda: run_figure3(store50, apps=(app,)), rounds=1, iterations=1
    )
    save_result(results_dir, f"figure3_{app}", format_figure3(results))
    runs = results[app]

    by_label = {r.label: r for r in runs}
    base = by_label["BASE"]

    # (i) SC does not let read or write latency be hidden, regardless of
    # processor: even the 256-entry window stays close to static.
    assert by_label["DS-SC-w256"].total > by_label["SSBR-SC"].total * 0.75
    assert by_label["SSBR-SC"].total > base.total * 0.9

    # (ii) PC hides write latency with static scheduling — except OCEAN,
    # whose write misses outnumber read misses and fill the buffer.
    if app == "ocean":
        assert by_label["SSBR-PC"].write > base.write * 0.3
    elif base.write > 0.05 * base.total:
        assert by_label["SSBR-PC"].write < base.write * 0.5

    # RC removes the OCEAN write-buffer problem entirely.
    assert by_label["SSBR-RC"].write <= by_label["SSBR-PC"].write + 1

    # SS barely improves on SSBR (no compiler rescheduling).
    assert by_label["SS-RC"].total <= by_label["SSBR-RC"].total + 1

    # (iii) RC with dynamic scheduling hides substantial read latency,
    # monotonically in the window size, levelling off past 64.
    sweep = [by_label[f"DS-RC-w{w}"] for w in (16, 32, 64, 128, 256)]
    for a, b in zip(sweep, sweep[1:]):
        assert b.total <= a.total * 1.02
    assert sweep[2].read < base.read * 0.5        # w64 hides > 50%
    # Level-off: 64 -> 256 gains are small relative to 16 -> 64 gains.
    big_gain = sweep[0].total - sweep[2].total
    tail_gain = sweep[2].total - sweep[4].total
    assert tail_gain <= big_gain * 0.6 + 2

    # LU and OCEAN hide virtually all read latency at window 64.
    if app in ("lu", "ocean"):
        assert sweep[2].read < base.read * 0.1

    # Busy time is invariant: the issue rate is capped at 1/cycle.
    for r in runs:
        assert r.busy == base.busy
