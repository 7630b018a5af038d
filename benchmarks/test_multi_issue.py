"""Benchmark E7 — the multiple-instruction-issue extension (§4.2).

With four-wide issue the computation shrinks while memory latency stays
at 50 cycles, so under RC performance keeps improving from window 64 to
128 where single issue had levelled off, and the relative speedup from
multiple issue is larger under RC than under SC.
"""

import pytest
from conftest import save_result

from repro.apps import APP_NAMES
from repro.cpu import ProcessorConfig, simulate
from repro.experiments import EXPERIMENTS
from repro.experiments.runner import run_experiments


@pytest.mark.parametrize("app", APP_NAMES)
def test_multi_issue(benchmark, store50, results_dir, app):
    run = store50.get(app)
    multi_issue = EXPERIMENTS["multi-issue"]

    results = benchmark.pedantic(
        lambda: run_experiments(store50, [multi_issue], apps=(app,))[0],
        rounds=1, iterations=1,
    )
    save_result(results_dir, f"multi_issue_{app}",
                multi_issue.format(results))

    runs = results[app]
    sweep = {r.label: r for r in runs[1:]}
    w = {n: sweep[f"DS-RC-w{n}-i4"] for n in (16, 32, 64, 128, 256)}

    # Four-wide issue at window 64 beats single issue at window 64.
    single64 = simulate(
        run.trace, ProcessorConfig(kind="ds", model="RC", window=64)
    )
    assert w[64].total < single64.total

    # Gains persist from 64 to 128 at least as strongly as 128 to 256
    # (the window must cover more latency when computation is faster).
    gain_64_128 = w[64].total - w[128].total
    gain_128_256 = w[128].total - w[256].total
    assert gain_64_128 >= gain_128_256 - 2

    # The relative speedup of 4-issue over 1-issue is larger under RC
    # than under SC (the paper's preliminary finding).
    sc1 = simulate(
        run.trace,
        ProcessorConfig(kind="ds", model="SC", window=128),
    )
    sc4 = simulate(
        run.trace,
        ProcessorConfig(kind="ds", model="SC", window=128, issue_width=4),
    )
    rc1 = simulate(
        run.trace,
        ProcessorConfig(kind="ds", model="RC", window=128),
    )
    speedup_sc = sc1.total / sc4.total
    speedup_rc = rc1.total / w[128].total
    assert speedup_rc >= speedup_sc - 0.05
