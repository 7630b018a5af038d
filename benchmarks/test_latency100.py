"""Benchmark E6 — the 100-cycle-latency extension (§4.2).

The paper: trends match the 50-cycle results, but performance levels off
at window 128 instead of 64 (the window must exceed the latency), and the
relative gain from hiding latency is consistently larger at the higher
latency.
"""

import pytest
from conftest import save_result

from repro.apps import APP_NAMES
from repro.cpu import ProcessorConfig, simulate
from repro.experiments import EXPERIMENTS
from repro.experiments.runner import run_experiments


@pytest.mark.parametrize("app", APP_NAMES)
def test_latency100(benchmark, store50, store100, results_dir, app):
    run100 = store100.get(app)
    latency100 = EXPERIMENTS["latency100"]

    results = benchmark.pedantic(
        lambda: run_experiments(store100, [latency100], apps=(app,))[0],
        rounds=1, iterations=1,
    )
    save_result(results_dir, f"latency100_{app}",
                latency100.format(results))

    runs = results[app]
    base100 = runs[0]
    sweep = {r.label: r for r in runs[1:]}
    w = {n: sweep[f"DS-RC-w{n}"] for n in (16, 32, 64, 128, 256)}

    # Monotone in window size.
    totals = [w[n].total for n in (16, 32, 64, 128, 256)]
    for a, b in zip(totals, totals[1:]):
        assert b <= a * 1.02

    # Level-off moves out to 128: the 64 -> 128 step still pays off
    # noticeably more than the 128 -> 256 step.
    gain_64_128 = w[64].total - w[128].total
    gain_128_256 = w[128].total - w[256].total
    assert gain_64_128 >= gain_128_256 - 2

    # At window 64 (== half the latency) a larger fraction of read
    # latency remains than at window 128.
    assert w[128].read <= w[64].read

    # The relative gain from hiding latency is at least as large as at
    # 50 cycles (the memory share of BASE is bigger).
    run50 = store50.get(app)
    ds50 = simulate(
        run50.trace, ProcessorConfig(kind="ds", model="RC", window=256)
    )
    rel_gain_50 = 1 - ds50.total / run50.base.total
    rel_gain_100 = 1 - w[256].total / base100.total
    assert rel_gain_100 >= rel_gain_50 - 0.05
