"""Benchmark E8 — the paper's §7 headline averages.

Paper: with 50-cycle latency, the average read latency hidden across the
five applications is 33% (window 16), 63% (window 32), 81% (window 64).
We assert the same staircase shape with generous bands — the absolute
numbers depend on the exact workload scale.
"""

from conftest import save_result

from repro.experiments import EXPERIMENTS
from repro.experiments.runner import run_experiments


def test_headline(benchmark, store50, results_dir):
    store50.all_apps()
    headline = EXPERIMENTS["headline"]

    result = benchmark.pedantic(
        lambda: run_experiments(store50, [headline])[0],
        rounds=1, iterations=1,
    )
    save_result(results_dir, "headline", headline.format(result))

    avg = {w: result[w]["avg"] for w in result}
    # Monotone increasing in window size.
    assert avg[16] < avg[32] < avg[64]
    # The paper's staircase: ~33% / ~63% / ~81%, checked as bands.
    assert 0.15 <= avg[16] <= 0.60
    assert 0.40 <= avg[32] <= 0.85
    assert 0.65 <= avg[64] <= 1.00
    # Level-off: going 64 -> 256 adds far less than 16 -> 64 did.
    assert avg[256] - avg[64] < (avg[64] - avg[16]) * 0.5
    # LU and OCEAN fully hidden at 64 (paper: "read latency was fully
    # hidden at the 64 window size").
    assert result[64]["lu"] > 0.9
    assert result[64]["ocean"] > 0.9
