"""Benchmark E10 — §4.1.3 read-miss issue-delay / spacing analysis."""

from conftest import save_result

from repro.experiments import EXPERIMENTS
from repro.experiments.runner import run_experiments


def test_miss_analysis(benchmark, store50, results_dir):
    store50.all_apps()
    miss_analysis = EXPERIMENTS["miss-analysis"]

    results = benchmark.pedantic(
        lambda: run_experiments(store50, [miss_analysis])[0],
        rounds=1, iterations=1,
    )
    save_result(results_dir, "miss_analysis",
                miss_analysis.format(results))

    by_app = {r.app: r for r in results}
    # LU and OCEAN: read misses issue almost immediately (independent
    # misses; the paper: "rarely delayed more than 10 cycles").
    assert by_app["lu"].frac_delay_over(40) < 0.10
    assert by_app["ocean"].frac_delay_over(40) < 0.10
    # MP3D and PTHOR have dependent miss chains: a visible fraction of
    # read misses issues long after decode.
    assert by_app["mp3d"].frac_delay_over(40) > 0.05
    assert by_app["pthor"].frac_delay_over(40) > 0.10
    # PTHOR is the worst of the suite.
    assert by_app["pthor"].frac_delay_over(40) >= (
        by_app["lu"].frac_delay_over(40)
    )
    for r in results:
        assert len(r.issue_delays) > 0
