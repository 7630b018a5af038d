"""Benchmark E5 — regenerate Figure 4 (perfect BP / ignored dependences)."""

import pytest
from conftest import save_result

from repro.apps import APP_NAMES
from repro.cpu import ProcessorConfig, simulate
from repro.experiments import EXPERIMENTS
from repro.experiments.runner import run_experiments


@pytest.mark.parametrize("app", APP_NAMES)
def test_figure4(benchmark, store50, results_dir, app):
    run = store50.get(app)
    figure4 = EXPERIMENTS["figure4"]

    results = benchmark.pedantic(
        lambda: run_experiments(store50, [figure4], apps=(app,))[0],
        rounds=1, iterations=1,
    )
    save_result(results_dir, f"figure4_{app}", figure4.format(results))
    runs = results[app]

    by_label = {r.label: r for r in runs}
    base = by_label["BASE"]
    pbp = {w: by_label[f"DS-RC-w{w}-pbp"] for w in (16, 32, 64, 128, 256)}
    nodep = {
        w: by_label[f"DS-RC-w{w}-pbp-nodep"]
        for w in (16, 32, 64, 128, 256)
    }

    # Perfect prediction and ignoring dependences only ever help.
    for w in (16, 32, 64, 128, 256):
        real = simulate(
            run.trace, ProcessorConfig(kind="ds", model="RC", window=w)
        )
        assert pbp[w].total <= real.total * 1.01
        assert nodep[w].total <= pbp[w].total * 1.01

    # LU and OCEAN: branch prediction is already near-perfect and data
    # dependences do not hinder performance — idealising changes little.
    if app in ("lu", "ocean"):
        real64 = simulate(
            run.trace, ProcessorConfig(kind="ds", model="RC", window=64)
        )
        assert pbp[64].total >= real64.total * 0.97
        assert nodep[64].total >= pbp[64].total * 0.95

    # Ignoring dependences helps MP3D/PTHOR more at small windows than at
    # the largest window (dependences bind at short distances).
    if app in ("mp3d", "pthor"):
        gain_small = pbp[16].total - nodep[16].total
        gain_large = pbp[256].total - nodep[256].total
        assert gain_small >= gain_large - 2

    # With both idealisations and a huge window, execution approaches
    # busy + synchronization: read stall nearly vanishes.  PTHOR keeps a
    # somewhat larger residue: its reads sit between acquires, and the
    # consistency-imposed orderings are still respected (footnote 3).
    limit = 0.2 if app == "pthor" else 0.12
    assert nodep[256].read <= base.read * limit
