"""Benchmarks E12-E13 — the extension experiments.

E12: boosting SC with prefetch + speculative loads ([8]).  E13: compiler
read scheduling for the SS processor (the paper's stated future work).
"""

from conftest import save_result

from repro.experiments import EXPERIMENTS
from repro.experiments.runner import run_experiments


def test_sc_boost(benchmark, store50, results_dir):
    store50.all_apps()
    sc_boost = EXPERIMENTS["sc-boost"]

    result = benchmark.pedantic(
        lambda: run_experiments(store50, [sc_boost])[0],
        rounds=1, iterations=1,
    )
    save_result(results_dir, "sc_boost", sc_boost.format(result))

    for app, runs in result.items():
        by_label = {r.label: r for r in runs}
        plain = by_label["DS-SC-w64"]
        pf = by_label["DS-SC-w64+pf"]
        spec = by_label["DS-SC-w64+spec"]
        both = by_label["DS-SC-w64+pf+spec"]
        rc = by_label["DS-RC-w64"]
        # Each technique only helps; combined helps at least as much.
        assert pf.total <= plain.total + 2
        assert spec.total <= plain.total + 2
        assert both.total <= min(pf.total, spec.total) + 2
        # The boosted SC closes a substantial part of the SC-to-RC gap.
        gap = plain.total - rc.total
        if gap > 0.05 * plain.total:
            closed = plain.total - both.total
            assert closed >= 0.4 * gap, (app, closed, gap)
        # RC always beats plain SC.  Fully boosted SC can overtake RC
        # (dramatically so on lock-dense PTHOR) because speculative
        # loads also bypass the acquires RC must respect.
        assert rc.total <= plain.total + 2


def test_compiler_sched(benchmark, store50, results_dir):
    store50.all_apps()
    compiler_sched = EXPERIMENTS["compiler-sched"]

    result = benchmark.pedantic(
        lambda: run_experiments(store50, [compiler_sched])[0],
        rounds=1, iterations=1,
    )
    save_result(results_dir, "compiler_sched",
                compiler_sched.format(result))

    for app, data in result.items():
        runs = {r.label: r for r in data["runs"]}
        orig = runs["SS-RC (original)"]
        sched = runs["SS-RC (scheduled)"]
        stats = data["stats"]
        # The pass moved a meaningful number of loads.
        assert stats.loads_moved > 0
        # Rescheduling helps the regular codes (wide hoisting room) and
        # at worst perturbs the irregular ones by a sliver — the paper's
        # conjecture holds where a compiler could realistically act.
        assert sched.total <= orig.total * 1.01 + 2
        if app in ("lu", "ocean"):
            assert sched.read < orig.read
