"""Tests for the experiment harness (on tiny workloads)."""

from collections import Counter

import pytest

from repro.cli import main
from repro.experiments import (
    EXPERIMENTS,
    TraceStore,
    analyze_trace,
    figure3_configs,
    format_breakdowns,
    format_figure1,
    format_stacked_bars,
    format_table,
    format_table1,
    format_table2,
    format_table3,
    run_figure1,
    run_table1,
    run_table2,
    run_table3,
)
from repro.experiments.figure3 import run_figure3
from repro.experiments.runner import run_experiments


@pytest.fixture(scope="module")
def tiny_store(tmp_path_factory):
    cache = tmp_path_factory.mktemp("traces")
    return TraceStore(preset="tiny", cache_dir=cache)


class TestTraceStore:
    def test_generates_and_verifies(self, tiny_store):
        run = tiny_store.get("lu")
        assert len(run.trace) > 0
        assert run.base.total > run.base.busy

    def test_memory_cache_hit(self, tiny_store):
        first = tiny_store.get("lu")
        second = tiny_store.get("lu")
        assert first is second

    def test_disk_cache_roundtrip(self, tiny_store):
        run = tiny_store.get("ocean")
        fresh = TraceStore(preset="tiny", cache_dir=tiny_store.cache_dir)
        loaded = fresh.get("ocean")
        assert len(loaded.trace) == len(run.trace)
        assert loaded.base.total == run.base.total

    def test_unknown_app_rejected(self, tiny_store):
        with pytest.raises(ValueError):
            tiny_store.get("bogus")


class TestTables:
    def test_table1_rows(self, tiny_store):
        rows = run_table1(tiny_store)
        assert len(rows) == 5
        for row in rows:
            assert row.busy_cycles > 0
            assert 0 < row.read_rate < 1000
            assert row.read_misses <= row.reads
        text = format_table1(rows)
        assert "MP3D" in text and "OCEAN" in text

    def test_table2_rows(self, tiny_store):
        rows = run_table2(tiny_store)
        by_app = {r.app: r for r in rows}
        assert by_app["lu"].locks == 0
        assert by_app["pthor"].locks > 0
        assert by_app["mp3d"].barriers > 0
        assert "locks" in format_table2(rows)

    def test_table3_rows(self, tiny_store):
        rows = run_table3(tiny_store)
        for row in rows:
            assert 0 < row.branch_pct < 50
            assert 50 < row.predicted_pct <= 100
            assert row.avg_distance > 1
        text = format_table3(rows)
        assert "%" in text

    def test_analyze_trace_counts_branches(self, tiny_store):
        run = tiny_store.get("lu")
        row = analyze_trace("lu", run.trace)
        assert row.branches > 0
        assert row.predicted <= row.branches


class TestFigures:
    def test_figure3_config_list(self):
        labels = [c.label() for c in figure3_configs()]
        assert labels[0] == "BASE"
        assert "DS-RC-w256" in labels
        assert "SSBR-PC" in labels
        assert len(labels) == 14

    def test_figure4_config_list(self):
        labels = [c.label() for c in EXPERIMENTS["figure4"].configs]
        assert labels[0] == "BASE"
        assert sum("nodep" in l for l in labels) == 5
        assert sum("pbp" in l for l in labels) == 10

    def test_figure3_single_app(self, tiny_store):
        results = run_figure3(tiny_store, apps=("ocean",))
        assert set(results) == {"ocean"}
        runs = results["ocean"]
        assert len(runs) == 14
        base = runs[0]
        assert all(r.total <= base.total * 1.05 for r in runs)

    def test_figure1(self):
        result = run_figure1()
        assert result["SC"]["makespan"] == 8 * 50
        assert result["RC"]["makespan"] < result["WO"]["makespan"] \
            <= result["SC"]["makespan"]
        text = format_figure1(result)
        assert "SC" in text and "->" in text

    def test_headline_math(self, tiny_store):
        (result,) = run_experiments(tiny_store, [EXPERIMENTS["headline"]])
        for window, apps in result.items():
            for app, frac in apps.items():
                assert 0.0 <= frac <= 1.0
        assert result[64]["avg"] >= result[16]["avg"]
        text = EXPERIMENTS["headline"].format(result)
        assert "paper avg" in text


class TestSweepUnion:
    def test_all_simulates_each_config_once(self, tmp_path, monkeypatch):
        """`all` is one sweep per trace store: every distinct config of
        the 50-cycle experiments is simulated once per app (34; Figure 3
        already holds the headline's and compiler-sched's bars), plus
        compiler-sched's rescheduled trace once per app and
        latency100's six configs on the 100-cycle traces."""
        from repro.experiments import runner

        for penalty in (50, 100):
            TraceStore(
                n_procs=4, preset="tiny", miss_penalty=penalty,
                cache_dir=tmp_path,
            ).all_apps()  # built here, so `all` only loads them
        calls = []
        simulate = runner.simulate

        def counting(trace, config):
            calls.append((trace, config))
            return simulate(trace, config)

        monkeypatch.setattr(runner, "simulate", counting)
        assert main([
            "--procs", "4", "--preset", "tiny", "--cache-dir",
            str(tmp_path), "all", "--output", str(tmp_path / "out"),
            "--jobs", "1",
        ]) == 0
        by_trace: dict[int, Counter] = {}
        for trace, config in calls:  # `calls` keeps every trace alive
            by_trace.setdefault(id(trace), Counter())[
                runner._config_key(config)
            ] += 1
        assert all(n == 1 for c in by_trace.values() for n in c.values())
        assert sorted(sum(c.values()) for c in by_trace.values()) == (
            [1] * 5 + [6] * 5 + [34] * 5
        )
        union50 = {
            runner._config_key(config)
            for experiment in EXPERIMENTS.values()
            if experiment.miss_penalty is None
            for config in experiment.configs
        }
        assert len(union50) == 34
        assert all(
            set(c) == union50 for c in by_trace.values() if len(c) == 34
        )


class TestFormatting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [30, 4.0]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len(set(len(l) for l in lines[1:])) == 1

    def test_format_breakdowns_and_bars(self, tiny_store):
        run = tiny_store.get("mp3d")
        from repro.cpu import ProcessorConfig, simulate
        runs = [
            run.base,
            simulate(run.trace,
                     ProcessorConfig(kind="ds", model="RC", window=64)),
        ]
        table = format_breakdowns("T", runs, run.base)
        assert "100.0" in table
        bars = format_stacked_bars("T", runs, run.base)
        assert "#" in bars and "legend" in bars
