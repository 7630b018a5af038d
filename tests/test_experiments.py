"""Tests for the experiment harness (on tiny workloads)."""

import pytest

from repro.cli import main
from repro.experiments import (
    TraceStore,
    analyze_trace,
    figure3_configs,
    figure4_configs,
    format_breakdowns,
    format_figure1,
    format_headline,
    format_stacked_bars,
    format_table,
    format_table1,
    format_table2,
    format_table3,
    run_contexts,
    run_figure1,
    run_table1,
    run_table2,
    run_table3,
)
from repro.experiments.figure3 import run_figure3
from repro.experiments.headline import run_headline


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
        labels = [c.label() for c in figure4_configs()]
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
        result = run_headline(tiny_store, windows=(16, 64))
        for window, apps in result.items():
            for app, frac in apps.items():
                assert 0.0 <= frac <= 1.0
        assert result[64]["avg"] >= result[16]["avg"]
        text = format_headline(result)
        assert "paper avg" in text

    def test_contexts_below_eight_processors(self, tmp_path, capsys):
        """E11 on a machine smaller than its largest context count: the
        counts, and the table's columns, stop at the processors."""
        store = TraceStore(n_procs=4, preset="tiny", cache_dir=tmp_path)
        result = run_contexts(store, apps=("lu",))
        assert set(result["lu"]["efficiency"]) == {1, 2, 4}
        assert main([
            "--procs", "4", "--preset", "tiny",
            "--cache-dir", str(tmp_path), "contexts",
        ]) == 0
        out = capsys.readouterr().out
        assert "MC k=4" in out and "MC k=8" not in out


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
