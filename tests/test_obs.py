"""Tests for the observability layer (repro.obs).

Covers the metrics registry (including the disabled no-op path and the
reservoir's deterministic decimation), the Chrome trace_event tracer
(schema validation, span-nesting invariants, byte determinism), the run
manifest, the profile pipeline end-to-end over every processor kind and
network backend, and the satellite fixes: per-link queue-depth columns
in the cosim report's solo line and the shared execution-breakdown
component table.
"""

from __future__ import annotations

import json

import pytest

from repro.cpu.results import (
    COMPONENT_GLYPHS,
    COMPONENTS,
    ExecutionBreakdown,
)
from repro.experiments import TraceStore
from repro.experiments.report import format_breakdowns, format_stacked_bars
from repro.obs import (
    ChromeTracer,
    MetricsRegistry,
    NULL_REGISTRY,
    Probe,
    build_manifest,
    format_histogram,
    occupancy_bounds,
    run_profile,
    validate_manifest,
    validate_trace,
)


@pytest.fixture(scope="module")
def store():
    """One shared tiny-preset trace store (traces generated once)."""
    return TraceStore(n_procs=8, preset="tiny", cache_dir=None)


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        m = MetricsRegistry()
        m.counter("c").inc()
        m.counter("c").inc(4)
        m.gauge("g").set(7)
        h = m.histogram("h", bounds=(1, 10, 100))
        h.observe(1)
        h.observe(50, n=3)
        h.observe(1000)
        assert m.counter("c").value == 5
        assert m.gauge("g").value == 7
        assert h.count == 5
        assert h.counts == [1, 0, 3, 1]
        assert h.max == 1000
        assert h.mean() == pytest.approx((1 + 150 + 1000) / 5)
        assert h.quantile(0.5) == 100

    def test_snapshot_is_sorted_and_grouped(self):
        m = MetricsRegistry()
        m.counter("z")
        m.counter("a").inc(2)
        m.gauge("g").set(1.5)
        snap = m.snapshot()
        assert list(snap["counters"]) == ["a", "z"]
        assert snap["counters"]["a"] == 2
        assert snap["gauges"]["g"] == 1.5
        json.dumps(snap)  # must be JSON-serializable

    def test_kind_mismatch_rejected(self):
        m = MetricsRegistry()
        m.counter("x")
        with pytest.raises(TypeError):
            m.gauge("x")

    def test_disabled_registry_is_noop(self):
        m = MetricsRegistry(enabled=False)
        c = m.counter("c")
        c.inc(100)
        m.histogram("h").observe(5)
        m.reservoir("r").sample(0, 1)
        assert c.value == 0
        assert m.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
            "reservoirs": {},
        }
        # All instruments are one shared object.
        assert m.counter("a") is m.gauge("b") is NULL_REGISTRY.counter("c")

    def test_occupancy_bounds(self):
        assert occupancy_bounds(16) == (0, 1, 2, 4, 8, 16)
        assert occupancy_bounds(100) == (0, 1, 2, 4, 8, 16, 32, 64, 100)

    def test_reservoir_decimates_deterministically(self):
        m = MetricsRegistry()
        r = m.reservoir("r")
        n = 12 * r.CAPACITY
        for t in range(n):
            r.sample(t, t * 2)
        assert len(r.times) < r.CAPACITY
        assert r.snapshot()["stride"] > 1
        # Strides double, so retained times are evenly spaced.
        deltas = {b - a for a, b in zip(r.times, r.times[1:])}
        assert len(deltas) == 1
        m2 = MetricsRegistry()
        r2 = m2.reservoir("r")
        for t in range(n):
            r2.sample(t, t * 2)
        assert r.snapshot() == r2.snapshot()

    def test_format_histogram_renders(self):
        m = MetricsRegistry()
        h = m.histogram("h", bounds=(1, 2))
        h.observe(1, 3)
        h.observe(9)
        text = format_histogram(h)
        assert "count 4" in text
        assert "###" in text


class TestTracer:
    def test_tracks_and_metadata(self):
        tr = ChromeTracer()
        assert tr.track("p1", "a") == (1, 0)
        assert tr.track("p1", "b") == (1, 1)
        assert tr.track("p2") == (2, 0)
        assert tr.track("p1", "a") == (1, 0)  # cached
        doc = tr.to_dict()
        names = [
            (e["name"], e["args"]["name"])
            for e in doc["traceEvents"] if e["ph"] == "M"
        ]
        assert ("process_name", "p1") in names
        assert ("thread_name", "b") in names

    def test_valid_trace_passes_schema(self):
        tr = ChromeTracer()
        pid, tid = tr.track("cpu")
        tr.complete("outer", "cpu", pid, tid, 0, 10)
        tr.complete("inner", "cpu", pid, tid, 2, 3)
        tr.instant("mark", "mem", pid, tid, 4)
        tr.counter("occ", pid, 5, {"rob": 3})
        assert validate_trace(json.loads(tr.dumps())) == []

    def test_validator_rejects_bad_events(self):
        bad = {"traceEvents": [
            {"ph": "X", "ts": 0, "pid": 1, "tid": 0, "dur": -1},
            {"name": "x", "ph": "?", "ts": 0, "pid": 1, "tid": 0},
        ]}
        errors = validate_trace(bad)
        assert any("missing 'name'" in e for e in errors)
        assert any("bad dur" in e for e in errors)
        assert any("unknown phase" in e for e in errors)
        assert validate_trace([]) != []

    def test_validator_rejects_partial_overlap(self):
        tr = ChromeTracer()
        pid, tid = tr.track("cpu")
        tr.complete("a", "cpu", pid, tid, 0, 10)
        tr.complete("b", "cpu", pid, tid, 5, 10)  # straddles a's end
        errors = validate_trace(tr.to_dict())
        assert errors and "partially overlaps" in errors[0]

    def test_dumps_deterministic(self):
        def build():
            tr = ChromeTracer()
            pid, tid = tr.track("p", "t")
            tr.complete("s", "cpu", pid, tid, 1, 2, args={"k": 1})
            tr.instant("i", "net", pid, tid, 3)
            return tr.dumps(other_data={"run": "x"})

        assert build() == build()

    def test_span_track_lanes_overlapping_spans(self):
        probe = Probe(tracer=ChromeTracer())
        # Two overlapping spans get distinct lanes; a later span reuses
        # the first lane once it is free.
        t1 = probe.span_track("net", "cpu0", 0, 10)
        t2 = probe.span_track("net", "cpu0", 5, 15)
        t3 = probe.span_track("net", "cpu0", 12, 20)
        assert t1 != t2
        assert t3 == t1


class TestManifest:
    def test_round_trip_and_validation(self, tmp_path):
        out = tmp_path / "trace.json"
        out.write_text("{}")
        manifest = build_manifest(
            "python -m repro profile lu",
            {"app": "lu", "network": "ideal"},
            {"run": 1.23456}, {"trace": out},
        )
        assert validate_manifest(manifest) == []
        assert manifest["outputs"]["trace"]["bytes"] == 2
        assert manifest["timings"]["run"] == 1.2346

    def test_validation_catches_problems(self):
        assert validate_manifest([]) == ["manifest is not an object"]
        errors = validate_manifest({"schema": "bogus/9", "outputs": {
            "trace": {},
        }})
        assert any("unknown schema" in e for e in errors)
        assert any("missing field" in e for e in errors)
        assert any("no path" in e for e in errors)

    def test_validation_requires_network(self):
        # A manifest that does not say which interconnect produced the
        # run is not reproducible and must be rejected.
        errors = validate_manifest({"config": {"app": "lu"}})
        assert any("missing 'network'" in e for e in errors)
        # The batch path records the swept set as "networks" (plural).
        errors = validate_manifest({"config": {"networks": ["ideal"]}})
        assert not any("network" in e for e in errors)


class TestComponentTable:
    """cpu/results.py and experiments/report.py share one name table."""

    def test_breakdown_components_match_table(self):
        bd = ExecutionBreakdown(
            label="x", busy=5, sync=4, read=3, write=2, other=1,
        )
        assert tuple(bd.components()) == COMPONENTS
        assert bd.total == sum(bd.components().values())
        nz = bd.normalized_to(bd)
        assert set(nz) == set(COMPONENTS) | {"total"}

    def test_report_headers_and_legend_derive_from_table(self):
        base = ExecutionBreakdown(label="BASE", busy=10)
        table = format_breakdowns("t", [base], base)
        bars = format_stacked_bars("t", [base], base)
        for comp in COMPONENTS:
            assert comp in table.splitlines()[1]
            assert f"{COMPONENT_GLYPHS[comp]} {comp}" in bars


class TestContentionQueueColumns:
    """Satellite: per-link queue-depth samples surface in the report."""

    def test_queue_depth_in_summaries_and_table(self, store):
        from repro.cosim import replay_solo, run_cosim_app
        from repro.cpu import ProcessorConfig

        trace = store.get("lu").trace
        depths = []
        for window in (64, 256):
            cfg = ProcessorConfig(kind="ds", model="RC", window=window)
            _, net = replay_solo(
                trace, cfg, "mesh", store.n_procs, store.line_size
            )
            links = net.link_summary()
            assert "mean_depth" in links and "max_depth" in links
            depths.append(links["max_depth"])
        # The DS rows under a real network must have observed queueing.
        assert any(q > 0 for q in depths)
        text = run_cosim_app("lu", store, kind="ds", network="mesh").report
        solo = text[text.index("solo (cpu0"):]
        assert "q mean" in solo and "q max" in solo


class TestProfile:
    @pytest.mark.parametrize("network", ("ideal", "crossbar", "mesh"))
    def test_ds_profile_all_networks(self, store, tmp_path, network):
        result = run_profile(
            "lu", store, kind="ds", network=network,
            trace=True, out_dir=tmp_path,
        )
        assert result.ok, result.errors[:3]
        for label in ("trace", "metrics", "manifest"):
            assert result.outputs[label].exists()
        assert validate_trace(
            json.loads(result.outputs["trace"].read_text())
        ) == []
        manifest = json.loads(result.outputs["manifest"].read_text())
        assert validate_manifest(manifest) == []
        assert manifest["config"]["network"] == network
        # The profiled replay's fabric emits into the same probe.
        events = json.loads(result.outputs["trace"].read_text())
        assert any(
            e.get("cat") == "net" for e in events["traceEvents"]
        ) == (network != "ideal")
        assert "stall attribution" in result.report
        assert "reorder-buffer occupancy" in result.report
        metrics = json.loads(result.outputs["metrics"].read_text())
        assert "ds.rob_occupancy" in metrics["histograms"]
        # Every consistency model contributed a breakdown.
        for model in ("SC", "PC", "WO", "RC"):
            assert f"DS-{model}-w64" in result.report

    @pytest.mark.parametrize("kind", ("base", "ssbr", "ss"))
    def test_other_kinds_profile(self, store, tmp_path, kind):
        result = run_profile(
            "lu", store, kind=kind, network="mesh",
            trace=True, out_dir=tmp_path,
        )
        assert result.ok, result.errors[:3]
        assert result.outputs["manifest"].exists()
        if kind != "base":
            assert "write-buffer depth" in result.report

    def test_profile_deterministic_bytes(self, store, tmp_path):
        outputs = []
        for sub in ("a", "b"):
            result = run_profile(
                "lu", store, kind="ds", network="mesh",
                trace=True, out_dir=tmp_path / sub,
            )
            assert result.ok
            outputs.append((
                result.outputs["trace"].read_bytes(),
                result.outputs["metrics"].read_bytes(),
            ))
        assert outputs[0] == outputs[1]

    def test_no_trace_flag_skips_trace(self, store, tmp_path):
        result = run_profile(
            "lu", store, kind="ds", network="ideal",
            trace=False, out_dir=tmp_path,
        )
        assert result.ok
        assert "trace" not in result.outputs
        assert result.outputs["metrics"].exists()


class TestProbePublication:
    def test_publish_run_fills_tango_metrics(self, store):
        registry = MetricsRegistry()
        probe = Probe(metrics=registry)
        run = store.get("lu")
        probe.publish_run_stats(run.stats)
        snap = registry.snapshot()
        assert snap["gauges"]["tango.total_cycles"] > 0
        assert snap["counters"]["tango.cpu0.busy_cycles"] > 0

    def test_host_timeline_spans_nest(self, store):
        tracer = ChromeTracer()
        probe = Probe(tracer=tracer)
        probe.trace_host_timeline(store.get("lu").trace, 0)
        assert len(tracer) > 0
        assert validate_trace(tracer.to_dict()) == []
