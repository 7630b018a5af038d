"""Tests for fleet-wide observability: distributed traces, structured
logs and Prometheus exposition.

The span/stitch unit tests exercise the cross-process invariants the
service relies on (nesting survives independent rounding, duplicate
span ids are rejected, corrupt side files are skipped); the
integration test runs a real chaos-injected batch and checks the
stitched timeline survives worker crashes and retries.  The Prometheus
encoder is checked against a line-format parser written here, not
against string snapshots.
"""

import json
import math
import re

import pytest

from repro.obs import (
    JsonLogger,
    MetricsRegistry,
    NULL_LOG,
    Span,
    SpanSink,
    TraceContext,
    prom_name,
    read_spans,
    render_prometheus,
    stitch,
    validate_trace,
    write_spans,
)
from repro.service import ChaosSpec, expand_grid, run_batch


def _span(span_id, name="s", parent=None, start=0.0, end=1.0,
          trace_id="aa" * 8, process="p", thread="main", **args):
    return Span(
        trace_id, span_id, parent, name, process, thread, start, end,
        args=dict(args),
    )


class TestTraceContext:
    def test_mint_parse_header_roundtrip(self):
        ctx = TraceContext.mint()
        assert re.fullmatch(r"[0-9a-f]{16}", ctx.trace_id)
        assert re.fullmatch(r"[0-9a-f]{8}", ctx.span_id)
        again = TraceContext.parse(ctx.header())
        assert again == ctx

    def test_parse_normalizes_case_and_whitespace(self):
        ctx = TraceContext.parse("  AB" + "cd" * 7 + "-DEADBEEF \n")
        assert ctx.trace_id == "ab" + "cd" * 7
        assert ctx.span_id == "deadbeef"

    @pytest.mark.parametrize("junk", [
        "", "nope", "short-beef", "gg" * 8 + "-deadbeef",
        "ab" * 8 + "-deadbeef-extra", "ab" * 8,
    ])
    def test_parse_rejects_junk(self, junk):
        with pytest.raises(ValueError):
            TraceContext.parse(junk)

    def test_child_keeps_trace_id(self):
        root = TraceContext.mint()
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.span_id != root.span_id
        assert root.to_dict() == {
            "trace_id": root.trace_id, "parent_id": root.span_id,
        }


class TestSpanTransport:
    def test_dict_roundtrip(self):
        span = _span("s1", parent="p1", start=1.5, end=2.5, pid=42)
        again = Span.from_dict(
            json.loads(json.dumps(span.to_dict()))
        )
        assert again == span

    def test_sink_bounds_and_filters(self):
        sink = SpanSink()
        for i in range(sink.CAPACITY + 15):
            sink.record(_span(f"s{i}", trace_id=("ab" if i % 2 else "cd") * 8))
        assert len(sink) <= sink.CAPACITY
        assert sink.dropped > 0
        assert all(
            s.trace_id == "ab" * 8 for s in sink.spans("ab" * 8)
        )

    def test_side_files_skip_corrupt_lines(self, tmp_path):
        side = tmp_path / "spans" / "t-1.jsonl"
        write_spans(side, [_span("s1"), _span("s2")])
        with side.open("a") as f:
            f.write("{truncated by a SIGKILL\n")
        write_spans(tmp_path / "spans" / "t-2.jsonl", [_span("s3")])
        # File and directory forms agree; the corrupt line vanishes.
        assert {s.span_id for s in read_spans(side)} == {"s1", "s2"}
        assert {s.span_id for s in read_spans(tmp_path / "spans")} == {
            "s1", "s2", "s3",
        }
        assert read_spans(tmp_path / "absent") == []


class TestStitch:
    def test_duplicate_span_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate span id"):
            stitch([_span("same", name="a"), _span("same", name="b")])

    def test_backwards_span_rejected(self):
        with pytest.raises(ValueError, match="ends before"):
            stitch([_span("s1", start=2.0, end=1.0)])

    def test_nesting_survives_rounding(self):
        # Sub-microsecond float intervals where rounding each span's
        # *duration* (instead of each endpoint) would push the child
        # outside its parent: child [0.6us, 2.4us] has naive dur
        # round(1.8) = 2 at ts round(0.6) = 1, escaping the parent's
        # [0, round(2.5) = 2].  Endpoint rounding keeps it nested.
        parent = _span("par", name="job", start=0.0, end=2.5e-6)
        child = _span(
            "chi", name="attempt", parent="par",
            start=0.6e-6, end=2.4e-6,
        )
        doc = stitch([parent, child])
        assert validate_trace(doc) == []
        events = {
            e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"
        }
        c, p = events["attempt"], events["job"]
        assert p["ts"] <= c["ts"]
        assert c["ts"] + c["dur"] <= p["ts"] + p["dur"]

    def test_stitch_metadata_and_parentage_args(self):
        doc = stitch(
            [_span("s1"), _span("s2", parent="s1", process="q")],
            other_data={"batch_id": "b1"},
        )
        assert doc["otherData"]["span_count"] == 2
        assert doc["otherData"]["trace_ids"] == ["aa" * 8]
        assert doc["otherData"]["batch_id"] == "b1"
        by_id = {
            e["args"]["span_id"]: e
            for e in doc["traceEvents"] if e["ph"] == "X"
        }
        assert by_id["s2"]["args"]["parent_id"] == "s1"


class TestChaosBatchTrace:
    """The stitched timeline survives worker crashes and retries."""

    def test_trace_survives_crash_and_retry(self, tmp_path):
        sweep = expand_grid(
            apps=("lu",), kinds=("base", "ds"), models=("RC",),
            windows=(16,), networks=("ideal",), penalties=(50,),
            procs=4, preset="tiny",
        )
        trace = TraceContext.mint()
        report = run_batch(
            sweep,
            jobs=2,
            cache_dir=None,
            out_dir=tmp_path / "batches",
            chaos=ChaosSpec(crash={0: 1}),  # SIGKILL job 0's attempt 1
            max_attempts=3,
            trace=trace,
        )
        assert not report.partial
        crashed = report.records[0]
        assert crashed.attempts == 2  # died once, then succeeded

        doc = json.loads((report.out_dir / "trace.json").read_text())
        assert validate_trace(doc) == []
        events = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert all(
            e["args"]["trace_id"] == trace.trace_id for e in events
        )
        # Every span's parent exists; the only root is the batch span.
        ids = {e["args"]["span_id"] for e in events}
        roots = [
            e for e in events if e["args"]["parent_id"] is None
        ]
        assert [e["name"] for e in roots] == [
            f"batch {report.batch_id}"
        ]
        assert all(
            e["args"]["parent_id"] in ids for e in events
            if e["args"]["parent_id"] is not None
        )
        # The crashed job contributed one attempt span per attempt,
        # each nested (by parentage) under that job's span.
        job_span = next(
            e for e in events
            if e["name"] == f"job {crashed.label}"
        )
        attempts = [
            e for e in events
            if e["name"].startswith("attempt")
            and e["args"]["parent_id"] == job_span["args"]["span_id"]
        ]
        assert [e["name"] for e in sorted(
            attempts, key=lambda e: e["ts"]
        )] == ["attempt 1", "attempt 2"]
        # The surviving attempt produced worker-side engine spans.
        assert any(e["name"].startswith("run ") for e in events)
        assert any(e["name"] == "simulate" for e in events)


def _parse_prom(text: str):
    """Minimal Prometheus text-format (0.0.4) line parser.

    Returns ``(families, samples)`` where families maps the TYPE-line
    metric name to its kind and samples maps ``(name, labels)`` (labels
    as a sorted tuple of pairs) to the float value.  Raises on any line
    that is neither a comment nor a well-formed sample.
    """
    line_re = re.compile(
        r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$"
    )
    label_re = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
    families: dict[str, str] = {}
    samples: dict[tuple, float] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split()
            assert name not in families, f"duplicate TYPE for {name}"
            families[name] = kind
            continue
        assert not line.startswith("#"), line
        m = line_re.match(line)
        assert m, f"malformed sample line: {line!r}"
        name, label_str, value = m.groups()
        labels = tuple(sorted(
            (k, v) for k, v in label_re.findall(label_str or "")
        ))
        key = (name, labels)
        assert key not in samples, f"duplicate sample {key}"
        samples[key] = float(value)
    return families, samples


class TestPrometheusEncoder:
    def test_families_and_samples_parse(self):
        reg = MetricsRegistry()
        reg.counter("daemon.submitted").inc(3)
        reg.gauge("service.workers", labels={"state": "busy"}).set(2)
        reg.gauge("service.workers", labels={"state": "idle"}).set(1)
        hist = reg.histogram("daemon.job_wait_seconds",
                             bounds=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            hist.observe(v)
        reg.reservoir("net.miss_latency_series").sample(0, 7)

        text = render_prometheus(reg)
        families, samples = _parse_prom(text)

        assert families["repro_daemon_submitted_total"] == "counter"
        assert families["repro_service_workers"] == "gauge"
        assert families["repro_daemon_job_wait_seconds"] == "histogram"
        # Reservoirs have no Prometheus equivalent.
        assert not any("miss_latency_series" in n for n in families)

        assert samples[("repro_daemon_submitted_total", ())] == 3
        assert samples[(
            "repro_service_workers", (("state", "busy"),)
        )] == 2
        assert samples[(
            "repro_service_workers", (("state", "idle"),)
        )] == 1

        # Histogram buckets are cumulative and end at +Inf == _count.
        buckets = [
            (labels, value) for (name, labels), value in samples.items()
            if name == "repro_daemon_job_wait_seconds_bucket"
        ]
        by_le = {dict(labels)["le"]: value for labels, value in buckets}
        assert by_le["0.1"] == 1
        assert by_le["1.0"] == 3
        assert by_le["10.0"] == 4
        assert by_le["+Inf"] == 5
        counts = [by_le[le] for le in ("0.1", "1.0", "10.0", "+Inf")]
        assert counts == sorted(counts)
        assert samples[("repro_daemon_job_wait_seconds_count", ())] == 5
        assert math.isclose(
            samples[("repro_daemon_job_wait_seconds_sum", ())], 56.05
        )

    def test_every_sample_belongs_to_a_declared_family(self):
        reg = MetricsRegistry()
        reg.counter("a.b").inc()
        reg.gauge("c.d").set(1)
        reg.histogram("e.f", bounds=(1,)).observe(2)
        families, samples = _parse_prom(render_prometheus(reg))
        suffixes = ("_bucket", "_sum", "_count")
        for name, _ in samples:
            base = name
            for suffix in suffixes:
                if name.endswith(suffix) and name[: -len(suffix)] in families:
                    base = name[: -len(suffix)]
                    break
            assert base in families, name

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.gauge("g", labels={"k": 'a"b\\c\nd'}).set(1)
        text = render_prometheus(reg)
        (line,) = [
            l for l in text.splitlines() if not l.startswith("#")
        ]
        assert '\\"' in line and "\\\\" in line and "\\n" in line
        assert "\n" not in line

    def test_name_sanitization(self):
        assert prom_name("daemon.queue_depth") == (
            "repro_daemon_queue_depth"
        )
        assert prom_name("weird-name.x/y") == "repro_weird_name_x_y"

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""


class TestJsonLogger:
    def test_writes_jsonl_with_bound_fields(self, tmp_path):
        path = tmp_path / "svc.log"
        log = JsonLogger.to_path(path, level="info")
        child = log.bind(job="j1", trace="t1")
        child.info("queue.accepted", depth=3)
        child.debug("queue.noise")  # below level: dropped
        child.warning("pool.retry_scheduled", backoff=0.5)
        log.close()
        lines = [
            json.loads(l) for l in path.read_text().splitlines()
        ]
        assert [l["event"] for l in lines] == [
            "queue.accepted", "pool.retry_scheduled",
        ]
        assert lines[0]["job"] == "j1"
        assert lines[0]["trace"] == "t1"
        assert lines[0]["depth"] == 3
        assert lines[0]["level"] == "info"
        assert "ts" in lines[0] and "mono" in lines[0]

    def test_null_log_is_disabled_noop(self):
        assert not NULL_LOG.enabled
        NULL_LOG.info("nobody.home", x=1)  # must not raise
        assert not NULL_LOG.bind(a=1).enabled

    def test_bad_level_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            JsonLogger.to_path(tmp_path / "x.log", level="loud")

