"""Unified observability layer: metrics registry, tracing, profiling.

One opt-in, cross-cutting instrumentation surface for every simulator
layer (memory system, interconnect, processor models, the Tango
executor):

* :class:`MetricsRegistry` — counters, gauges, fixed-bucket histograms
  and bounded time-series reservoirs; disabled registries hand out
  shared no-op instruments so instrumented call sites cost nearly
  nothing when observability is off;
* :class:`ChromeTracer` — structured event traces in Chrome
  ``trace_event`` JSON, loadable in Perfetto, deterministic for a fixed
  configuration;
* :class:`Probe` — the bundle of both that the simulators accept
  (always optional); simulation results are byte-identical with or
  without one;
* :func:`run_profile` — the ``python -m repro profile`` entry point:
  one instrumented run reported as occupancy histograms, stall
  attribution, and trace + machine-readable manifest on disk.

The fleet tier builds on the same primitives: :class:`TraceContext`
(distributed trace identity propagated via the ``X-Repro-Trace``
header), :class:`Span`/:class:`SpanSink`/:func:`stitch` (cross-process
span collection folded into one Perfetto timeline),
:class:`JsonLogger` (structured JSONL logs with trace/job correlation)
and :func:`render_prometheus` (metrics in Prometheus text format).
"""

from .context import HEADER as TRACE_HEADER
from .context import TraceContext
from .log import LEVELS as LOG_LEVELS
from .log import NULL_LOG, JsonLogger
from .manifest import (
    MANIFEST_SCHEMA,
    RunResult,
    build_manifest,
    git_revision,
    validate_manifest,
    write_manifest,
    write_run_artifacts,
)
from .metrics import (
    LATENCY_BOUNDS,
    SECONDS_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    Reservoir,
    format_histogram,
    label_key,
    occupancy_bounds,
)
from .probe import Probe
from .profile import PROFILE_MODELS, run_profile
from .prom import PROM_CONTENT_TYPE, prom_name, render_prometheus
from .spans import (
    CAT_SERVICE,
    Span,
    SpanSink,
    read_spans,
    stitch,
    write_spans,
)
from .tracer import (
    CAT_CPU,
    CAT_MEM,
    CAT_NET,
    CAT_SYNC,
    ChromeTracer,
    validate_trace,
)

__all__ = [
    "CAT_CPU",
    "CAT_MEM",
    "CAT_NET",
    "CAT_SERVICE",
    "CAT_SYNC",
    "ChromeTracer",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonLogger",
    "LATENCY_BOUNDS",
    "LOG_LEVELS",
    "MANIFEST_SCHEMA",
    "MetricsRegistry",
    "NULL_LOG",
    "NULL_REGISTRY",
    "PROFILE_MODELS",
    "PROM_CONTENT_TYPE",
    "Probe",
    "Reservoir",
    "RunResult",
    "SECONDS_BOUNDS",
    "Span",
    "SpanSink",
    "TRACE_HEADER",
    "TraceContext",
    "build_manifest",
    "format_histogram",
    "git_revision",
    "label_key",
    "occupancy_bounds",
    "prom_name",
    "read_spans",
    "render_prometheus",
    "run_profile",
    "stitch",
    "validate_manifest",
    "validate_trace",
    "write_manifest",
    "write_run_artifacts",
    "write_spans",
]
