"""The instrumentation probe threaded through the simulator layers.

A :class:`Probe` bundles one :class:`~repro.obs.metrics.MetricsRegistry`
and an optional :class:`~repro.obs.tracer.ChromeTracer` and is accepted
(always optionally, default ``None``) by:

* :class:`repro.tango.TangoExecutor` — publishes per-CPU run statistics
  and cache/coherence counters after the run, reconstructs the traced
  processors' host timelines for the tracer;
* :class:`repro.mem.CoherentMemorySystem` — per-miss latency histograms
  and coherence-event counters (miss paths only; hits stay untouched);
* :class:`repro.net.ContentionNetwork` — per-miss network spans,
  per-hop queue-wait events, link-queue-depth publication;
* every CPU model in :mod:`repro.cpu` — occupancy histograms, stall
  attribution, per-instruction pipeline spans (DS).

Simulation results are byte-identical with a probe attached or not: the
probe only *observes*.  The hot loops guard every probe touch with an
``is None`` check, so the disabled path costs one pointer comparison on
slow paths and nothing at all on the fast paths (see the ≤2% guard in
``benchmarks/test_perf_smoke.py``).
"""

from __future__ import annotations

from ..isa import MemClass, Op
from .metrics import LATENCY_BOUNDS, MetricsRegistry
from .tracer import CAT_CPU, CAT_MEM, CAT_SYNC, ChromeTracer

_MC_READ = int(MemClass.READ)
_MC_WRITE = int(MemClass.WRITE)
_MC_ACQUIRE = int(MemClass.ACQUIRE)
_MC_RELEASE = int(MemClass.RELEASE)
_MC_BARRIER = int(MemClass.BARRIER)

_OP_NAME = {int(op): op.name for op in Op}

#: Per-instruction spans and per-hop events a traced run emits before it
#: only counts them (``trace.spans_dropped``).
SPAN_LIMIT = 50_000
HOP_LIMIT = 20_000

#: CpuStats fields published as ``tango.cpu<N>.<field>`` counters.
_CPU_STAT_FIELDS = (
    "busy_cycles", "reads", "writes", "read_misses", "write_misses",
    "read_stall_cycles", "write_stall_cycles", "locks", "unlocks",
    "barriers", "wait_events", "set_events", "acquire_wait_cycles",
    "acquire_access_cycles", "release_access_cycles", "cond_branches",
)


class Probe:
    """Metrics + tracing sink handed to the simulator layers."""

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        tracer: ChromeTracer | None = None,
    ) -> None:
        self.metrics = (
            metrics if metrics is not None
            else MetricsRegistry(enabled=False)
        )
        self.tracer = tracer
        #: Remaining per-instruction span / per-hop event budgets; once
        #: exhausted further events are counted, not emitted (the caps
        #: are reported, never silent — see ``trace.spans_dropped``).
        self.span_budget = SPAN_LIMIT if tracer is not None else 0
        self.hop_budget = HOP_LIMIT if tracer is not None else 0
        # (process, group) -> per-lane busy-until times, for laning
        # overlapping spans (e.g. a DS core's concurrent misses) onto
        # properly nesting tracks.
        self._lanes: dict[tuple[str, str], list[int]] = {}
        m = self.metrics
        self._read_miss_lat = m.histogram(
            "mem.read_miss_latency", LATENCY_BOUNDS
        )
        self._write_miss_lat = m.histogram(
            "mem.write_miss_latency", LATENCY_BOUNDS
        )

    @property
    def enabled(self) -> bool:
        return self.metrics.enabled or self.tracer is not None

    def span_track(
        self, process: str, group: str, start: int, end: int
    ) -> tuple[int, int]:
        """A ``(pid, tid)`` whose lane is free over ``[start, end)``.

        Concurrent spans of one group (overlapped misses from a
        lockup-free cache) land on separate lanes, so every lane's
        spans are disjoint and the trace nests cleanly.
        """
        lanes = self._lanes.setdefault((process, group), [])
        for i, busy_until in enumerate(lanes):
            if start >= busy_until:
                lanes[i] = end
                return self.tracer.track(process, f"{group}.{i}")
        lanes.append(end)
        return self.tracer.track(process, f"{group}.{len(lanes) - 1}")

    # -- memory-system taps (CoherentMemorySystem) ---------------------

    def on_miss(self, cpu: int, is_write: bool, stall: int, now: int) -> None:
        """One cache miss resolved with latency ``stall`` at ``now``."""
        if is_write:
            self._write_miss_lat.observe(stall)
        else:
            self._read_miss_lat.observe(stall)

    def on_coherence(self, kind: str, cpu: int, line: int, extra) -> None:
        """A protocol event (install/upgrade/invalidate/downgrade/evict)."""
        self.metrics.counter(f"coherence.{kind}").inc()

    # -- publication helpers -------------------------------------------

    def publish_run(self, result) -> None:
        """Publish an executor :class:`~repro.tango.RunResult`."""
        self.publish_run_stats(result.stats)
        self.publish_cache_stats(result.memsys)
        if self.tracer is not None:
            for cpu, trace in sorted(result.traces.items()):
                self.trace_host_timeline(trace, cpu)

    def publish_run_stats(self, stats) -> None:
        """Per-CPU executor counters (works on cached RunStats too)."""
        m = self.metrics
        for cpu_stats in stats.cpus:
            prefix = f"tango.cpu{cpu_stats.cpu}"
            for fld in _CPU_STAT_FIELDS:
                m.counter(f"{prefix}.{fld}").inc(getattr(cpu_stats, fld))
            m.gauge(f"{prefix}.end_time").set(cpu_stats.end_time)
        m.gauge("tango.total_cycles").set(stats.total_cycles)

    def publish_cache_stats(self, memsys) -> None:
        for cpu, cache in enumerate(memsys.caches):
            cache.stats.publish(self.metrics, prefix=f"cache.cpu{cpu}")
        memsys.total_stats().publish(self.metrics, prefix="cache.total")

    def publish_breakdown(self, breakdown) -> None:
        """One CPU model's execution-time decomposition."""
        from ..cpu.results import COMPONENTS

        m = self.metrics
        prefix = f"breakdown.{breakdown.label}"
        for comp in COMPONENTS:
            m.counter(f"{prefix}.{comp}").inc(getattr(breakdown, comp))
        m.counter(f"{prefix}.instructions").inc(breakdown.instructions)

    # -- host (trace-generator) timeline -------------------------------

    def trace_host_timeline(self, trace, cpu: int) -> None:
        """Reconstruct the in-order host processor's timeline.

        The Tango host executes one instruction per cycle plus the
        recorded read/sync stalls (write latency is hidden by the host's
        write buffer), so the per-instruction span schedule is recovered
        from the trace columns after the run — no hot-path hooks needed.
        Negative sync waits (wakeups granted before this processor's
        virtual time) render as zero-wait spans.
        Spans beyond the probe's budget are counted as dropped.
        """
        tracer = self.tracer
        if tracer is None:
            return
        pid, tid = tracer.track(f"tango-cpu{cpu}", "host pipeline")
        dropped = 0
        t = 0
        for op, addr, stall, wait, cls in zip(
            trace.op, trace.addr, trace.stall, trace.wait, trace.mem_class
        ):
            dur = 1
            if cls == _MC_READ:
                dur += stall
            elif cls == _MC_ACQUIRE or cls == _MC_BARRIER:
                # Write/release latency is hidden on the host; acquire
                # latency and (non-negative) contention wait are not.
                dur += stall + max(0, wait)
            if self.span_budget <= 0:
                dropped += 1
                t += dur
                continue
            self.span_budget -= 1
            args = None
            if cls != 0:
                args = {"addr": addr, "stall": stall}
                if wait:
                    args["wait"] = wait
            cat = CAT_SYNC if cls >= _MC_ACQUIRE else (
                CAT_MEM if cls else CAT_CPU
            )
            tracer.complete(
                _OP_NAME.get(op, f"op{op}"), cat, pid, tid, t, dur,
                args=args,
            )
            t += dur
        if dropped:
            self.metrics.counter("trace.spans_dropped").inc(dropped)
