"""``python -m repro profile`` — one instrumented run, fully reported.

Profiles one application under one processor model / window / network
combination:

1. the application's Tango trace comes from the shared
   :class:`~repro.experiments.runner.TraceStore` (generated on first
   use, cached after);
2. the chosen processor kind is replayed under **all four consistency
   models**, each alone on a fresh network
   (:func:`repro.cosim.replay_solo`), for the stall-attribution table;
3. the primary (kind, model) run is replayed once more with a
   :class:`~repro.obs.Probe` attached, filling occupancy histograms
   (reorder buffer, store buffer, per-link queues), miss-latency
   distributions, and — with tracing on — per-instruction retire spans
   plus network transaction spans;
4. everything lands under ``results/profiles/<run-id>/``
   (:func:`~repro.obs.manifest.write_run_artifacts`): a Perfetto-
   loadable ``trace.json`` (opt-in), a deterministic ``metrics.json``,
   and a ``manifest.json`` recording config, git revision and timings.

The trace and metrics files are byte-identical across repeated runs of
the same configuration; only the manifest carries wall-clock data.
"""

from __future__ import annotations

import time
from pathlib import Path

from ..cosim import replay_solo
from ..cpu import ProcessorConfig
from .manifest import RunResult, write_run_artifacts
from .metrics import MetricsRegistry, format_histogram
from .probe import Probe
from .tracer import ChromeTracer

#: Consistency models swept for the stall-attribution table.
PROFILE_MODELS = ("SC", "PC", "WO", "RC")

#: Histograms rendered in the occupancy section, with display titles.
_OCCUPANCY_HISTS = (
    ("ds.rob_occupancy", "reorder-buffer occupancy (cycles-weighted)"),
    ("ds.store_buffer_depth", "store-buffer depth (cycles-weighted)"),
    ("static.write_buffer_depth", "write-buffer depth (per push)"),
    ("static.read_buffer_depth", "read-buffer depth (per issue)"),
    ("net.miss_latency", "network miss latency (cycles)"),
)


def run_profile(
    app: str,
    store,
    kind: str = "ds",
    model: str = "RC",
    window: int = 64,
    network: str = "ideal",
    trace: bool = True,
    out_dir: Path | str = "results/profiles",
    command: str = "",
) -> RunResult:
    """Profile ``app`` and write trace/metrics/manifest under ``out_dir``.

    ``store`` is a :class:`~repro.experiments.runner.TraceStore`
    (it pins processor count, miss penalty, preset and cache dir).
    ``trace`` gates the timeline; the metrics are always written and
    the report always renders.  Returns a
    :class:`~repro.obs.manifest.RunResult`; ``errors`` carries any
    trace/manifest validation failures.
    """
    kind = kind.lower()
    model = model.upper()
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    run = store.get(app)
    timings["trace_generation"] = time.perf_counter() - t0

    def solo(cfg: ProcessorConfig, probe=None):
        return replay_solo(
            run.trace, cfg, network, store.n_procs, store.line_size,
            probe=probe,
        )

    # -- stall attribution per consistency class -----------------------
    t0 = time.perf_counter()
    models = ("RC",) if kind == "base" else PROFILE_MODELS
    sweep = [
        solo(ProcessorConfig(kind=kind, model=m, window=window))[0]
        for m in models
    ]
    timings["model_sweep"] = time.perf_counter() - t0

    # -- the instrumented primary run ----------------------------------
    t0 = time.perf_counter()
    registry = MetricsRegistry(enabled=True)
    tracer = ChromeTracer() if trace else None
    probe = Probe(metrics=registry, tracer=tracer)
    primary_cfg = ProcessorConfig(
        kind=kind, model="RC" if kind == "base" else model, window=window
    )
    primary, net = solo(primary_cfg, probe)
    if net is not None:
        net.publish(registry, prefix="net")
        series = registry.reservoir("net.miss_latency_series")
        for i, lat in enumerate(net.latencies):
            series.sample(i, lat)
    # Host (trace generator) statistics and timeline from the cached run.
    probe.publish_run_stats(run.stats)
    if tracer is not None:
        probe.trace_host_timeline(run.trace, store.trace_cpu)
    timings["instrumented_run"] = time.perf_counter() - t0

    # -- outputs -------------------------------------------------------
    run_id = f"{app}-{kind}-{model.lower()}-{network}-w{window}"
    out_dir = Path(out_dir) / run_id
    config = {
        "app": app,
        "kind": kind,
        "model": model,
        "window": window,
        "network": network,
        "n_procs": store.n_procs,
        "miss_penalty": store.miss_penalty,
        "preset": store.preset,
        "trace": trace,
    }
    outputs, errors = write_run_artifacts(
        out_dir, run_id, command or f"python -m repro profile {app}",
        config, timings, registry, tracer,
    )

    report = _format_report(
        run_id, run, sweep, primary, registry, net, tracer, outputs
    )
    return RunResult(
        app=app, config=config, report=report, out_dir=out_dir,
        outputs=outputs, errors=errors,
    )


def _format_report(
    run_id, run, sweep, primary, registry, net, tracer, outputs
) -> str:
    from ..experiments.report import format_breakdowns, format_table

    lines = [f"profile {run_id}"]
    lines.append("")
    lines.append(format_breakdowns(
        "stall attribution per consistency class (percent of BASE)",
        sweep, run.base,
    ))

    for name, title in _OCCUPANCY_HISTS:
        hist = registry.get(name)
        if hist is not None and hist.count:
            lines.append("")
            lines.append(title)
            lines.append(format_histogram(hist))

    if net is not None:
        links = net.link_summary()
        lines.append("")
        lines.append(format_table(
            ["hops", "queue mean", "queue max", "busiest link"],
            [[links["samples"], float(links["mean_depth"]),
              links["max_depth"], links["busiest_link"]]],
            title="link queueing",
            float_fmt="{:.2f}",
        ))

    if tracer is not None:
        lines.append("")
        lines.append(f"trace: {len(tracer)} events")
    lines.append("")
    lines.append("outputs:")
    for label, path in sorted(outputs.items()):
        lines.append(f"  {label}: {path}")
    return "\n".join(lines)
