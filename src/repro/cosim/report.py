"""``python -m repro cosim`` — one co-simulated run, fully reported.

Co-simulates every processor of one application on one shared fabric
and reports the per-processor outcomes (cycles, served misses with
their latency distribution) plus the fabric-level view the per-model
replays cannot see: link queueing and directory occupancy *under the
combined load of all processors at once*.  On a contended fabric the
report also replays the traced processor alone on a fresh fabric
(:func:`~repro.cosim.replay_solo`), so one pair of runs — ``--network
ideal`` and a contended one — gives the fixed / solo / shared view of
that processor.

With an output directory the run also writes the observability
artifacts of the ``profile`` subcommand — a Perfetto-loadable
``trace.json`` with per-processor miss lanes (opt-in), a deterministic
``metrics.json``, and a validated ``manifest.json``.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import TYPE_CHECKING

from ..cpu import ProcessorConfig
from .run import replay_solo, run_cosim

if TYPE_CHECKING:  # repro.obs imports this package: import it lazily
    from ..obs import RunResult


def run_cosim_app(
    app: str,
    store,
    kind: str = "ds",
    model: str = "RC",
    window: int = 64,
    network: str = "ideal",
    sync_mode: str = "replay",
    trace: bool = False,
    out_dir: Path | str | None = None,
    command: str = "",
) -> RunResult:
    """Co-simulate ``app`` and (optionally) write run artifacts.

    ``store`` is a :class:`~repro.experiments.runner.TraceStore`; the
    all-processor trace set plus the recorded sync schedule come from
    its co-simulation cache.  With ``out_dir`` set, the trace/metrics/
    manifest triple lands under ``<out_dir>/<run-id>/`` and the
    manifest is schema-validated (failures land in ``errors``).
    """
    from ..obs import (
        ChromeTracer,
        MetricsRegistry,
        Probe,
        RunResult,
        write_run_artifacts,
    )

    kind = kind.lower()
    model = model.upper()
    # Built before the (slow) trace fetch: a bad config fails at once.
    config = ProcessorConfig(kind=kind, model=model, window=window)
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    crun = store.get_cosim(app)
    timings["trace_generation"] = time.perf_counter() - t0

    write_artifacts = out_dir is not None
    registry = MetricsRegistry(enabled=write_artifacts)
    tracer = ChromeTracer() if (trace and write_artifacts) else None
    probe = Probe(metrics=registry, tracer=tracer)

    t0 = time.perf_counter()
    result = run_cosim(
        crun, config,
        network_kind=network,
        line_size=store.line_size,
        sync_mode=sync_mode,
        probe=probe if write_artifacts else None,
    )
    timings["cosim_run"] = time.perf_counter() - t0

    solo = None
    if network != "ideal":
        t0 = time.perf_counter()
        cpu = store.trace_cpu
        solo = (cpu, *replay_solo(
            crun.traces[cpu], config, network, store.n_procs,
            store.line_size,
        ))
        timings["solo_replay"] = time.perf_counter() - t0

    config_dict = {
        "app": app,
        "kind": kind,
        "model": model,
        "window": window,
        "network": network,
        "sync": sync_mode,
        "n_procs": store.n_procs,
        "miss_penalty": store.miss_penalty,
        "preset": store.preset,
        "trace": trace,
    }
    outputs: dict[str, Path] = {}
    errors: list[str] = []
    # The static kinds ignore the window, so only DS runs name it.
    run_id = f"{app}-cosim-{kind}-{model.lower()}-{network}-{sync_mode}"
    if kind == "ds":
        run_id += f"-w{window}"
    out_path = None
    if write_artifacts:
        out_path = Path(out_dir) / run_id
        outputs, errors = write_run_artifacts(
            out_path, run_id, command or f"python -m repro cosim {app}",
            config_dict, timings, registry, tracer,
        )

    report = format_cosim_report(run_id, config.label(), result, outputs, solo)
    return RunResult(
        app=app, config=config_dict, report=report, out_dir=out_path,
        outputs=outputs, errors=errors, result=result,
    )


def format_cosim_report(
    run_id: str, label: str, result, outputs: dict | None = None,
    solo: tuple | None = None,
) -> str:
    """Per-processor and fabric-level view of one co-simulated run.

    ``solo`` is ``(cpu, breakdown, network)`` from
    :func:`~repro.cosim.replay_solo`: that processor alone on a fresh
    fabric, reported with its miss latencies and link queueing.
    """
    from ..experiments.report import format_table

    rows = []
    for idx, breakdown in enumerate(result.breakdowns):
        miss = result.node_miss_summary(idx)
        sync = result.sync_waits[idx]
        rows.append([
            f"cpu{idx}", breakdown.total, breakdown.busy,
            breakdown.sync, breakdown.read, breakdown.write,
            miss["count"], float(miss["mean"]), miss["p50"], miss["p99"],
            sum(sync) if sync else "-",
        ])
    lines = [
        f"cosim {run_id}",
        f"  {len(result.breakdowns)} x {label} on one shared "
        f"'{result.network_kind}' fabric, {result.sync_mode} sync",
        "",
        format_table(
            ["node", "cycles", "busy", "sync", "read", "write",
             "misses", "lat mean", "p50", "p99", "live waits"],
            rows,
            title="per-processor outcomes",
        ),
    ]

    if solo is not None:
        cpu, breakdown, network = solo
        miss = network.summary()
        links = network.link_summary()
        lines.append("")
        lines.append(format_table(
            ["node", "cycles", "misses", "lat mean", "p50", "p99",
             "q mean", "q max"],
            [[f"cpu{cpu}", breakdown.total, miss["count"],
              float(miss["mean"]), miss["p50"], miss["p99"],
              float(links["mean_depth"]), links["max_depth"]]],
            title=f"solo (cpu{cpu} alone on a fresh "
                  f"'{network.kind}' fabric)",
        ))

    if result.net_summary is not None:
        net = result.net_summary
        links = result.link_summary
        directory = result.dir_summary
        lines.append("")
        lines.append(format_table(
            ["misses", "lat mean", "p50", "p99", "max",
             "q mean", "q max"],
            [[net["count"], float(net["mean"]), net["p50"], net["p99"],
              net["max"], float(links["mean_depth"]),
              links["max_depth"]]],
            title="shared fabric (all processors' load combined)",
            float_fmt="{:.2f}",
        ))
        lines.append("")
        lines.append(format_table(
            ["serves", "wait mean", "wait max", "hottest node",
             "its serves"],
            [[directory["serves"], float(directory["mean_wait"]),
              directory["max_wait"], directory["hottest_node"],
              directory["hottest_serves"]]],
            title="directory occupancy",
            float_fmt="{:.2f}",
        ))

    if outputs:
        lines.append("")
        lines.append("outputs:")
        for name, path in sorted(outputs.items()):
            lines.append(f"  {name}: {path}")
    return "\n".join(lines)
