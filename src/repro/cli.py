"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run <app>`` — run one application on the simulated multiprocessor,
  verify it, and print its statistics.
* ``simulate <app>`` — run one application and sweep the processor
  models over its trace (one Figure-3 column set).
* ``table1|table2|table3|headline|figure1|figure3|figure4|latency100|
  multi-issue|miss-analysis|sc-boost|compiler-sched`` —
  regenerate a specific table/figure/extension experiment and print it.
* ``profile <app>`` — instrumented run of one model/window/network
  combination: occupancy histograms, stall attribution per consistency
  model, and (``--trace``) a Perfetto-loadable timeline plus a
  machine-readable run manifest under ``results/profiles/``.
* ``batch`` — resilient config-grid sweep on the supervised worker
  pool: deduplicated sub-runs, content-addressed results, retries with
  backoff, and partial results + a failure report when jobs keep
  failing (exit code 5).
* ``status`` / ``results`` — inspect a batch's per-job state / its
  completed results from the content-addressed store.
* ``serve`` — run the persistent simulation daemon: warm worker pool
  and trace/result caches behind a bounded priority job queue, exposed
  over a stdlib JSON/HTTP API (``POST /v1/jobs``, ``GET
  /v1/jobs/{id}``, ``/v1/results/{id}``, ``/v1/healthz``,
  ``/v1/metrics``).  SIGTERM/SIGINT drains in flight and exits 130.
* ``submit`` / ``watch`` — client side of the daemon: submit a config
  grid over HTTP (several ``--endpoint`` values shard the grid across
  daemons and merge the results) and follow a submission to
  completion.  ``submit --trace-out`` mints a distributed trace id,
  collects every daemon's spans for the submission and writes one
  stitched, validated Perfetto timeline.
* ``top`` — live fleet view: poll one or more daemons' health and
  metrics endpoints and render queue/worker/cache state in the
  terminal (``--once`` for a single CI-friendly sample).
* ``all`` — regenerate everything into ``results/``.

Exit codes are uniform across subcommands (see the README table):
0 success, 1 simulation/verification/validation failure, 2 usage
error, 3 bad configuration value, 4 cache/store I/O error, 5 partial
batch results, 130 interrupted by SIGINT/SIGTERM.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import MultiprocessorConfig, TangoExecutor, build_app
from . import service
from .apps import APP_NAMES, PRESETS
from .net import NETWORK_KINDS
from . import experiments as exp

#: Uniform CLI exit codes (documented in README).
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2  # produced by argparse itself
EXIT_BAD_CONFIG = 3
EXIT_IO = 4
EXIT_PARTIAL = 5
EXIT_INTERRUPTED = 130


def _store(args) -> exp.TraceStore:
    return exp.TraceStore(
        n_procs=args.procs,
        miss_penalty=args.penalty,
        preset=args.preset,
        cache_dir=args.cache_dir,
    )


def cmd_run(args) -> None:
    workload = build_app(args.app, n_procs=args.procs, preset=args.preset)
    config = MultiprocessorConfig(
        n_cpus=args.procs, miss_penalty=args.penalty,
    )
    result = TangoExecutor(
        workload.programs, config, memory=workload.memory
    ).run()
    workload.verify(result.memory)
    stats = result.stats.cpu(0)
    k = stats.busy_cycles / 1000
    print(f"{args.app}: functional verification OK")
    print(f"  instructions (cpu0): {stats.busy_cycles}")
    print(f"  reads/writes per 1000: {stats.reads / k:.0f} / "
          f"{stats.writes / k:.0f}")
    print(f"  read/write misses per 1000: {stats.read_misses / k:.1f} / "
          f"{stats.write_misses / k:.1f}")
    print(f"  locks {stats.locks}  barriers {stats.barriers}  "
          f"events {stats.wait_events}/{stats.set_events}")
    print(f"  end time: {stats.end_time} cycles "
          f"(whole machine: {result.stats.total_cycles})")


def cmd_simulate(args) -> None:
    print(exp.format_app_breakdowns(
        exp.run_figure3(_store(args), apps=(args.app,), jobs=args.jobs),
        f"{{APP}} (percent of BASE, {args.penalty}-cycle miss)",
        bars=True,
    ))


def cmd_experiment(args) -> None:
    experiment = exp.EXPERIMENTS[args.command]
    (result,) = exp.runner.run_experiments(
        _store(args), [experiment], jobs=getattr(args, "jobs", 1)
    )
    print(experiment.format(result))


def cmd_cosim(args) -> int:
    from . import cosim

    # Traces carry the fixed penalty; the co-simulation serves every
    # miss on its own shared fabric.
    store = _store(args)
    argv_echo = (
        f"python -m repro --procs {args.procs} --preset {args.preset} "
        f"cosim {args.app} --kind {args.kind} --model {args.model} "
        f"--window {args.window} --network {args.network} "
        f"--sync {args.sync}"
    )
    return _report_run(cosim.run_cosim_app(
        args.app, store,
        kind=args.kind, model=args.model, window=args.window,
        network=args.network, sync_mode=args.sync,
        trace=args.trace,
        out_dir=args.out, command=argv_echo,
    ))


def cmd_profile(args) -> int:
    from . import obs

    # Traces carry the fixed penalty; the profiled model replays them
    # through a fresh network of the chosen kind.
    store = _store(args)
    argv_echo = (
        f"python -m repro --procs {args.procs} --preset {args.preset} "
        f"profile {args.app} --kind {args.kind} --model {args.model} "
        f"--window {args.window} --network {args.network}"
    )
    return _report_run(obs.run_profile(
        args.app, store,
        kind=args.kind, model=args.model, window=args.window,
        network=args.network, trace=args.trace,
        out_dir=args.out, command=argv_echo,
    ))


def _report_run(result) -> int:
    """Print a ``cosim``/``profile`` report; fail on any artifact that
    did not validate."""
    print(result.report)
    if result.errors:
        print()
        for err in result.errors:
            print(f"VALIDATION FAILED: {err}")
        return EXIT_FAILURE
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify as v

    models = (
        v.ALL_MODELS if args.model == "all" else (args.model.upper(),)
    )
    failures = 0
    target = args.target
    litmus_names: tuple[str, ...] = ()
    app_names: tuple[str, ...] = ()
    if target in ("litmus", "all"):
        litmus_names = tuple(v.CATALOG)
    elif target in v.CATALOG:
        litmus_names = (target,)
    if target in ("apps", "all"):
        app_names = tuple(APP_NAMES)
    elif target in APP_NAMES:
        app_names = (target,)
    if litmus_names:
        results = v.verify_litmus(
            names=litmus_names, models=models,
            schedules=args.schedules, seed=args.seed, jobs=args.jobs,
            ooo=args.ooo,
        )
        print(v.format_litmus_report(results))
        failures += sum(not r.ok for r in results)
    if app_names:
        app_results = v.verify_apps(
            app_names, models=models, n_procs=args.procs,
            preset="tiny" if args.preset == "default" else args.preset,
            miss_penalty=args.penalty, jobs=args.jobs,
        )
        for result in app_results:
            print(result.format())
        failures += sum(not r.ok for r in app_results)
    print(
        "verification "
        + ("OK" if failures == 0 else f"FAILED ({failures} targets)")
    )
    return 0 if failures == 0 else 1


def _chaos_from_args(args) -> service.ChaosSpec | None:
    """Assemble the fault-injection spec from the ``--chaos-*`` flags."""
    crash: dict[int, int] = {}
    hang: dict[int, int] = {}
    corrupt: dict[int, int] = {}
    fail: dict[int, int] = {}
    for mapping, specs in (
        (crash, args.chaos_crash),
        (hang, args.chaos_hang),
        (corrupt, args.chaos_corrupt),
        (fail, args.chaos_fail),
    ):
        for spec in specs or ():
            service.parse_chaos_arg(mapping, spec)
    if not (crash or hang or corrupt or fail):
        return None
    return service.ChaosSpec(
        crash=crash, hang=hang, corrupt=corrupt, fail=fail
    )


def _grid_payload(args) -> dict:
    """The JSON request body of the grid flags (``_add_grid_axes``)."""
    payload = {
        "kinds": list(args.kinds),
        "models": [m.upper() for m in args.models],
        "windows": list(args.windows),
        "networks": list(args.networks),
        "penalties": list(args.penalties),
        "procs": args.procs,
        "preset": args.preset,
    }
    if args.apps:
        payload["apps"] = list(args.apps)
    return payload


def _format_remote_results(rows: list[dict], title: str) -> str:
    from .experiments.report import format_table  # lazy: avoid cycle

    return format_table(
        ["job", "cycles", "busy", "sync", "read", "write", "source"],
        [
            [
                row["label"],
                row["breakdown"]["total"],
                row["breakdown"]["busy"],
                row["breakdown"]["sync"],
                row["breakdown"]["read"],
                row["breakdown"]["write"],
                row["source"],
            ]
            for row in rows
        ],
        title=title,
    )


def _logger_from_args(args):
    """A :class:`JsonLogger` for ``--log-file``, or None when unset."""
    if not getattr(args, "log_file", None):
        return None
    from .obs.log import JsonLogger

    return JsonLogger.to_path(args.log_file, level=args.log_level)


def cmd_serve(args) -> int:
    log = _logger_from_args(args)
    daemon = service.Daemon(
        store_dir=args.store,
        cache_dir=args.cache_dir,
        workers=args.jobs,
        queue_depth=args.queue_depth,
        timeout=args.timeout if args.timeout > 0 else None,
        max_attempts=args.max_attempts,
        seed=args.seed,
        grace=args.grace,
        log=log,
    )
    try:
        return service.serve(daemon, args.host, args.port, banner=print)
    finally:
        if log is not None:
            log.close()


def _write_submit_trace(path, trace, spans, t0, t1) -> int:
    """Stitch, validate and write a submission's distributed trace.

    ``spans`` are the daemons' spans for ``trace``; the client's own
    submit span (the trace root, covering the whole round trip) is
    added here.  Returns 1 when the stitched timeline fails
    :func:`~repro.obs.tracer.validate_trace` — CI asserts trace
    integrity through this exit code, no extra script needed.
    """
    from .obs.spans import Span, stitch
    from .obs.tracer import validate_trace

    root = Span(
        trace.trace_id, trace.span_id, None,
        "submit", "client", "main", t0, t1,
        args={"n_daemon_spans": len(spans)},
    )
    doc = stitch([root] + list(spans))
    errors = validate_trace(doc)
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, sort_keys=True) + "\n")
    print(
        f"trace {trace.trace_id}: {len(spans) + 1} spans -> {out}"
    )
    if errors:
        for err in errors:
            print(f"TRACE VALIDATION FAILED: {err}")
        return EXIT_FAILURE
    return EXIT_OK


def cmd_submit(args) -> int:
    payload = _grid_payload(args)
    if args.priority:
        payload["priority"] = args.priority
    timeout = args.timeout if args.timeout > 0 else None
    trace = None
    if args.trace_out:
        from .obs.context import TraceContext

        trace = TraceContext.mint()
    t0 = time.time()
    if len(args.endpoint) > 1:
        # Shard dispatch: partition the expanded grid across daemons
        # and merge the per-shard results back into grid order.
        report = service.dispatch(
            args.endpoint, payload, timeout=timeout, trace=trace,
        )
        print(report.format_summary())
        if report.results:
            print()
            print(_format_remote_results(
                report.results, "Merged sharded results"
            ))
        rc = EXIT_OK if report.ok else EXIT_PARTIAL
        if trace is not None:
            trace_rc = _write_submit_trace(
                args.trace_out, trace, report.spans, t0, time.time()
            )
            if trace_rc != EXIT_OK:
                return trace_rc
        return rc

    with service.DaemonClient(args.endpoint[0]) as client:
        accepted = client.submit(payload, trace=trace)
        verb = "duplicate of" if accepted["deduped"] else "accepted as"
        print(
            f"{verb} job {accepted['id']} "
            f"({accepted['n_subruns']} sub-runs, "
            f"state {accepted['state']})"
        )
        if not args.wait and trace is None:
            return EXIT_OK
        final = client.wait(accepted["id"], timeout=timeout)
        rows = client.results(accepted["id"]).get("results", [])
        spans = (
            client.trace_spans(trace.trace_id) if trace is not None else []
        )
    counts = ", ".join(
        f"{k}={v}" for k, v in sorted(final.get("counts", {}).items())
    )
    latency = final.get("queue_latency")
    wait_txt = f", queue wait {latency:.2f}s" if latency is not None else ""
    print(f"job {final['id']} {final['state']} ({counts}{wait_txt})")
    if rows:
        print(_format_remote_results(
            rows, f"Job {final['id']} — completed results"
        ))
    rc = EXIT_OK if final["state"] == "done" else EXIT_PARTIAL
    if trace is not None:
        trace_rc = _write_submit_trace(
            args.trace_out, trace, spans, t0, time.time(),
        )
        if trace_rc != EXIT_OK:
            return trace_rc
    return rc


def _format_subrun_timing(final: dict) -> str | None:
    """Per-sub-run wait/run seconds from the job's wall timestamps."""
    subruns = final.get("subruns") or []
    if not subruns:
        return None
    from .experiments.report import format_table  # lazy: avoid cycle

    def sec(a, b):
        return f"{b - a:.2f}" if a is not None and b is not None else "-"

    return format_table(
        ["job", "state", "source", "attempts", "wait_s", "run_s"],
        [
            [
                sub.get("label", "?"),
                sub.get("state", "?"),
                sub.get("source") or "-",
                sub.get("attempts", 0),
                sec(sub.get("queued_at"), sub.get("started_at")),
                sec(sub.get("started_at"), sub.get("finished_at")),
            ]
            for sub in subruns
        ],
        title=f"Job {final['id']} — per-sub-run timing",
    )


def cmd_watch(args) -> int:
    def on_poll(job: dict) -> None:
        counts = ", ".join(
            f"{k}={v}" for k, v in sorted(job.get("counts", {}).items())
        )
        suffix = f" ({counts})" if counts else ""
        print(f"job {job['id']} {job['state']}{suffix}", flush=True)

    with service.DaemonClient(args.endpoint) as client:
        final = client.wait(
            args.id,
            timeout=args.timeout if args.timeout > 0 else None,
            on_poll=on_poll,
        )
    timing = _format_subrun_timing(final)
    if timing:
        print(timing)
    return EXIT_OK if final["state"] == "done" else EXIT_PARTIAL


def _top_table(endpoints: list[str]) -> tuple[str, int]:
    """One fleet sample: a rendered table plus the live-endpoint count.

    Reads each daemon's ``/v1/healthz`` and ``/v1/metrics`` snapshot;
    a dead endpoint renders as a DOWN row instead of failing the view.
    """
    from .experiments.report import format_table  # lazy: avoid cycle

    headers = [
        "endpoint", "state", "queue", "ewma_s", "workers",
        "done", "retry", "quar", "cache", "wait_s", "run_s",
    ]
    rows = []
    up = 0
    for url in endpoints:
        try:
            with service.DaemonClient(url, timeout=5.0) as client:
                health = client.healthz()
                snap = client.metrics()
        except service.ClientError:
            rows.append([url, "DOWN"] + ["-"] * (len(headers) - 2))
            continue
        up += 1
        counters = snap.get("counters", {})
        gauges = snap.get("gauges", {})
        hists = snap.get("histograms", {})
        busy = gauges.get('service.workers{state="busy"}', 0)
        idle = gauges.get('service.workers{state="idle"}', 0)
        hits = counters.get("daemon.result_cache_hits", 0)
        lookups = hits + counters.get("daemon.result_cache_misses", 0)
        wait = hists.get("daemon.job_wait_seconds") or {}
        run = hists.get("daemon.job_run_seconds") or {}
        rows.append([
            url,
            health.get("status", "?"),
            gauges.get("daemon.queue_depth", 0),
            f"{gauges.get('daemon.drain_ewma_seconds', 0):.2f}",
            f"{busy}/{busy + idle}" if busy + idle else "-",
            counters.get("daemon.jobs_done", 0),
            counters.get("service.retries", 0),
            counters.get("service.quarantined", 0),
            f"{hits}/{lookups}" if lookups else "-",
            f"{wait['mean']:.3f}" if wait.get("count") else "-",
            f"{run['mean']:.3f}" if run.get("count") else "-",
        ])
    table = format_table(
        headers, rows,
        title=f"repro fleet — {up}/{len(endpoints)} endpoint(s) up",
    )
    return table, up


def cmd_top(args) -> int:
    if args.once:
        table, up = _top_table(args.endpoint)
        print(table)
        return EXIT_OK if up else EXIT_IO
    try:
        while True:
            table, _ = _top_table(args.endpoint)
            sys.stdout.write("\x1b[2J\x1b[H")  # clear screen, home
            print(time.strftime("%H:%M:%S"), "(Ctrl-C to quit)")
            print(table, flush=True)
            time.sleep(args.interval)
    except KeyboardInterrupt:
        print()
        return EXIT_OK


def cmd_batch(args) -> int:
    grid = service.sweep_from_request(_grid_payload(args))
    command = "python -m repro batch " + " ".join(
        f"--{k} {v}" for k, v in (
            ("jobs", args.jobs), ("timeout", args.timeout),
            ("max-attempts", args.max_attempts),
        )
    )
    log = _logger_from_args(args)
    trace = None
    if args.trace:
        from .obs.context import TraceContext

        trace = TraceContext.mint()
    try:
        report = service.run_batch(
            grid,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            out_dir=args.out,
            store_dir=args.store,
            timeout=args.timeout if args.timeout > 0 else None,
            max_attempts=args.max_attempts,
            seed=args.seed,
            chaos=_chaos_from_args(args),
            command=command,
            log=log,
            trace=trace,
        )
    finally:
        if log is not None:
            log.close()
    print(report.format_summary())
    if trace is not None:
        print(f"trace {trace.trace_id}: {report.out_dir / 'trace.json'}")
    return EXIT_PARTIAL if report.partial else EXIT_OK


def cmd_status(args) -> int:
    state = service.load_state(service.find_batch(args.out, args.id))
    print(service.format_status(state))
    jobs = state.get("jobs", [])
    degraded = any(
        j["state"] in ("failed", "cancelled") for j in jobs
    )
    # Mirror the batch's own exit: 5 when degraded, 0 otherwise (a
    # batch still in flight is not a failure — status is a live view).
    return EXIT_PARTIAL if degraded else EXIT_OK


def cmd_results(args) -> int:
    state = service.load_state(service.find_batch(args.out, args.id))
    print(service.format_results(state))
    return EXIT_OK


def cmd_all(args) -> None:
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    results = exp.runner.run_experiments(
        _store(args), list(exp.EXPERIMENTS.values()), jobs=args.jobs
    )
    for (name, experiment), result in zip(exp.EXPERIMENTS.items(), results):
        print(f"[{name}] ...", flush=True)
        (out / f"{name.replace('-', '_')}.txt").write_text(
            experiment.format(result) + "\n"
        )
    print(f"wrote results to {out}/")


def _add_grid_axes(p: argparse.ArgumentParser) -> None:
    """The six config-grid axes of ``batch`` and ``submit``."""
    p.add_argument("--apps", nargs="*", choices=APP_NAMES,
                   help="applications to sweep (default: all)")
    p.add_argument("--kinds", nargs="*", default=["ds"],
                   choices=service.KINDS,
                   help="processor kinds to sweep")
    p.add_argument("--models", nargs="*", default=["RC"],
                   type=lambda s: s.upper(), choices=service.MODELS,
                   help="consistency models to sweep")
    p.add_argument("--windows", nargs="*", type=int, default=[64],
                   help="DS reorder-buffer windows to sweep")
    p.add_argument("--networks", nargs="*", default=["ideal"],
                   choices=NETWORK_KINDS,
                   help="interconnect backends to sweep")
    p.add_argument("--penalties", nargs="*", type=int, default=[50],
                   help="miss penalties (cycles) to sweep")


def _add_log_options(p: argparse.ArgumentParser, events: str) -> None:
    """``--log-file`` / ``--log-level`` of ``batch`` and ``serve``."""
    p.add_argument("--log-file", default=None, metavar="PATH",
                   help=f"append structured JSONL logs ({events}) here")
    p.add_argument("--log-level", default="info",
                   choices=("debug", "info", "warning", "error"),
                   help="minimum level written to --log-file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Hiding Memory Latency using Dynamic "
            "Scheduling in Shared-Memory Multiprocessors' (ISCA 1992)"
        ),
    )
    parser.add_argument("--procs", type=int, default=16,
                        help="number of simulated processors")
    parser.add_argument("--penalty", type=int, default=50,
                        help="cache miss penalty in cycles")
    parser.add_argument("--preset", default="default",
                        choices=PRESETS,
                        help="application size preset")
    parser.add_argument("--cache-dir", default=exp.runner.DEFAULT_CACHE_DIR,
                        help="trace cache directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run and verify one application")
    p_run.add_argument("app", choices=APP_NAMES)
    p_run.set_defaults(func=cmd_run)

    p_sim = sub.add_parser(
        "simulate", help="sweep processor models over one application"
    )
    p_sim.add_argument("app", choices=APP_NAMES)
    p_sim.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the model sweep")
    p_sim.set_defaults(func=cmd_simulate)

    for name in exp.EXPERIMENTS:
        p = sub.add_parser(name, help=f"regenerate {name}")
        if name in ("figure3", "figure4", "latency100"):
            p.add_argument("--jobs", type=int, default=1,
                           help="worker processes for trace generation "
                                "and model sweeps")
        p.set_defaults(func=cmd_experiment)

    p_cosim = sub.add_parser(
        "cosim",
        help="co-simulate all processors on one shared fabric",
        description=(
            "Execution-driven co-simulation: advance every processor "
            "of the application against a single shared network with "
            "live directory state, feeding each miss's actual fabric "
            "latency (including queueing behind the other processors' "
            "concurrent misses) back into the issuing CPU's timing.  "
            "On a contended fabric the report adds the traced "
            "processor replayed alone on a fresh fabric (its solo "
            "line).  "
            "--sync live additionally resolves lock/barrier waits from "
            "the co-simulated timeline instead of the trace's baked "
            "waits.  With --out, writes metrics + a validated run "
            "manifest (and --trace a Perfetto timeline)."
        ),
    )
    p_cosim.add_argument("app", choices=APP_NAMES)
    p_cosim.add_argument("--kind", default="ds",
                         choices=("base", "ssbr", "ss", "ds"),
                         help="processor model co-simulated on every "
                              "node")
    p_cosim.add_argument("--model", default="RC",
                         type=lambda s: s.upper(),
                         choices=("SC", "PC", "WO", "RC"),
                         help="consistency model")
    p_cosim.add_argument("--window", type=int, default=64,
                         help="DS reorder-buffer window")
    p_cosim.add_argument("--network", default="ideal",
                         choices=NETWORK_KINDS,
                         help="interconnect timing backend (ideal = the "
                              "paper's fixed miss penalty)")
    p_cosim.add_argument("--sync", default="replay",
                         choices=("replay", "live"),
                         help="sync waits: trace-baked (replay) or "
                              "resolved live from the recorded "
                              "schedule")
    p_cosim.add_argument("--trace", action="store_true",
                         help="emit a Chrome trace_event JSON timeline "
                              "(requires --out)")
    p_cosim.add_argument("--out", default=None,
                         help="write metrics + run manifest under this "
                              "directory")
    p_cosim.set_defaults(func=cmd_cosim)

    p_prof = sub.add_parser(
        "profile",
        help="instrumented run: occupancy, stall attribution, trace",
        description=(
            "Profile one application under one model/window/network "
            "combination: stall attribution across all four consistency "
            "models, occupancy histograms (reorder buffer, store "
            "buffer, link queues), and — with --trace — a Perfetto-"
            "loadable trace.json.  Writes trace + metrics + a run "
            "manifest under --out."
        ),
    )
    p_prof.add_argument("app", choices=APP_NAMES)
    p_prof.add_argument("--kind", default="ds",
                        choices=("base", "ssbr", "ss", "ds"),
                        help="processor model to profile")
    p_prof.add_argument("--model", default="RC",
                        type=lambda s: s.upper(),
                        choices=("SC", "PC", "WO", "RC"),
                        help="consistency model of the primary run")
    p_prof.add_argument("--window", type=int, default=64,
                        help="DS reorder-buffer window")
    p_prof.add_argument("--network", default="ideal",
                        choices=NETWORK_KINDS,
                        help="interconnect backend for the profiled run")
    p_prof.add_argument("--trace", action="store_true",
                        help="emit a Chrome trace_event JSON timeline")
    p_prof.add_argument("--out", default="results/profiles",
                        help="output directory for profile artifacts")
    p_prof.set_defaults(func=cmd_profile)

    p_ver = sub.add_parser(
        "verify",
        help="check recorded executions against the consistency axioms",
        description=(
            "Record executions and check them against a model's "
            "happens-before axioms.  Targets: an application name "
            "(run on the Tango executor), a litmus-test name (run on "
            "the model-aware store-buffer engine), or the groups "
            "'litmus', 'apps', 'all'."
        ),
    )
    from .verify import CATALOG as _CATALOG  # local to keep startup lazy

    p_ver.add_argument(
        "target",
        choices=tuple(APP_NAMES) + tuple(_CATALOG)
        + ("litmus", "apps", "all"),
    )
    p_ver.add_argument("--model", default="all",
                       choices=("sc", "pc", "wo", "rc", "all"),
                       help="consistency model(s) to check against")
    p_ver.add_argument("--schedules", type=int, default=100,
                       help="seeded schedules per litmus test and model")
    p_ver.add_argument("--seed", type=int, default=0,
                       help="base seed for the schedule sweep")
    p_ver.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the verification sweep")
    p_ver.add_argument("--ooo", action="store_true",
                       help="litmus engine issues loads/stores out of "
                            "order (exposes lb/iriw reorderings under "
                            "WO/RC)")
    p_ver.set_defaults(func=cmd_verify)

    p_batch = sub.add_parser(
        "batch",
        help="resilient config-grid sweep on the supervised pool",
        description=(
            "Decompose a config grid (apps x kinds x models x windows "
            "x networks x penalties) into deduplicated jobs and run "
            "them on the supervised worker pool: per-job wall-clock "
            "timeouts, automatic worker restart, seeded "
            "exponential-backoff retries, and a quarantine list.  "
            "Results land in a content-addressed store keyed by "
            "(config hash, trace schema version, git revision), so "
            "repeated or overlapping sweeps only pay for their unique "
            "work.  A batch with permanently failing jobs still "
            "completes, printing partial results plus a structured "
            "failure report and exiting with code 5."
        ),
    )
    _add_grid_axes(p_batch)
    p_batch.add_argument("--jobs", type=int, default=1,
                         help="supervised worker processes")
    p_batch.add_argument("--timeout", type=float, default=0.0,
                         help="per-job wall-clock budget in seconds "
                              "(0 = unlimited)")
    p_batch.add_argument("--max-attempts", type=int, default=3,
                         help="attempts per job before quarantine")
    p_batch.add_argument("--seed", type=int, default=0,
                         help="seed for retry backoff jitter")
    p_batch.add_argument("--out", default=str(service.DEFAULT_BATCH_DIR),
                         help="batch state/report directory")
    p_batch.add_argument("--store", default=None,
                         help="content-addressed result store directory "
                              "(default: <out>/store)")
    for flag, what in (
        ("--chaos-crash", "SIGKILL the worker"),
        ("--chaos-hang", "hang past the timeout"),
        ("--chaos-corrupt", "corrupt the result payload"),
        ("--chaos-fail", "raise a transient exception"),
    ):
        p_batch.add_argument(
            flag, nargs="*", metavar="IDX[:N]", default=[],
            help=f"fault injection (testing): {what} for scheduled job "
                 f"IDX on its first N attempts (default: all attempts)",
        )
    p_batch.add_argument("--trace", action="store_true",
                         help="record a distributed trace of the batch "
                              "(supervisor, per-job, per-attempt and "
                              "worker spans) and write a stitched "
                              "Perfetto timeline to <batch>/trace.json")
    _add_log_options(p_batch, "queue, pool, chaos, degradation events")
    p_batch.set_defaults(func=cmd_batch)

    p_serve = sub.add_parser(
        "serve",
        help="run the persistent simulation daemon (HTTP API)",
        description=(
            "Start the simulation-as-a-service daemon: a warm "
            "supervised worker pool plus in-memory trace and result "
            "caches that persist across requests, fed by a bounded "
            "priority job queue and exposed over a stdlib JSON/HTTP "
            "API.  POST /v1/jobs accepts the batch grid as JSON "
            "(429 + Retry-After under backpressure, duplicate "
            "submissions return the existing job id); GET "
            "/v1/jobs/{id}, /v1/results/{id}, /v1/healthz and "
            "/v1/metrics observe it.  Results are byte-identical to "
            "the batch path and land in the same content-addressed "
            "store.  SIGTERM/SIGINT drains the in-flight submission "
            "within --grace seconds and exits 130."
        ),
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address")
    p_serve.add_argument("--port", type=int, default=8631,
                         help="bind port (0 = ephemeral)")
    p_serve.add_argument("--jobs", type=int, default=1,
                         help="worker processes (1 = in-process "
                              "execution with maximally warm caches)")
    p_serve.add_argument("--queue-depth", type=int, default=64,
                         help="max queued submissions before 429")
    p_serve.add_argument("--timeout", type=float, default=0.0,
                         help="per-job wall-clock budget in seconds "
                              "(0 = unlimited; pooled mode only)")
    p_serve.add_argument("--max-attempts", type=int, default=3,
                         help="attempts per job before quarantine "
                              "(pooled mode only)")
    p_serve.add_argument("--seed", type=int, default=0,
                         help="seed for retry backoff jitter")
    p_serve.add_argument("--grace", type=float, default=5.0,
                         help="shutdown drain budget in seconds")
    p_serve.add_argument("--store",
                         default=str(service.DEFAULT_DAEMON_DIR / "store"),
                         help="content-addressed result store directory")
    _add_log_options(
        p_serve, "lifecycle, queue admission, pool supervision"
    )
    p_serve.set_defaults(func=cmd_serve)

    p_submit = sub.add_parser(
        "submit",
        help="submit a config grid to daemon(s) over HTTP",
        description=(
            "Client side of the daemon: expand the same grid flags as "
            "`batch` into a JSON request and POST it to /v1/jobs.  "
            "With one --endpoint the daemon expands the grid; with "
            "several, the grid is expanded locally, partitioned into "
            "deterministic contiguous shards, submitted to all "
            "endpoints concurrently, and the per-shard results are "
            "merged back into grid order."
        ),
    )
    p_submit.add_argument("--endpoint", nargs="+", required=True,
                          metavar="URL",
                          help="daemon base URL(s), e.g. "
                               "http://127.0.0.1:8631")
    _add_grid_axes(p_submit)
    p_submit.add_argument("--priority", type=int, default=0,
                          help="queue priority (lower runs earlier)")
    p_submit.add_argument("--wait", action="store_true",
                          help="wait until the submission finishes and "
                               "print its results")
    p_submit.add_argument("--timeout", type=float, default=0.0,
                          help="max seconds to wait (0 = unlimited)")
    p_submit.add_argument("--trace-out", default=None, metavar="PATH",
                          help="mint a distributed trace id for the "
                               "submission, collect every endpoint's "
                               "spans and write one stitched, validated "
                               "Perfetto timeline here (implies --wait; "
                               "exits 1 if validation fails)")
    p_submit.set_defaults(func=cmd_submit)

    p_watch = sub.add_parser(
        "watch",
        help="follow a daemon submission to completion",
    )
    p_watch.add_argument("id", help="submission id returned by submit")
    p_watch.add_argument("--endpoint", required=True, metavar="URL",
                         help="daemon base URL")
    p_watch.add_argument("--timeout", type=float, default=0.0,
                         help="max seconds to wait (0 = unlimited)")
    p_watch.set_defaults(func=cmd_watch)

    p_status = sub.add_parser(
        "status",
        help="per-job state of a batch (latest, or --id)",
    )
    p_status.add_argument("--id", default=None, help="batch id")
    p_status.add_argument("--out",
                          default=str(service.DEFAULT_BATCH_DIR),
                          help="batch state directory")
    p_status.set_defaults(func=cmd_status)

    p_results = sub.add_parser(
        "results",
        help="completed results of a batch from the result store",
    )
    p_results.add_argument("--id", default=None, help="batch id")
    p_results.add_argument("--out",
                           default=str(service.DEFAULT_BATCH_DIR),
                           help="batch state directory")
    p_results.set_defaults(func=cmd_results)

    p_top = sub.add_parser(
        "top",
        help="live terminal view of daemon fleet metrics",
        description=(
            "Poll one or more daemons' /v1/healthz and /v1/metrics "
            "endpoints and render queue depth, drain-rate EWMA, worker "
            "busy/idle counts, retry/quarantine counters, result-cache "
            "hit ratio and mean job wait/run latency in one table, "
            "refreshed every --interval seconds.  A dead endpoint "
            "shows as a DOWN row.  --once prints a single sample and "
            "exits (0 if any endpoint answered, 4 if none did)."
        ),
    )
    p_top.add_argument("--endpoint", nargs="+", required=True,
                       metavar="URL",
                       help="daemon base URL(s) to watch")
    p_top.add_argument("--interval", type=float, default=2.0,
                       help="refresh interval in seconds")
    p_top.add_argument("--once", action="store_true",
                       help="print one sample and exit (CI-friendly)")
    p_top.set_defaults(func=cmd_top)

    p_all = sub.add_parser("all", help="regenerate everything")
    p_all.add_argument("--output", default="results")
    p_all.add_argument("--jobs", type=int, default=1,
                       help="worker processes for trace generation "
                            "and every model sweep")
    p_all.set_defaults(func=cmd_all)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Dispatch a subcommand, mapping failures to uniform exit codes.

    Every failure class gets a distinct code and a one-line message on
    stderr instead of a traceback (set ``REPRO_DEBUG=1`` to re-raise
    for debugging).  Argparse itself exits 2 on usage errors.
    """
    args = build_parser().parse_args(argv)
    try:
        rc = args.func(args)
    except (service.BatchInterrupted, KeyboardInterrupt) as exc:
        if os.environ.get("REPRO_DEBUG"):
            raise
        print(f"interrupted: {exc}", file=sys.stderr)
        return EXIT_INTERRUPTED
    except service.JobsFailedError as exc:
        if os.environ.get("REPRO_DEBUG"):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except service.ClientError as exc:
        if os.environ.get("REPRO_DEBUG"):
            raise
        print(f"daemon error: {exc}", file=sys.stderr)
        # A rejected request is the caller's fault (bad grid: 3); an
        # unreachable or overloaded daemon is an I/O condition (4).
        return EXIT_BAD_CONFIG if exc.status == 400 else EXIT_IO
    except (service.ResultStoreError, OSError) as exc:
        if os.environ.get("REPRO_DEBUG"):
            raise
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, KeyError) as exc:
        if os.environ.get("REPRO_DEBUG"):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except AssertionError as exc:
        if os.environ.get("REPRO_DEBUG"):
            raise
        print(f"validation failed: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    return rc if isinstance(rc, int) else EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
