"""Tests for the command-line interface."""

import json
import os
import shlex
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_command_parses(self):
        args = build_parser().parse_args(
            ["--preset", "tiny", "run", "mp3d"]
        )
        assert args.command == "run"
        assert args.app == "mp3d"
        assert args.preset == "tiny"

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "doom"])

    def test_all_experiments_have_subcommands(self):
        parser = build_parser()
        for name in ("table1", "table3", "figure3", "figure4",
                     "headline", "latency100", "sc-boost",
                     "compiler-sched", "miss-analysis", "multi-issue"):
            args = parser.parse_args([name])
            assert args.command == name


class TestDegenerateConfig:
    def test_zero_window_exits_bad_config_not_spins(self, tmp_path):
        """`cosim --kind ds --window 0` used to spin until killed; it
        must exit 3 with one line (a subprocess, so a regression fails
        on the timeout instead of hanging the suite)."""
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--preset", "tiny",
             "--procs", "4", "--cache-dir", str(tmp_path),
             "cosim", "lu", "--kind", "ds", "--window", "0"],
            env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
            capture_output=True, text=True, timeout=5,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "error: window must be at least 1, got 0"
        ]


class TestVerifyCommand:
    def test_parses_targets_and_options(self):
        args = build_parser().parse_args(
            ["verify", "litmus", "--model", "rc",
             "--schedules", "25", "--seed", "7", "--jobs", "2"]
        )
        assert args.command == "verify"
        assert args.target == "litmus"
        assert args.model == "rc"
        assert (args.schedules, args.seed, args.jobs) == (25, 7, 2)

    def test_accepts_app_and_litmus_names(self):
        parser = build_parser()
        for target in ("lu", "sb", "mp", "apps", "all"):
            assert parser.parse_args(["verify", target]).target == target
        with pytest.raises(SystemExit):
            parser.parse_args(["verify", "doom"])

    def test_litmus_run_reports_and_succeeds(self, capsys):
        rc = main(["verify", "sb", "--model", "pc", "--schedules", "60"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[sb/PC] ok" in out
        assert "provably non-SC" in out
        assert "verification OK" in out

    def test_app_run_checks_all_models(self, capsys):
        rc = main(["--procs", "4", "verify", "lu"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[lu] ok" in out
        for model in ("SC", "PC", "WO", "RC"):
            assert f"{model}=ok" in out


class TestExecution:
    def test_run_verifies_and_reports(self, capsys, tmp_path):
        rc = main(["--preset", "tiny", "--cache-dir", str(tmp_path),
                   "run", "ocean"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "functional verification OK" in out
        assert "read/write misses" in out

    def test_figure1_prints_models(self, capsys, tmp_path):
        rc = main(["--cache-dir", str(tmp_path), "figure1"])
        assert rc == 0
        out = capsys.readouterr().out
        for model in ("SC", "PC", "WO", "RC"):
            assert model in out

    def test_simulate_prints_breakdowns(self, capsys, tmp_path):
        rc = main(["--preset", "tiny", "--cache-dir", str(tmp_path),
                   "simulate", "mp3d"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "BASE" in out and "DS-RC-w256" in out
        assert "legend" in out


class TestNetworkFlag:
    def test_network_defaults_to_ideal(self):
        for command in ("cosim", "profile"):
            args = build_parser().parse_args([command, "lu"])
            assert args.network == "ideal"

    def test_network_choices(self):
        parser = build_parser()
        for command in ("cosim", "profile"):
            for kind in ("ideal", "crossbar", "mesh"):
                args = parser.parse_args([command, "lu", "--network", kind])
                assert args.network == kind
            with pytest.raises(SystemExit):
                parser.parse_args([command, "lu", "--network", "torus"])

    def test_global_network_and_contention_are_gone(self):
        # Traces are built with the fixed penalty only; a contended
        # fabric is a choice of the commands that replay them, and the
        # solo replay is the cosim report's solo line.
        for argv in (["--network", "mesh", "run", "lu"], ["contention"]):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == 2

    def test_verify_ooo_flag(self):
        parser = build_parser()
        assert parser.parse_args(["verify", "lb"]).ooo is False
        assert parser.parse_args(["verify", "lb", "--ooo"]).ooo is True

    def test_verify_ooo_litmus_end_to_end(self, capsys):
        rc = main(["verify", "lb", "--model", "rc",
                   "--schedules", "80", "--ooo"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[lb/RC] ok" in out
        assert "verification OK" in out


class TestBatchCommands:
    def test_batch_parses_grid_and_service_flags(self):
        args = build_parser().parse_args(
            ["batch", "--apps", "lu", "ocean", "--kinds", "base", "ds",
             "--models", "rc", "--windows", "16", "64",
             "--jobs", "4", "--timeout", "30", "--max-attempts", "2",
             "--chaos-crash", "0", "--chaos-hang", "1:1"]
        )
        assert args.command == "batch"
        assert args.apps == ["lu", "ocean"]
        assert args.kinds == ["base", "ds"]
        assert args.models == ["RC"]
        assert (args.jobs, args.timeout, args.max_attempts) == (4, 30.0, 2)
        assert args.chaos_crash == ["0"]
        assert args.chaos_hang == ["1:1"]

    def test_unknown_axis_values_exit_usage(self):
        parser = build_parser()
        for argv in (["batch", "--apps", "doom"],
                     ["batch", "--kinds", "vliw"],
                     ["batch", "--models", "tso"],
                     ["batch", "--networks", "torus"]):
            with pytest.raises(SystemExit) as exc_info:
                parser.parse_args(argv)
            assert exc_info.value.code == 2

    def test_bad_window_exits_bad_config(self, capsys, tmp_path):
        rc = main(["batch", "--apps", "lu", "--windows", "0",
                   "--out", str(tmp_path)])
        assert rc == 3
        assert "bad window" in capsys.readouterr().err

    def test_status_without_batches_exits_io(self, capsys, tmp_path):
        rc = main(["status", "--out", str(tmp_path / "nothing")])
        assert rc == 4
        assert "I/O error" in capsys.readouterr().err

    def test_batch_status_results_end_to_end(self, capsys, tmp_path):
        common = ["--preset", "tiny", "--procs", "4",
                  "--cache-dir", str(tmp_path / "traces")]
        out = str(tmp_path / "batches")
        rc = main(common + ["batch", "--apps", "lu",
                            "--kinds", "base", "ds", "--jobs", "2",
                            "--out", out])
        assert rc == 0
        assert "2/2 jobs done" in capsys.readouterr().out

        assert main(["status", "--out", out]) == 0
        status = capsys.readouterr().out
        assert "lu/base" in status and "lu/ds/RC/w64" in status

        assert main(["results", "--out", out]) == 0
        results = capsys.readouterr().out
        assert "cycles" in results and "lu/ds/RC/w64" in results

    def test_chaos_batch_exits_partial(self, capsys, tmp_path):
        common = ["--preset", "tiny", "--procs", "4",
                  "--cache-dir", str(tmp_path / "traces")]
        out = str(tmp_path / "batches")
        rc = main(common + ["batch", "--apps", "lu",
                            "--kinds", "base", "ds", "--jobs", "2",
                            "--out", out, "--max-attempts", "2",
                            "--chaos-fail", "0"])
        assert rc == 5
        summary = capsys.readouterr().out
        assert "1 failed" in summary and "FAILED" in summary
        # status mirrors the degraded exit code.
        assert main(["status", "--out", out]) == 5


class TestServiceCommands:
    def test_serve_parses_with_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert (args.host, args.port) == ("127.0.0.1", 8631)
        assert (args.jobs, args.queue_depth, args.grace) == (1, 64, 5.0)
        assert args.store.endswith("store")

    def test_submit_requires_endpoint(self):
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(["submit", "--apps", "lu"])
        assert exc_info.value.code == 2

    def test_submit_parses_grid_and_client_flags(self):
        args = build_parser().parse_args(
            ["submit", "--endpoint", "http://a:1", "http://b:2",
             "--apps", "lu", "--kinds", "base", "ds",
             "--priority", "3", "--wait", "--timeout", "60"]
        )
        assert args.endpoint == ["http://a:1", "http://b:2"]
        assert args.kinds == ["base", "ds"]
        assert (args.priority, args.wait, args.timeout) == (3, True, 60.0)

    def test_watch_parses(self):
        args = build_parser().parse_args(
            ["watch", "deadbeef01234567",
             "--endpoint", "http://127.0.0.1:8631"]
        )
        assert args.id == "deadbeef01234567"
        assert args.endpoint == "http://127.0.0.1:8631"

    def test_only_top_takes_an_interval(self):
        # submit and watch are answered when the job finishes: no poll
        # interval; top still refreshes on one.
        for argv in (["submit", "--endpoint", "http://a:1"],
                     ["watch", "deadbeef01234567",
                      "--endpoint", "http://a:1"]):
            with pytest.raises(SystemExit) as exc_info:
                build_parser().parse_args(argv + ["--interval", "1"])
            assert exc_info.value.code == 2
        args = build_parser().parse_args(
            ["top", "--endpoint", "http://a:1", "--interval", "1"]
        )
        assert args.interval == 1.0

    def test_unreachable_daemon_exits_io(self, capsys):
        rc = main(["submit", "--endpoint", "http://127.0.0.1:1",
                   "--apps", "lu"])
        assert rc == 4
        assert "daemon error" in capsys.readouterr().err

    def test_submit_watch_end_to_end(self, capsys, tmp_path):
        import threading

        from repro.service import Daemon, make_server

        daemon = Daemon(store_dir=tmp_path / "store",
                        cache_dir=tmp_path / "traces")
        server = make_server(daemon)
        threading.Thread(target=server.serve_forever,
                         daemon=True).start()
        daemon.start()
        host, port = server.server_address[:2]
        endpoint = f"http://{host}:{port}"
        try:
            rc = main(["--preset", "tiny", "--procs", "4",
                       "submit", "--endpoint", endpoint,
                       "--apps", "lu", "--kinds", "base",
                       "--wait", "--timeout", "120"])
            out = capsys.readouterr().out
            assert rc == 0
            assert "accepted as job" in out
            assert "lu/base/ideal/m50" in out

            job_id = daemon.queue.jobs and next(
                iter(daemon.queue.jobs)
            )
            assert main(["watch", job_id,
                         "--endpoint", endpoint]) == 0
            assert "done" in capsys.readouterr().out

            # Resubmitting dedups onto the finished job.
            rc = main(["--preset", "tiny", "--procs", "4",
                       "submit", "--endpoint", endpoint,
                       "--apps", "lu", "--kinds", "base"])
            assert rc == 0
            assert "duplicate of job" in capsys.readouterr().out
        finally:
            server.shutdown()
            daemon.stop()
            server.server_close()


class TestProfileCommand:
    def test_defaults(self):
        args = build_parser().parse_args(["profile", "lu"])
        assert args.command == "profile"
        assert (args.kind, args.model, args.window) == ("ds", "RC", 64)
        assert args.trace is False
        assert args.out == "results/profiles"

    def test_network_after_subcommand_wins(self):
        args = build_parser().parse_args(
            ["profile", "lu", "--network", "mesh"]
        )
        assert args.network == "mesh"
        # Before the subcommand there is no such flag any more.
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["--network", "crossbar", "profile", "lu"]
            )

    def test_flags_parse(self):
        args = build_parser().parse_args(
            ["profile", "ocean", "--kind", "ss", "--model", "wo",
             "--window", "128", "--trace"]
        )
        assert (args.kind, args.model, args.window) == ("ss", "WO", 128)
        assert args.trace is True

    def test_bad_kind_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "lu", "--kind", "vliw"])

    def test_profile_end_to_end(self, capsys, tmp_path):
        rc = main(["--procs", "4", "--preset", "tiny",
                   "--cache-dir", str(tmp_path / "traces"),
                   "profile", "lu", "--network", "mesh", "--trace",
                   "--out", str(tmp_path / "profiles")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "stall attribution" in out
        assert "trace.json" in out and "manifest.json" in out
        assert (
            tmp_path / "profiles" / "lu-ds-rc-mesh-w64" / "trace.json"
        ).exists()


class TestManifestCommand:
    def test_cosim_and_profile_commands_replay(self, capsys, tmp_path):
        # A run manifest's command must parse as the run it records.
        for argv in (
            ["cosim", "lu", "--kind", "base", "--network", "mesh"],
            ["profile", "lu", "--kind", "base", "--network", "mesh"],
        ):
            out = tmp_path / argv[0]
            rc = main(["--procs", "4", "--preset", "tiny",
                       "--cache-dir", str(tmp_path / "traces"),
                       *argv, "--out", str(out)])
            assert rc == 0
            (path,) = out.glob("*/manifest.json")
            words = shlex.split(json.loads(path.read_text())["command"])
            assert words[:3] == ["python", "-m", "repro"]
            args = build_parser().parse_args(words[3:])
            assert (args.command, args.app, args.kind, args.network) == (
                argv[0], "lu", "base", "mesh"
            )
            assert (args.procs, args.preset) == (4, "tiny")


#: Every option of every subcommand ("" = before the subcommand), by its
#: first flag or positional name.  A new knob must show up here as a
#: diff: add it only with a caller that varies it.
_CLI_OPTIONS = {
    "": ("--procs", "--penalty", "--preset", "--cache-dir"),
    "run": ("app",),
    "simulate": ("app", "--jobs"),
    "table1": (), "table2": (), "table3": (), "headline": (),
    "figure1": (), "figure3": ("--jobs",), "figure4": ("--jobs",),
    "multi-issue": (), "miss-analysis": (), "sc-boost": (),
    "compiler-sched": (), "latency100": ("--jobs",),
    "cosim": ("app", "--kind", "--model", "--window", "--network",
              "--sync", "--trace", "--out"),
    "profile": ("app", "--kind", "--model", "--window", "--network",
                "--trace", "--out"),
    "verify": ("target", "--model", "--schedules", "--seed", "--jobs",
               "--ooo"),
    "batch": ("--apps", "--kinds", "--models", "--windows", "--networks",
              "--penalties", "--jobs", "--timeout", "--max-attempts",
              "--seed", "--out", "--store", "--chaos-crash",
              "--chaos-hang", "--chaos-corrupt", "--chaos-fail",
              "--trace", "--log-file", "--log-level"),
    "serve": ("--host", "--port", "--jobs", "--queue-depth", "--timeout",
              "--max-attempts", "--seed", "--grace", "--store",
              "--log-file", "--log-level"),
    "submit": ("--endpoint", "--apps", "--kinds", "--models", "--windows",
               "--networks", "--penalties", "--priority", "--wait",
               "--timeout", "--trace-out"),
    "watch": ("id", "--endpoint", "--timeout"),
    "status": ("--id", "--out"),
    "results": ("--id", "--out"),
    "top": ("--endpoint", "--interval", "--once"),
    "all": ("--output", "--jobs"),
}
#: The parameters of every experiment function (``=`` marks a default).
#: Like the options above, a parameter no caller varies is deleted, not
#: frozen here.
_EXPERIMENT_PARAMS = {
    "analyze_trace": ("app", "trace"),
    "figure3_configs": (),
    "format_app_breakdowns": ("results", "title", "bars="),
    "format_breakdowns": ("title", "runs", "base"),
    "format_figure1": ("result",),
    "format_figure3": ("results",),
    "format_stacked_bars": ("title", "runs", "base", "width="),
    "format_table": ("headers", "rows", "title=", "float_fmt="),
    "format_table1": ("rows",),
    "format_table2": ("rows",),
    "format_table3": ("rows",),
    "generate_traces": ("store", "apps=", "jobs="),
    "run_figure1": (),
    "run_figure3": ("store", "apps=", "jobs="),
    "run_table1": ("store",),
    "run_table2": ("store",),
    "run_table3": ("store",),
    "simulate_app_models": ("store", "configs", "apps=", "jobs="),
}

#: The library packages whose public surface the census freezes.
_LIBRARY_PACKAGES = (
    "service", "obs", "cosim", "net", "tango", "verify", "cpu", "mem",
    "sync", "apps",
)

#: Result and state records: their field defaults are initial values,
#: not knobs, so the library census skips these dataclasses.
_RECORD_DATACLASSES = frozenset({
    "BatchReport", "CacheStats", "CosimResult", "CpuStats",
    "DispatchReport", "EventLog", "ExecutionBreakdown", "Job",
    "JobFailure", "JobRecord", "LitmusResult", "MemEvent", "QueuedJob",
    "RunResult", "RunStats", "ScheduleStats", "Span", "StepResult",
    "SyncSchedule", "ThreadState", "TraceRecord", "Violation", "Workload",
})

#: The parameters (``=`` marks a default) of every public function,
#: class (its constructor) and public method of the library packages
#: that has a defaulted one, by dotted name under ``repro.``; the three
#: config dataclasses and ``Daemon`` are here too.  As above, a
#: parameter no caller sets is deleted (its value becomes a constant),
#: not frozen here.
_LIBRARY_DEFAULTS = {
    "apps.locus.build": ("n_procs=", "n_wires=", "rows=", "cols=", "seed="),
    "apps.lu.build": ("n_procs=", "n=", "seed="),
    "apps.mp3d.build": (
        "n_procs=", "n_particles=", "steps=", "grid=", "seed=",
    ),
    "apps.ocean.build": ("n_procs=", "n=", "steps=", "seed="),
    "apps.pthor.build": (
        "n_procs=", "n_elements=", "n_inputs=", "clocks=", "window=",
        "toggle_prob=", "seed=",
    ),
    "apps.registry.build_app": ("name", "n_procs=", "preset=", "overrides"),
    "cosim.engine.CosimEngine": (
        "nodes", "network=", "schedule=", "sync_mode=", "probe=",
    ),
    "cosim.engine.CosimNode": ("handle", "label=", "parkable="),
    "cosim.report.format_cosim_report": (
        "run_id", "label", "result", "outputs=", "solo=",
    ),
    "cosim.report.run_cosim_app": (
        "app", "store", "kind=", "model=", "window=", "network=", "sync_mode=",
        "trace=", "out_dir=", "command=",
    ),
    "cosim.run.build_node": (
        "trace", "config", "has_network=", "live_sync=", "probe=",
    ),
    "cosim.run.replay_solo": (
        "trace", "config", "network_kind", "n_nodes", "line_size", "probe=",
    ),
    "cosim.run.run_cosim": (
        "crun", "config", "network_kind=", "line_size=", "sync_mode=",
        "probe=",
    ),
    "cpu.ProcessorConfig": (
        "kind=", "model=", "window=", "issue_width=", "perfect_bp=",
        "ignore_deps=", "ds=",
    ),
    "cpu.ds.event_engine.DSConfig": (
        "window=", "issue_width=", "perfect_branch_prediction=",
        "ignore_data_dependences=", "collect_miss_stats=", "prefetch=",
        "speculative_loads=",
    ),
    "cpu.ds.event_engine.ds_fast_stepper": (
        "trace", "model", "config=", "label=", "probe=", "coupled=",
        "live_sync=",
    ),
    "cpu.make_stepper": (
        "trace", "config", "coupled=", "live_sync=", "probe=",
    ),
    "cpu.requests.drive": ("stepper", "network=", "cpu="),
    "cpu.simulate": ("trace", "config", "network=", "probe="),
    "cpu.static_fast.WriteBuffer": ("model", "depth="),
    "cpu.static_fast.WriteBuffer.push": (
        "now", "stall", "addr=", "perform_floor=",
    ),
    "cpu.static_fast.base_fast_stepper": ("trace", "label=", "clamp_time="),
    "cpu.static_fast.ss_fast_stepper": (
        "trace", "model", "label=", "clamp_time=", "probe=", "blocking_reads=",
    ),
    "mem.cache.Cache": ("size=", "line_size=", "stats="),
    "mem.coherence.CoherentMemorySystem": (
        "n_cpus", "cache_size=", "line_size=", "miss_penalty=",
    ),
    "mem.coherence.CoherentMemorySystem.access": (
        "cpu", "addr", "is_write", "now=",
    ),
    "mem.coherence.CoherentMemorySystem.access_ht": (
        "cpu", "addr", "is_write", "now=",
    ),
    "mem.memory.SegmentAllocator": ("base=",),
    "mem.memory.SegmentAllocator.alloc": ("name", "nbytes", "align="),
    "mem.memory.SegmentAllocator.alloc_doubles": ("name", "count", "align="),
    "mem.memory.SegmentAllocator.alloc_words": ("name", "count", "align="),
    "net.model.ContentionNetwork.publish": ("metrics", "prefix="),
    "obs.log.JsonLogger": ("stream=", "level=", "fields=", "_shared="),
    "obs.log.JsonLogger.to_path": ("path", "level="),
    "obs.manifest.write_run_artifacts": (
        "out_dir", "run_id", "command", "config", "timings", "registry",
        "tracer=",
    ),
    "obs.metrics.Counter.inc": ("n=",),
    "obs.metrics.Gauge.dec": ("n=",),
    "obs.metrics.Gauge.inc": ("n=",),
    "obs.metrics.Histogram": ("name", "bounds="),
    "obs.metrics.Histogram.observe": ("value", "n="),
    "obs.metrics.MetricsRegistry": ("enabled=",),
    "obs.metrics.MetricsRegistry.counter": ("name", "labels="),
    "obs.metrics.MetricsRegistry.gauge": ("name", "labels="),
    "obs.metrics.MetricsRegistry.get": ("name", "labels="),
    "obs.metrics.MetricsRegistry.histogram": ("name", "bounds=", "labels="),
    "obs.metrics.MetricsRegistry.reservoir": ("name", "labels="),
    "obs.probe.Probe": ("metrics=", "tracer="),
    "obs.profile.run_profile": (
        "app", "store", "kind=", "model=", "window=", "network=", "trace=",
        "out_dir=", "command=",
    ),
    "obs.spans.SpanSink.spans": ("trace_id=",),
    "obs.spans.read_spans": ("path", "trace_id="),
    "obs.spans.stitch": ("spans", "other_data="),
    "obs.tracer.ChromeTracer.complete": (
        "name", "cat", "pid", "tid", "ts", "dur", "args=",
    ),
    "obs.tracer.ChromeTracer.dumps": ("other_data=",),
    "obs.tracer.ChromeTracer.instant": (
        "name", "cat", "pid", "tid", "ts", "args=",
    ),
    "obs.tracer.ChromeTracer.to_dict": ("other_data=",),
    "obs.tracer.ChromeTracer.track": ("process", "thread="),
    "obs.tracer.ChromeTracer.write": ("path", "other_data="),
    "service.batch.SweepCore": (
        "store", "process", "pool=", "inline_single=", "job_fn=", "cache_dir=",
        "metrics=", "span_dir=", "lookup=", "on_computed=", "emit=",
    ),
    "service.batch.SweepCore.run": (
        "sweep", "records", "trace=", "on_change=",
    ),
    "service.batch.find_batch": ("out_dir=", "batch_id="),
    "service.batch.run_batch": (
        "sweep", "jobs=", "cache_dir=", "out_dir=", "store_dir=", "timeout=",
        "max_attempts=", "seed=", "chaos=", "metrics=", "log=", "trace=",
        "command=",
    ),
    "service.chaos.ChaosSpec": ("crash=", "hang=", "corrupt=", "fail="),
    "service.chaos.sleep_job": ("seconds", "value="),
    "service.client.ClientError": ("message", "status=", "body="),
    "service.client.DaemonClient": ("base_url", "timeout="),
    "service.client.DaemonClient.job": ("job_id", "wait="),
    "service.client.DaemonClient.submit": ("payload", "trace="),
    "service.client.DaemonClient.wait": (
        "job_id", "timeout=", "interval=", "on_poll=",
    ),
    "service.client.dispatch": ("endpoints", "payload", "timeout=", "trace="),
    "service.daemon.Daemon": (
        "store_dir", "cache_dir=", "workers=", "queue_depth=", "timeout=",
        "max_attempts=", "seed=", "grace=", "metrics=", "log=", "executor=",
    ),
    "service.daemon.Daemon.status": ("job_id", "wait="),
    "service.daemon.serve": ("daemon", "host=", "port=", "banner="),
    "service.http.make_server": ("daemon", "host=", "port="),
    "service.jobs.SweepJob": (
        "app", "kind=", "model=", "window=", "network=", "penalty=", "procs=",
        "preset=",
    ),
    "service.jobs.expand_grid": (
        "apps", "kinds=", "models=", "windows=", "networks=", "penalties=",
        "procs=", "preset=",
    ),
    "service.pool.SupervisedPool": (
        "workers=", "timeout=", "max_attempts=", "seed=", "chaos=", "metrics=",
        "log=", "grace=", "install_signal_handlers=",
    ),
    "service.pool.SupervisedPool.run": ("jobs", "on_update="),
    "service.pool.run_jobs": ("fn", "argtuples", "jobs=", "labels="),
    "service.queue.JobQueue": ("maxsize=", "metrics=", "log="),
    "service.queue.JobQueue.pop": ("timeout=",),
    "service.queue.JobQueue.retry_after": ("depth=",),
    "service.queue.JobQueue.status": ("job_id", "wait="),
    "service.queue.JobQueue.submit": ("sweep", "priority=", "trace="),
    "service.store.ResultStore": ("root", "metrics="),
    "service.store.ResultStore.put": ("key", "obj", "meta="),
    "service.store.ResultStore.put_bytes": ("key", "payload", "meta="),
    "service.store.result_key": ("config", "git_rev="),
    "tango.executor.MultiprocessorConfig": (
        "n_cpus=", "cache_size=", "line_size=", "miss_penalty=",
        "sync_access_latency=", "trace_cpus=", "record_sync_schedule=",
        "max_instructions=",
    ),
    "tango.executor.TangoExecutor": (
        "programs", "config=", "memory=", "compiled=", "recorder=", "probe=",
    ),
    "tango.trace.Trace": ("cpu=",),
    "tango.trace.Trace.from_records": ("records", "cpu="),
    "verify.harness.verify_app": (
        "app", "models=", "n_procs=", "preset=", "miss_penalty=",
    ),
    "verify.harness.verify_apps": (
        "apps", "models=", "n_procs=", "preset=", "miss_penalty=", "jobs=",
    ),
    "verify.litmus.LitmusTest": (
        "name", "title", "build", "outcome", "forbidden=", "expect_observed=",
        "expect_observed_ooo=", "demo_outcome=", "expected_only=", "notes=",
    ),
    "verify.litmus.run_litmus": (
        "test", "model=", "schedules=", "seed=", "ooo=",
    ),
    "verify.litmus.verify_litmus": (
        "names=", "models=", "schedules=", "seed=", "jobs=", "ooo=",
    ),
    "verify.recorder.ExecutionRecorder.begin": (
        "tid", "pc", "op", "cls", "addr", "value=", "wide=",
    ),
    "verify.recorder.ExecutionRecorder.perform_read": (
        "ev", "value", "rf_event=",
    ),
    "verify.recorder.ExecutionRecorder.record": (
        "tid", "pc", "op", "cls", "addr", "value=", "wide=", "rf_event=",
    ),
    "verify.relaxed.RelaxedEngine": ("programs", "model=", "seed=", "ooo="),
}


def _library_defaults() -> tuple[dict[str, tuple[str, ...]], set[str]]:
    """The census of :data:`_LIBRARY_DEFAULTS`, plus the names of the
    record dataclasses it skipped."""
    import importlib
    import inspect
    import pkgutil
    from dataclasses import is_dataclass

    found: dict[str, tuple[str, ...]] = {}
    skipped: set[str] = set()
    for package in _LIBRARY_PACKAGES:
        root = importlib.import_module(f"repro.{package}")
        modules = [root] + [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(
                root.__path__, f"{root.__name__}."
            )
        ]
        for module in modules:
            where = module.__name__.removeprefix("repro.")
            for name, obj in vars(module).items():
                if name.startswith("_") or (
                    getattr(obj, "__module__", None) != module.__name__
                ):
                    continue
                if is_dataclass(obj) and name in _RECORD_DATACLASSES:
                    skipped.add(name)
                    continue
                if inspect.isfunction(obj):
                    members = [(name, obj)]
                elif inspect.isclass(obj):
                    members = [(name, obj)] + [
                        (f"{name}.{attr}", getattr(obj, attr))
                        for attr in vars(obj) if not attr.startswith("_")
                    ]
                else:
                    continue
                for qualname, member in members:
                    try:
                        params = inspect.signature(member).parameters
                    except (TypeError, ValueError):
                        continue  # not callable, or a builtin's own
                    if any(
                        p.default is not p.empty for p in params.values()
                    ):
                        found[f"{where}.{qualname}"] = tuple(
                            p.name + ("=" if p.default is not p.empty
                                      else "")
                            for p in params.values() if p.name != "self"
                        )
    return found, skipped


def test_option_census():
    import argparse
    import inspect

    def options(parser):
        return tuple(
            a.option_strings[0] if a.option_strings else a.dest
            for a in parser._actions
            if not isinstance(
                a, (argparse._HelpAction, argparse._SubParsersAction)
            )
        )

    parser = build_parser()
    (commands,) = (
        a.choices for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    census = {"": options(parser)}
    census.update((name, options(p)) for name, p in commands.items())
    assert census == _CLI_OPTIONS
    assert sum(map(len, census.values())) == 84

    library, skipped = _library_defaults()
    assert library == _LIBRARY_DEFAULTS
    assert skipped == _RECORD_DATACLASSES

    from repro import experiments

    assert {
        name: tuple(
            p.name + ("=" if p.default is not p.empty else "")
            for p in inspect.signature(fn).parameters.values()
        )
        for name in experiments.__all__
        if inspect.isfunction(fn := getattr(experiments, name))
    } == _EXPERIMENT_PARAMS


_DOCS = ("README.md", "EXPERIMENTS.md", "DESIGN.md")


def _documented_commands() -> list[tuple[str, list[str]]]:
    """Every ``python -m repro ...`` command in a fenced block of the
    docs, as ``(where, argv)``: continued lines joined, ``$`` prompts
    dropped, cut at the first shell operator or comment, and
    ``<placeholders>`` filled in."""
    import re
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    found = []
    for doc in _DOCS:
        fenced = False
        pending = ""
        for lineno, line in enumerate(
            (root / doc).read_text().splitlines(), 1
        ):
            if line.lstrip().startswith("```"):
                fenced = not fenced
                pending = ""
                continue
            if not fenced:
                continue
            line = pending + line.strip()
            if line.endswith("\\"):
                pending = line[:-1] + " "
                continue
            pending = ""
            line = line.removeprefix("$ ")
            if not line.startswith("python -m repro"):
                continue
            lexer = shlex.shlex(
                re.sub(r"<[\w-]+>", "x", line), posix=True,
                punctuation_chars=True,
            )
            lexer.whitespace_split = True
            argv = []
            for token in lexer:
                if set(token) <= set("();<>|&"):
                    break
                argv.append(token)
            found.append((f"{doc}:{lineno}", argv[3:]))
    return found


def test_documented_commands_parse(capsys):
    commands = _documented_commands()
    assert len(commands) > 30
    failures = []
    for where, argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            failures.append(f"{where}: {shlex.join(argv)}")
    capsys.readouterr()
    assert not failures, "\n".join(failures)


def _resolves(dotted: str) -> bool:
    """Whether ``repro.a.b`` names a module, or an attribute reached
    from the longest importable module prefix."""
    import importlib

    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attr in parts[split:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def _defines(path, symbols: list[str]) -> bool:
    """Whether the Python file at ``path`` defines the nested
    ``symbols`` (class, function, assignment or import; a pytest
    ``[param]`` suffix is ignored)."""
    import ast

    body = ast.parse(path.read_text()).body
    for symbol in symbols:
        name = symbol.split("[")[0]
        found = None
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets
                         if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign):
                names = [getattr(node.target, "id", None)]
            elif isinstance(node, ast.ImportFrom):
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            if name in names:
                found = node
                break
        if found is None:
            return False
        body = getattr(found, "body", [])
    return True


def test_documented_names_resolve():
    """Every back-ticked ``repro.…`` dotted name and ``file.py::symbol``
    in the docs names something that exists: a deleted or renamed name
    fails here instead of going stale silently."""
    import re
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    checked, failures = 0, []
    for doc in _DOCS:
        text = (root / doc).read_text()
        # Fenced blocks hold commands (parsed above), not references.
        text = re.sub(r"^```.*?^```", "", text, flags=re.S | re.M)
        for span in re.findall(r"`([^`]+)`", text):
            for dotted in re.findall(
                r"(?<![\w/.])repro(?:\.[A-Za-z_]\w*)+", span
            ):
                checked += 1
                if not _resolves(dotted):
                    failures.append(f"{doc}: {dotted}")
            for path, chain in re.findall(
                r"([\w./-]+\.py)((?:::[\w.\[\]-]+)+)", span
            ):
                checked += 1
                symbols = [
                    part for piece in chain.split("::")[1:]
                    for part in piece.split(".")
                ]
                files = [
                    base / path for base in (root, root / "src" / "repro")
                    if (base / path).is_file()
                ]
                if not files or not _defines(files[0], symbols):
                    failures.append(f"{doc}: {path}{chain}")
    assert checked > 40
    assert not failures, "\n".join(failures)
