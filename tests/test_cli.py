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
                     "headline", "latency100", "sc-boost", "contexts",
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
#: first flag or positional name, the fields of the three configs and
#: the daemon's arguments.  A new knob must show up here as a diff: add
#: it only with a caller that varies it.
_CLI_OPTIONS = {
    "": ("--procs", "--penalty", "--preset", "--cache-dir"),
    "run": ("app",),
    "simulate": ("app", "--jobs"),
    "table1": (), "table2": (), "table3": (), "headline": (),
    "figure1": (), "figure3": ("--jobs",), "figure4": ("--jobs",),
    "multi-issue": (), "miss-analysis": (), "sc-boost": (),
    "contexts": (), "compiler-sched": (), "latency100": ("--jobs",),
    "cosim": ("app", "--kind", "--model", "--window", "--network",
              "--sync", "--contexts", "--trace", "--out"),
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
_CONFIG_FIELDS = {
    "ProcessorConfig": ("kind", "model", "window", "issue_width",
                        "perfect_bp", "ignore_deps", "ds"),
    "DSConfig": ("window", "issue_width", "perfect_branch_prediction",
                 "ignore_data_dependences", "collect_miss_stats",
                 "prefetch", "speculative_loads"),
    "MultiprocessorConfig": ("n_cpus", "cache_size", "line_size",
                             "miss_penalty", "sync_access_latency",
                             "trace_cpus", "record_sync_schedule",
                             "max_instructions"),
}

#: The parameters of every experiment function (``=`` marks a default).
#: Like the options above, a parameter no caller varies is deleted, not
#: frozen here.
_EXPERIMENT_PARAMS = {
    "analyze_trace": ("app", "trace"),
    "figure3_configs": (),
    "figure4_configs": (),
    "format_app_breakdowns": ("results", "title", "bars="),
    "format_breakdowns": ("title", "runs", "base"),
    "format_compiler_sched": ("result",),
    "format_contexts": ("result",),
    "format_figure1": ("result",),
    "format_figure3": ("results",),
    "format_figure4": ("results",),
    "format_headline": ("result",),
    "format_latency100": ("results",),
    "format_miss_analysis": ("results",),
    "format_multi_issue": ("results",),
    "format_sc_boost": ("results",),
    "format_stacked_bars": ("title", "runs", "base", "width="),
    "format_table": ("headers", "rows", "title=", "float_fmt="),
    "format_table1": ("rows",),
    "format_table2": ("rows",),
    "format_table3": ("rows",),
    "generate_traces": ("store", "apps=", "jobs="),
    "run_compiler_sched": ("store",),
    "run_contexts": ("store", "apps="),
    "run_figure1": (),
    "run_figure3": ("store", "apps=", "jobs="),
    "run_figure4": ("store", "apps=", "jobs="),
    "run_headline": ("store", "windows=", "jobs="),
    "run_latency100": ("store", "apps=", "jobs="),
    "run_miss_analysis": ("store", "jobs="),
    "run_multi_issue": ("store", "apps=", "jobs="),
    "run_sc_boost": ("store", "apps=", "jobs="),
    "run_table1": ("store",),
    "run_table2": ("store",),
    "run_table3": ("store",),
    "simulate_app_models": ("store", "configs", "apps=", "jobs="),
}

_DAEMON_ARGS = ("store_dir", "cache_dir", "workers", "queue_depth",
                "timeout", "max_attempts", "seed", "grace", "metrics",
                "log", "executor")


def test_option_census():
    import argparse
    import inspect
    from dataclasses import fields

    from repro import MultiprocessorConfig
    from repro.cpu import DSConfig, ProcessorConfig
    from repro.service import Daemon

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
    assert sum(map(len, census.values())) == 85
    assert {
        cls.__name__: tuple(f.name for f in fields(cls))
        for cls in (ProcessorConfig, DSConfig, MultiprocessorConfig)
    } == _CONFIG_FIELDS
    daemon_args = tuple(inspect.signature(Daemon).parameters)
    assert daemon_args == _DAEMON_ARGS

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
