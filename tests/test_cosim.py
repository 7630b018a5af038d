"""Tests for the co-simulation subsystem (repro.cosim).

Covers the acceptance criteria of the co-simulation engine:

* **ideal differential** — co-simulating on the ideal fabric reproduces
  the existing fixed-penalty per-model cycle counts exactly, for every
  processor kind, for the product's nodes and for oracle-built ones;
* **live feedback** — under a shared mesh, per-access latencies differ
  from the post-hoc solo replay of the same trace (the fabric carries
  all processors' load at once, so feedback is live);
* **determinism** — same config ⇒ byte-identical per-processor cycle
  counts and miss-latency sequences across repeated runs, and against
  nodes built from the scalar oracles (``tests/oracles.py``), under
  replayed and live sync on every fabric;
* the live sync mode (schedule-resolved waits), the solo replay behind
  the report's solo line, the ``cosim`` batch job kind, and the CLI
  subcommand's manifest validation and run ids.
"""

import json
import threading

import pytest
from oracles import reference_cosim, reference_stepper

from repro.apps import APP_NAMES
from repro.cosim import (
    CosimEngine,
    CosimNode,
    replay_solo,
    run_cosim,
)
from repro.cpu import ProcessorConfig, drive, simulate
from repro.experiments.runner import TraceStore
from repro.obs import ChromeTracer, MetricsRegistry, Probe

N_PROCS = 4

KIND_CONFIGS = [
    ProcessorConfig(kind="base"),
    ProcessorConfig(kind="ssbr", model="SC"),
    ProcessorConfig(kind="ss", model="WO"),
    ProcessorConfig(kind="ds", model="RC", window=64),
]


@pytest.fixture(scope="session")
def cosim_store(tmp_path_factory):
    cache = tmp_path_factory.mktemp("cosim_trace_cache")
    return TraceStore(n_procs=N_PROCS, preset="tiny", cache_dir=cache)


@pytest.fixture(scope="session")
def lu_cosim(cosim_store):
    return cosim_store.get_cosim("lu")


class TestSyncSchedule:
    def test_schedule_recorded_with_edges_and_episodes(self, lu_cosim):
        summary = lu_cosim.schedule.summary()
        assert summary["acquires"] > 0
        assert summary["edges"] > 0
        assert summary["episodes"] > 0
        # Every episode's arrivals are attached.
        assert summary["barrier_arrivals"] == sum(
            lu_cosim.schedule.episode_sizes
        )

    def test_all_processors_traced(self, lu_cosim):
        assert len(lu_cosim.traces) == N_PROCS
        for cpu, trace in enumerate(lu_cosim.traces):
            assert trace.cpu == cpu
            assert len(trace) > 0

    def test_cpu0_trace_matches_single_trace_cache(
        self, cosim_store, lu_cosim
    ):
        """Recording all cpus + the schedule must not perturb the
        functional execution: cpu0's trace is byte-identical to the
        single-cpu trace the rest of the experiments replay."""
        single = cosim_store.get("lu").trace.np_columns()
        cosim0 = lu_cosim.traces[0].np_columns()
        for col_single, col_cosim in zip(single, cosim0):
            assert (col_single == col_cosim).all()


class TestIdealDifferential:
    """cosim --network ideal == the fixed-penalty per-model counts."""

    @pytest.mark.parametrize(
        "kind_config", KIND_CONFIGS, ids=lambda c: c.kind
    )
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_matches_standalone_simulation(
        self, lu_cosim, kind_config, engine
    ):
        if engine == "fast":
            standalone = [
                simulate(trace, kind_config).total
                for trace in lu_cosim.traces
            ]
            result = run_cosim(lu_cosim, kind_config, network_kind="ideal")
        else:
            standalone = [
                drive(
                    reference_stepper(trace, kind_config), cpu=trace.cpu
                ).total
                for trace in lu_cosim.traces
            ]
            result = reference_cosim(lu_cosim, kind_config)
        assert result.cycles() == standalone

    def test_full_breakdowns_match(self, lu_cosim):
        cfg = ProcessorConfig(kind="ds", model="RC", window=64)
        result = run_cosim(lu_cosim, cfg, network_kind="ideal")
        for trace, cosim_bd in zip(lu_cosim.traces, result.breakdowns):
            solo = simulate(trace, cfg)
            assert solo.components() == cosim_bd.components()


class TestSharedFabric:
    @pytest.mark.parametrize(
        "kind_config,network_kind",
        [
            # The mesh cases keep the ids they had before the ideal
            # fabric became a second value of the same parameter.
            pytest.param(
                c, net, id=c.kind if net == "mesh" else f"{c.kind}-{net}"
            )
            for net in ("mesh", "ideal") for c in KIND_CONFIGS
        ],
    )
    def test_fast_and_reference_engines_agree_on_mesh(
        self, cosim_store, lu_cosim, kind_config, network_kind
    ):
        fast = run_cosim(
            lu_cosim, kind_config,
            network_kind=network_kind, line_size=cosim_store.line_size,
        )
        ref = reference_cosim(
            lu_cosim, kind_config,
            network_kind=network_kind, line_size=cosim_store.line_size,
        )
        assert fast.cycles() == ref.cycles()
        assert fast.miss_latencies == ref.miss_latencies
        # Every engine reports the misses it was served, on any fabric.
        assert all(len(lats) > 0 for lats in fast.miss_latencies)

    @pytest.mark.parametrize("network_kind", ("ideal", "mesh"))
    @pytest.mark.parametrize(
        "kind_config", KIND_CONFIGS, ids=lambda c: c.kind
    )
    def test_fast_and_reference_engines_publish_the_same(
        self, cosim_store, lu_cosim, kind_config, network_kind
    ):
        """The metrics an instrumented run leaves behind — keys and
        values, the per-node ``breakdown.*`` counters and the count of
        spans dropped past a (here deliberately small) budget included
        — are engine-blind, under replayed and live sync."""
        def observe(cosim, sync_mode):
            probe = Probe(metrics=MetricsRegistry(), tracer=ChromeTracer())
            probe.span_budget = 2_000
            cosim(
                lu_cosim, kind_config, network_kind=network_kind,
                line_size=cosim_store.line_size, sync_mode=sync_mode,
                probe=probe,
            )
            return probe

        for sync_mode in ("replay", "live"):
            fast = observe(run_cosim, sync_mode)
            ref = observe(reference_cosim, sync_mode)
            metrics = fast.metrics.snapshot()
            assert metrics == ref.metrics.snapshot()
            prefix = f"breakdown.{kind_config.label()}."
            published = {
                k for k in metrics["counters"] if k.startswith(prefix)
            }
            assert published == {
                prefix + name for name in
                ("busy", "sync", "read", "write", "other", "instructions")
            }
            assert fast.tracer.events == ref.tracer.events
            assert fast.span_budget == ref.span_budget

    def test_fast_engines_need_no_threads(
        self, monkeypatch, cosim_store, lu_cosim
    ):
        def no_threads(self):
            raise AssertionError("co-simulation started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_threads)
        cfg = ProcessorConfig(kind="ds", model="RC", window=64)
        result = run_cosim(
            lu_cosim, cfg, network_kind="mesh",
            line_size=cosim_store.line_size,
        )
        assert all(c > 0 for c in result.cycles())

    def test_stepper_exception_keeps_its_type(
        self, monkeypatch, cosim_store, lu_cosim
    ):
        """A failure inside one node's model, mid-run, surfaces from
        run_cosim as itself — not wrapped or swallowed by the engine."""
        from repro.cpu import WriteBuffer

        class ModelBug(Exception):
            pass

        real_push = WriteBuffer.push
        pushes = 0

        def push(self, *args, **kwargs):
            nonlocal pushes
            pushes += 1
            if pushes == 50:
                raise ModelBug("write buffer")
            return real_push(self, *args, **kwargs)

        monkeypatch.setattr(WriteBuffer, "push", push)
        with pytest.raises(ModelBug, match="write buffer"):
            run_cosim(
                lu_cosim, ProcessorConfig(kind="ss", model="RC"),
                network_kind="mesh", line_size=cosim_store.line_size,
            )

    def test_deterministic_across_runs(self, cosim_store, lu_cosim):
        cfg = ProcessorConfig(kind="ds", model="RC", window=64)
        runs = [
            run_cosim(
                lu_cosim, cfg, network_kind="mesh",
                line_size=cosim_store.line_size,
            )
            for _ in range(2)
        ]
        assert runs[0].cycles() == runs[1].cycles()
        assert runs[0].miss_latencies == runs[1].miss_latencies
        assert runs[0].net_summary == runs[1].net_summary

    def test_live_feedback_differs_from_posthoc_replay(
        self, cosim_store, lu_cosim
    ):
        """The shared fabric carries all processors' load at once, so
        per-access latencies differ from the post-hoc solo replay of
        the same trace — proving the feedback is live, not replayed."""
        cfg = ProcessorConfig(kind="ds", model="RC", window=64)
        shared = run_cosim(
            lu_cosim, cfg, network_kind="mesh",
            line_size=cosim_store.line_size,
        )
        solo_bd, solo_net = replay_solo(
            lu_cosim.traces[0], cfg, "mesh", N_PROCS,
            cosim_store.line_size,
        )
        assert shared.miss_latencies[0] != solo_net.latencies
        # The shared fabric saw every processor's misses, not just one's.
        assert shared.net_summary["count"] > len(solo_net.latencies)
        assert shared.net_summary["count"] == sum(
            len(lats) for lats in shared.miss_latencies
        )
        # And every one of them was served by the shared directory.
        assert shared.dir_summary["serves"] == shared.net_summary["count"]

    def test_fabric_summaries_populated(self, cosim_store, lu_cosim):
        cfg = ProcessorConfig(kind="ssbr", model="RC")
        result = run_cosim(
            lu_cosim, cfg, network_kind="crossbar",
            line_size=cosim_store.line_size,
        )
        assert result.net_summary["count"] > 0
        assert result.link_summary["samples"] > 0
        assert result.dir_summary["serves"] == result.net_summary["count"]
        assert result.network_kind == "crossbar"


class TestLiveSync:
    @pytest.mark.parametrize(
        "kind_config", KIND_CONFIGS, ids=lambda c: c.kind
    )
    def test_completes_and_is_deterministic(
        self, cosim_store, lu_cosim, kind_config
    ):
        runs = [
            run_cosim(
                lu_cosim, kind_config, network_kind="mesh",
                line_size=cosim_store.line_size, sync_mode="live",
            )
            for _ in range(2)
        ]
        assert runs[0].cycles() == runs[1].cycles()
        assert runs[0].sync_waits == runs[1].sync_waits
        # Every processor got live answers (it joins the barriers).
        for waits in runs[0].sync_waits:
            assert len(waits) > 0

    @staticmethod
    def _agree(store, crun, config, network_kind):
        fast, ref = (
            cosim(
                crun, config, network_kind=network_kind,
                line_size=store.line_size, sync_mode="live",
            )
            for cosim in (run_cosim, reference_cosim)
        )
        assert fast.breakdowns == ref.breakdowns
        assert fast.miss_latencies == ref.miss_latencies
        assert fast.sync_waits == ref.sync_waits
        assert fast.net_summary == ref.net_summary

    @pytest.mark.parametrize("network_kind", ("ideal", "crossbar", "mesh"))
    @pytest.mark.parametrize(
        "kind_config", KIND_CONFIGS, ids=lambda c: c.kind
    )
    def test_agrees_with_reference_nodes(
        self, cosim_store, lu_cosim, kind_config, network_kind
    ):
        """Live sync runs on the product's engines: every outcome equals
        that of nodes built from the scalar oracles."""
        self._agree(cosim_store, lu_cosim, kind_config, network_kind)

    @pytest.mark.parametrize("app", APP_NAMES)
    def test_ds_agrees_with_reference_on_every_app(self, cosim_store, app):
        self._agree(
            cosim_store, cosim_store.get_cosim(app), KIND_CONFIGS[-1],
            "mesh",
        )

    def test_live_differs_from_replay(self, cosim_store, lu_cosim):
        cfg = ProcessorConfig(kind="ds", model="RC", window=64)
        live = run_cosim(
            lu_cosim, cfg, network_kind="mesh",
            line_size=cosim_store.line_size, sync_mode="live",
        )
        replay = run_cosim(
            lu_cosim, cfg, network_kind="mesh",
            line_size=cosim_store.line_size, sync_mode="replay",
        )
        assert live.cycles() != replay.cycles()

    def test_live_requires_schedule(self):
        node = CosimNode(iter(()))
        with pytest.raises(ValueError):
            CosimEngine([node], sync_mode="live")


class TestContentionReuse:
    def test_replay_solo_matches_direct_simulation(self, cosim_store):
        """The solo replay (the cosim report's solo line, ``profile``,
        the service's sweep jobs) stays byte-identical to the direct
        call."""
        from repro.net import build_network

        run = cosim_store.get("lu")
        cfg = ProcessorConfig(kind="ds", model="RC", window=64)
        for kind in ("ideal", "mesh"):
            net = build_network(kind, N_PROCS, cosim_store.line_size)
            direct = simulate(run.trace, cfg, network=net)
            solo_bd, solo_net = replay_solo(
                run.trace, cfg, kind, N_PROCS, cosim_store.line_size,
            )
            assert direct.components() == solo_bd.components()
            if net is not None:
                assert net.latencies == solo_net.latencies

    def test_solo_line_reproduces_the_solo_replay(self, cosim_store):
        """On a contended fabric the cosim report carries the traced
        processor's solo replay: the numbers the contention experiment
        printed for it (tiny/4 lu, cpu0 on a fresh mesh), with its
        link queueing.  The shared run's own numbers do not move."""
        from repro.cosim import run_cosim_app

        solo_rows = {
            "base": "cpu0   24085     172      44.6   46   50     0.0      0",
            "ds": "cpu0   18058     172      45.3   46   56     0.0      1",
        }
        shared_cpu0 = {"base": 26818, "ds": 20866}
        for kind, row in solo_rows.items():
            app = run_cosim_app("lu", cosim_store, kind=kind, network="mesh")
            lines = app.report.splitlines()
            at = lines.index("solo (cpu0 alone on a fresh 'mesh' fabric)")
            assert lines[at + 1].split() == [
                "node", "cycles", "misses", "lat", "mean", "p50", "p99",
                "q", "mean", "q", "max",
            ]
            assert lines[at + 3] == row
            assert app.result.cycles()[0] == shared_cpu0[kind]
        app = run_cosim_app("lu", cosim_store, kind="base", network="ideal")
        assert "solo (" not in app.report


class TestServiceJobKind:
    def test_grid_expands_and_labels_cosim(self):
        from repro.service import expand_grid

        jobs = expand_grid(
            ("lu",), kinds=("cosim",), models=("RC",),
            windows=(16, 64), networks=("mesh",),
        )
        assert len(jobs) == 2  # the window axis is kept, like ds
        assert jobs[0].label() == "lu/cosim/RC/w16/mesh/m50"
        assert jobs[0].config()["window"] == 16

    def test_sweep_worker_runs_cosim_job(self, cosim_store, lu_cosim):
        from repro.service.batch import _sweep_worker
        from repro.service.jobs import SweepJob

        job = SweepJob(
            app="lu", kind="cosim", model="RC", window=64,
            network="mesh", procs=N_PROCS, preset="tiny",
        )
        breakdown = _sweep_worker(
            job.config(), str(cosim_store.cache_dir)
        )
        assert breakdown.label == "COSIM-DS-RC-w64-mesh"
        per_cpu = breakdown.extras["per_cpu_cycles"]
        assert len(per_cpu) == N_PROCS
        # The aggregate is the sum of the per-processor breakdowns.
        assert breakdown.total == sum(per_cpu)
        assert breakdown.extras["net"]["count"] > 0


class TestCosimCLI:
    def test_subcommand_writes_validated_manifest(
        self, capsys, tmp_path, cosim_store, lu_cosim
    ):
        from repro.cli import main

        rc = main([
            "--procs", str(N_PROCS), "--preset", "tiny",
            "--cache-dir", str(cosim_store.cache_dir),
            "cosim", "lu", "--kind", "ds", "--network", "crossbar",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "per-processor outcomes" in out
        assert "directory occupancy" in out
        manifests = list(tmp_path.glob("*/manifest.json"))
        assert len(manifests) == 1
        manifest = json.loads(manifests[0].read_text())
        assert manifest["config"]["app"] == "lu"
        assert manifest["config"]["network"] == "crossbar"

    def test_ds_windows_write_separate_runs(
        self, capsys, tmp_path, cosim_store, lu_cosim
    ):
        """A DS run's id names its window, so two windows written to
        one ``--out`` land in two directories; the static kinds ignore
        the window and their ids do not carry it."""
        from repro.cli import main

        def run(kind, window):
            assert main([
                "--procs", str(N_PROCS), "--preset", "tiny",
                "--cache-dir", str(cosim_store.cache_dir),
                "cosim", "lu", "--kind", kind, "--window", str(window),
                "--out", str(tmp_path),
            ]) == 0

        run("ds", 16)
        run("ds", 64)
        run("ss", 16)
        capsys.readouterr()
        runs = sorted(p.parent.name for p in tmp_path.glob("*/manifest.json"))
        assert runs == [
            "lu-cosim-ds-rc-ideal-replay-w16",
            "lu-cosim-ds-rc-ideal-replay-w64",
            "lu-cosim-ss-rc-ideal-replay",
        ]

    def test_parser_accepts_cosim_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "cosim", "lu", "--network", "mesh",
            "--kind", "ss", "--sync", "replay",
        ])
        assert args.command == "cosim"
        assert args.network == "mesh"
        assert args.kind == "ss"
