"""Tests for the interconnect/directory timing subsystem (repro.net).

Covers the topologies (crossbar port serialization, mesh X-Y routes),
the directory's request serialization, miss-latency summaries, fabric
timing pinned on seeded replay streams, the executor's fixed-penalty
traces and their ideal-backend replay on every application, the
faulting-PC annotation on misaligned accesses, and the solo replay's
headline effect (overlapped DS misses see a more loaded network than
BASE's serial ones).
"""

import hashlib
import json
import random

import pytest

from repro import MultiprocessorConfig, TangoExecutor, build_app
from repro.apps import APP_NAMES
from repro.asm import AsmBuilder
from repro.cosim import replay_solo
from repro.cpu import ProcessorConfig, simulate
from repro.isa import MemClass
from repro.mem import CoherentMemorySystem, MemoryError_
from repro.net import (
    NETWORK_KINDS,
    ContentionNetwork,
    Crossbar,
    DirectoryModel,
    Mesh,
    build_network,
)


class TestTopologies:
    def test_crossbar_routes_inject_then_eject(self):
        xbar = Crossbar(4)
        route = xbar.route(1, 3)
        assert len(route) == 2
        assert xbar.route(2, 2) == ()
        # Every node pair shares the destination's ejection link.
        assert xbar.route(0, 3)[1] == xbar.route(1, 3)[1]
        assert xbar.route(0, 3)[0] != xbar.route(1, 3)[0]

    def test_mesh_xy_hop_counts(self):
        mesh = Mesh(16)
        assert (mesh.width, mesh.height) == (4, 4)  # near-square
        # Manhattan distance plus inject and eject.
        assert mesh.hops(0, 15) == 8
        assert mesh.hops(0, 1) == 3
        assert mesh.hops(5, 5) == 0
        assert mesh.hops(3, 0) == 5

    def test_mesh_xy_route_is_dimension_ordered(self):
        mesh = Mesh(16)
        # 0 -> 10: X first (0->2), then Y (2->10); the X-leg links are
        # shared with the pure-horizontal route 0 -> 2.
        assert mesh.route(0, 10)[:3] == mesh.route(0, 2)[:3]

    def test_mesh_non_square_covers_all_nodes(self):
        mesh = Mesh(6)
        assert (mesh.width, mesh.height) == (3, 2)
        for src in range(6):
            for dst in range(6):
                hops = mesh.hops(src, dst)
                assert hops == 0 if src == dst else hops >= 3

    def test_link_queueing_serializes_messages(self):
        # Two back-to-back messages over the same route: the second
        # departs only when the first releases the link.
        net = ContentionNetwork(Crossbar(4), line_size=16)
        first = net._send(0, 1, 0)
        second = net._send(0, 1, 0)
        assert second > first


class TestDirectory:
    def test_home_distribution_round_robin(self):
        d = DirectoryModel(4)
        assert [d.home(line) for line in range(6)] == [0, 1, 2, 3, 0, 1]

    def test_racing_misses_serialize_at_home(self):
        # Two CPUs miss on the same line at the same instant: the
        # directory's occupancy forces one to wait for the other.
        net = ContentionNetwork(Crossbar(4), line_size=16)
        lat0 = net.replay_miss(0, addr=5 * 16, is_write=True, now=0)
        lat1 = net.replay_miss(2, addr=5 * 16, is_write=True, now=0)
        assert lat1 > lat0
        assert net.directory.summary()["max_wait"] > 0

    def test_distinct_homes_do_not_serialize(self):
        net = ContentionNetwork(Crossbar(8), line_size=16)
        lat0 = net.replay_miss(0, addr=0 * 16, is_write=False, now=0)
        lat1 = net.replay_miss(1, addr=1 * 16, is_write=False, now=0)
        assert lat0 == lat1


class TestTransactions:
    def test_summary_percentiles(self):
        net = ContentionNetwork(Crossbar(4), line_size=16)
        assert net.summary()["count"] == 0
        for cpu in range(4):
            net.replay_miss(cpu, addr=cpu * 64, is_write=False, now=0)
        s = net.summary()
        assert s["count"] == 4
        assert s["p50"] <= s["p99"] <= s["max"]
        assert s["mean"] > 0

    def test_build_network_kinds(self):
        assert build_network("ideal", 4, 16) is None
        assert isinstance(build_network("crossbar", 4, 16).topology,
                          Crossbar)
        assert isinstance(build_network("mesh", 16, 16).topology, Mesh)
        with pytest.raises(ValueError):
            build_network("torus", 4, 16)
        assert set(NETWORK_KINDS) == {"ideal", "crossbar", "mesh"}


def _fabric_stream(kind, n_nodes, seed, n_ops=1500):
    """Every latency a seeded random replay stream returns, plus the
    three summaries at the mid-stream switch and at the end."""
    rng = random.Random(seed)
    net = build_network(kind, n_nodes, 16)

    def summaries():
        return [net.summary(), net.link_summary(), net.directory.summary()]

    clocks = [0] * n_nodes  # per-CPU, so only near-sorted globally
    out = []
    for i in range(n_ops):
        if i == n_ops // 2:
            # The second half replays on a fresh fabric, and every
            # per-CPU clock restarts at 0.
            out.append(summaries())
            net = build_network(kind, n_nodes, 16)
            clocks = [0] * n_nodes
        cpu = rng.randrange(n_nodes)
        clocks[cpu] += rng.randrange(0, 60)
        line = rng.randrange(0, 64)
        if rng.random() < 0.25:
            line = cpu + n_nodes * rng.randrange(0, 4)  # cpu == home
        out.append(net.replay_miss(
            cpu, line * 16 + rng.randrange(16), rng.random() < 0.3,
            clocks[cpu],
        ))
    out.append(summaries())
    return out


class TestTimingPinned:
    """Fabric timing is part of every committed solo and co-simulation
    number.  These pins were generated on the model that still timed
    coherence transactions at trace build, before that path was
    deleted, and must never be regenerated to make a change pass."""

    @pytest.mark.parametrize("kind,n_nodes,seed,digest", [
        ("mesh", 9, 1, "2f374d1ee6d3ede0"),
        ("mesh", 9, 2, "8293c93b238f3f25"),
        ("mesh", 16, 1, "2b258cf0c2cda031"),
        ("mesh", 16, 2, "a2d1f9f0e272079e"),
        ("crossbar", 9, 1, "12975995369abb17"),
        ("crossbar", 9, 2, "f29dd96f4091d376"),
        ("crossbar", 16, 1, "4e4f6fe18d87f344"),
        ("crossbar", 16, 2, "dfe33120bac1db7b"),
    ])
    def test_random_stream_digest(self, kind, n_nodes, seed, digest):
        blob = json.dumps(_fabric_stream(kind, n_nodes, seed), sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest()[:16] == digest


class TestCoherenceIntegration:
    def test_ideal_path_uses_fixed_penalty(self):
        mem = CoherentMemorySystem(n_cpus=2, miss_penalty=50)
        hit, stall = mem.access_ht(0, 0x100, False)
        assert (hit, stall) == (False, 50)


def _run_app(app, n_procs=4):
    workload = build_app(app, n_procs=n_procs, preset="tiny")
    config = MultiprocessorConfig(
        n_cpus=n_procs, trace_cpus=tuple(range(n_procs)),
    )
    result = TangoExecutor(
        workload.programs, config, memory=workload.memory,
    ).run()
    workload.verify(result.memory)
    return result


class TestExecutorIntegration:
    @pytest.mark.parametrize("app", APP_NAMES)
    def test_ideal_backend_matches_default(self, app):
        # Traces are built with the fixed penalty only: every miss the
        # executor records costs exactly miss_penalty, and replaying on
        # the ideal backend is the plain replay.
        result = _run_app(app)
        cfg = ProcessorConfig(kind="ds", model="RC", window=64)
        for cpu in range(4):
            trace = result.trace(cpu)
            stalls = {
                stall
                for cls, stall in zip(trace.mem_class, trace.stall)
                if cls in (MemClass.READ, MemClass.WRITE) and stall
            }
            assert stalls == {result.config.miss_penalty}
            breakdown, net = replay_solo(trace, cfg, NETWORK_KINDS[0], 4, 16)
            assert net is None
            assert breakdown.components() == simulate(
                trace, cfg
            ).components()

    @pytest.mark.parametrize("compiled", (True, False))
    def test_misaligned_access_reports_thread_and_pc(self, compiled):
        b = AsmBuilder("misaligned")
        a = b.ireg("a")
        r = b.ireg("r")
        b.la(a, 0x1002)  # not word-aligned
        b.lw(r, a)
        b.halt()
        config = MultiprocessorConfig(n_cpus=1)
        with pytest.raises(MemoryError_) as exc:
            TangoExecutor([b.build()], config, compiled=compiled).run()
        assert "misaligned word read at 0x1002" in str(exc.value)
        assert "(thread 0, pc 1)" in str(exc.value)

    def test_misaligned_message_identical_across_engines(self):
        messages = []
        for compiled in (True, False):
            b = AsmBuilder("misaligned")
            a = b.ireg("a")
            b.la(a, 0x1001)
            b.sw(a, a)
            b.halt()
            config = MultiprocessorConfig(n_cpus=1)
            with pytest.raises(MemoryError_) as exc:
                TangoExecutor([b.build()], config, compiled=compiled).run()
            messages.append(str(exc.value))
        assert messages[0] == messages[1]


class TestContentionExperiment:
    """The solo column of the fixed / solo / shared comparison: each
    model replays the traced processor alone on a fresh fabric
    (:func:`repro.cosim.replay_solo`, the ``cosim`` report's solo
    line)."""

    CONFIGS = (
        ProcessorConfig(kind="base"),
        ProcessorConfig(kind="ssbr", model="RC"),
        ProcessorConfig(kind="ds", model="RC", window=64),
        ProcessorConfig(kind="ds", model="RC", window=256),
    )

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        from repro.experiments import TraceStore

        return TraceStore(
            n_procs=4, preset="tiny",
            cache_dir=tmp_path_factory.mktemp("traces"),
        )

    @pytest.fixture(scope="class")
    def results(self, store):
        trace = store.get("lu").trace
        return [
            replay_solo(trace, cfg, "mesh", 4, store.line_size)
            for cfg in self.CONFIGS
        ]

    def test_ideal_rows_report_fixed_penalty(self, store):
        from repro.cosim import run_cosim

        result = run_cosim(
            store.get_cosim("lu"), self.CONFIGS[0],
            line_size=store.line_size,
        )
        for cpu in range(4):
            summary = result.node_miss_summary(cpu)
            assert summary["mean"] == 50.0
            assert summary["p50"] == summary["p99"] == 50

    def test_ds_sees_more_contention_than_base(self, results):
        base_summary = results[0][1].summary()
        ds_summary = results[2][1].summary()
        assert ds_summary["mean"] > base_summary["mean"]
        assert ds_summary["p99"] > base_summary["p99"]

    def test_ds_still_fastest_overall(self, results):
        totals = [breakdown.total for breakdown, _ in results]
        assert min(totals[1:]) < totals[0]

    def test_formatting_lists_all_backends(self, store):
        from repro.cosim import run_cosim_app

        for kind in NETWORK_KINDS:
            text = run_cosim_app(
                "lu", store, kind="base", network=kind
            ).report
            assert f"'{kind}' fabric" in text
            assert ("solo (cpu0 alone" in text) == (kind != "ideal")
            assert "p99" in text
