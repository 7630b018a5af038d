"""Tests for the interconnect/directory timing subsystem (repro.net).

Covers the fan-out scheduler (ordering, FIFO ties, jumps over idle
time, idle clock rewind, busy clamp), the topologies (crossbar port
serialization, mesh X-Y routes), the directory's request serialization,
transaction-level latencies, fabric timing pinned against the event-wheel
model this one replaced (seeded random streams, the carried clock, the
single-message walk against the scheduler), the
ideal-backend equivalence of the executor on every application, the
compiled-vs-reference differential under a real network, the faulting-PC
annotation on misaligned accesses, and the contention experiment's
headline effect (overlapped DS misses see a more loaded network than
BASE's serial ones).
"""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import MultiprocessorConfig, TangoExecutor, build_app
from repro.apps import APP_NAMES
from repro.asm import AsmBuilder
from repro.mem import CoherentMemorySystem, MemoryError_
from repro.net import (
    NETWORK_KINDS,
    ContentionNetwork,
    Crossbar,
    DirectoryModel,
    Mesh,
    NetworkConfig,
    build_network,
)


def _crossbar(n_nodes=8):
    # Defaults: 2-cycle hops, 2-cycle control occupancy; every crossbar
    # route is inject + eject, so an uncontended message lands at +4.
    return ContentionNetwork(Crossbar(n_nodes), line_size=16)


class TestFanOutScheduler:
    """The `_chain`/`_run` seam that orders a write miss's racing
    messages: what used to be stated against the event wheel."""

    def test_messages_land_in_time_order(self):
        net = _crossbar()
        landed = []
        net._chain(0, 1, 5, lambda t: landed.append(("a", t)))
        net._chain(2, 3, 3, lambda t: landed.append(("b", t)))
        net._chain(4, 5, 9, lambda t: landed.append(("c", t)))
        net._run()
        assert landed == [("b", 7), ("a", 9), ("c", 13)]

    def test_same_cycle_messages_take_a_link_fifo(self):
        net = _crossbar()
        landed = []
        for name in "abc":
            net._chain(0, 1, 7, lambda t, n=name: landed.append((n, t)))
        net._run()
        assert landed == [("a", 11), ("b", 13), ("c", 15)]

    def test_far_future_message_is_reached_by_a_jump(self):
        net = _crossbar()
        landed = []
        net._chain(0, 1, 2, landed.append)
        net._chain(2, 3, 10**12, landed.append)
        net._run()
        assert landed == [6, 10**12 + 4]

    def test_callback_may_send_at_current_time(self):
        net = _crossbar()
        landed = []
        net._chain(
            0, 1, 4, lambda t: net._chain(2, 3, net._now, landed.append)
        )
        net._run()  # one pass delivers the follow-up too
        assert landed == [10]  # last hop fired at 6, +4

    def test_idle_scheduler_rewinds_for_earlier_transaction(self):
        # Per-CPU virtual clocks restart at 0 between model replays; an
        # idle fabric must accept the earlier timestamp verbatim instead
        # of clamping it to the old present.
        net = _crossbar()
        landed = []
        net._chain(0, 1, 100, landed.append)
        net._run()
        net._chain(2, 3, 10, landed.append)
        net._run()
        assert landed == [104, 14]
        # The single-message walk moves the present the same way.
        assert net._send(4, 5, 200) == 204
        net._chain(6, 7, 10, landed.append)
        net._run()
        assert landed[-1] == 14

    def test_busy_scheduler_clamps_stragglers_to_present(self):
        net = _crossbar()
        landed = []

        def first(t):
            landed.append(t)
            net._chain(2, 3, 2, landed.append)  # in the fabric's past

        net._chain(0, 1, 6, first)
        net._run()
        assert landed == [10, 12]  # restarted at 8, the last hop's time


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
        mesh = Mesh(16, width=4)
        # Manhattan distance plus inject and eject.
        assert mesh.hops(0, 15) == 8
        assert mesh.hops(0, 1) == 3
        assert mesh.hops(5, 5) == 0
        assert mesh.hops(3, 0) == 5

    def test_mesh_xy_route_is_dimension_ordered(self):
        mesh = Mesh(16, width=4)
        # 0 -> 10: X first (0->2), then Y (2->10); the X-leg links are
        # shared with the pure-horizontal route 0 -> 2.
        assert mesh.route(0, 10)[:3] == mesh.route(0, 2)[:3]

    def test_mesh_non_square_covers_all_nodes(self):
        mesh = Mesh(6, width=3)
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
        d = DirectoryModel(4, occupancy=4)
        assert [d.home(line) for line in range(6)] == [0, 1, 2, 3, 0, 1]

    def test_racing_upgrades_serialize_at_home(self):
        # Two CPUs upgrade the same line at the same instant: the
        # directory's occupancy forces one to wait for the other.
        net = ContentionNetwork(Crossbar(4), line_size=16)
        lat0 = net.write_miss(0, line=5, sharers=(1,), now=0, upgrade=True)
        lat1 = net.write_miss(1, line=5, sharers=(0,), now=0, upgrade=True)
        assert lat1 > lat0

    def test_distinct_homes_do_not_serialize(self):
        net = ContentionNetwork(Crossbar(8), line_size=16)
        lat0 = net.replay_miss(0, addr=0 * 16, is_write=False, now=0)
        lat1 = net.replay_miss(1, addr=1 * 16, is_write=False, now=0)
        assert lat0 == lat1


class TestTransactions:
    def test_remote_dirty_line_costs_three_legs(self):
        cfg = NetworkConfig()
        net = ContentionNetwork(Crossbar(4), line_size=16, config=cfg)
        from_owner = net.read_miss(0, line=1, owner=2, now=0)
        net.reset()
        from_memory = net.read_miss(0, line=1, owner=None, now=0)
        # Memory is slower than a cache but two legs beat three plus a
        # lookup only through the latency parameters, not by fiat.
        assert from_owner != from_memory
        assert net.latencies == [from_memory]

    def test_upgrade_waits_for_ack_not_data(self):
        net = ContentionNetwork(Crossbar(4), line_size=16)
        upgrade = net.write_miss(0, line=1, sharers=(2,), now=0,
                                 upgrade=True)
        net.reset()
        full = net.write_miss(0, line=1, sharers=(2,), now=0)
        assert upgrade <= full

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
    """Every latency a seeded random transaction stream returns, plus
    the three summaries at the mid-stream reset and at the end."""
    rng = random.Random(seed)
    net = build_network(kind, n_nodes, 16)

    def summaries():
        return [net.summary(), net.link_summary(), net.directory.summary()]

    clocks = [0] * n_nodes  # per-CPU, so only near-sorted globally
    out = []
    for i in range(n_ops):
        if i == n_ops // 2:
            # Between per-model replays the fabric is reset and every
            # per-CPU clock restarts at 0.
            out.append(summaries())
            net.reset()
            clocks = [0] * n_nodes
        cpu = rng.randrange(n_nodes)
        clocks[cpu] += rng.randrange(0, 60)
        now = clocks[cpu]
        line = rng.randrange(0, 64)
        if rng.random() < 0.25:
            line = cpu + n_nodes * rng.randrange(0, 4)  # cpu == home
        op = rng.randrange(4)
        if op == 0:
            lat = net.replay_miss(
                cpu, line * 16 + rng.randrange(16), rng.random() < 0.3, now
            )
        elif op == 1:
            owner = rng.randrange(n_nodes) if rng.random() < 0.5 else None
            lat = net.read_miss(cpu, line, owner, now)
        else:
            sharers = tuple(rng.sample(range(n_nodes), rng.randrange(0, 5)))
            lat = net.write_miss(
                cpu, line, sharers, now, upgrade=rng.random() < 0.4
            )
        out.append(lat)
    out.append(summaries())
    return out


class TestTimingPinned:
    """Fabric timing is part of every committed contention/co-simulation
    number; these pins were generated with the event-wheel model this
    one replaced and must never be regenerated to make a change pass."""

    @pytest.mark.parametrize("kind,n_nodes,seed,digest", [
        ("mesh", 9, 1, "2b386d06f9907e53"),
        ("mesh", 9, 2, "2492c4da92f979d5"),
        ("mesh", 16, 1, "5ea6f79c764dc9a5"),
        ("mesh", 16, 2, "894ed9d0a50d27eb"),
        ("crossbar", 9, 1, "fd5becd8e24eb537"),
        ("crossbar", 9, 2, "5fa0236420e7ef93"),
        ("crossbar", 16, 1, "51d4d9cd10caaa20"),
        ("crossbar", 16, 2, "6d6ae4e83df464e3"),
    ])
    def test_random_stream_digest(self, kind, n_nodes, seed, digest):
        blob = json.dumps(_fabric_stream(kind, n_nodes, seed), sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest()[:16] == digest

    def test_carried_clock_does_not_leak_between_transactions(self):
        # The scheduler's present persists across transactions.  A write
        # miss whose requester is the home node sends no request, so
        # nothing moves the present before its invalidations fan out;
        # and a single-message transaction must move it, or the next
        # fan-out clamps to a stale future.  Every transaction below
        # uses links of its own, so each must cost what it costs on an
        # idle fabric.
        net = build_network("crossbar", 16, 16)
        assert net.write_miss(0, line=1, sharers=(2, 3), now=400) == 42
        # requester is home, not an upgrade, sharers, and the previous
        # transaction ended (~440) after this one starts
        assert net.write_miss(4, line=4, sharers=(5, 6), now=100) == 34
        assert net.write_miss(0, line=1, sharers=(2, 3), now=900) == 42
        assert net.replay_miss(7, addr=8 * 16, is_write=False, now=50) == 42
        assert net.write_miss(9, line=10, sharers=(11, 12), now=60) == 42


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["crossbar", "mesh"]),
    src=st.integers(0, 8),
    dst=st.integers(0, 8),
    start=st.integers(0, 500),
    data=st.booleans(),
    link_free=st.lists(st.integers(0, 600), min_size=60, max_size=60),
    present=st.integers(0, 600),
)
def test_single_message_walk_equals_fan_out_alone(
    kind, src, dst, start, data, link_free, present
):
    """`_send`'s closed-form walk and the fan-out scheduler time one
    message identically from any link state: same arrival, same link
    reservations, same queue-depth statistics, same present after."""
    walked = build_network(kind, 9, 16)
    queued = build_network(kind, 9, 16)
    n_links = walked.topology.n_links
    for net in (walked, queued):
        net._link_free = link_free[:n_links]
        net._now = present
    landed = []
    queued._chain(src, dst, start, landed.append, data)
    queued._run()
    assert [walked._send(src, dst, start, data)] == landed
    for state in ("_link_free", "_link_samples", "_link_depth_sum",
                  "_link_depth_max", "_now"):
        assert getattr(walked, state) == getattr(queued, state), state


class TestCoherenceIntegration:
    def test_ideal_path_uses_fixed_penalty(self):
        mem = CoherentMemorySystem(n_cpus=2, miss_penalty=50)
        hit, stall = mem.access_ht(0, 0x100, False)
        assert (hit, stall) == (False, 50)

    def test_network_path_varies_latency(self):
        net = build_network("crossbar", 2, 16)
        mem = CoherentMemorySystem(n_cpus=2, miss_penalty=50, network=net)
        _, first = mem.access_ht(0, 0x100, False, 0)
        _, second = mem.access_ht(1, 0x200, True, 0)
        assert first != 50 or second != 50
        assert len(net.latencies) == 2

    def test_invalidation_acks_charged_to_writer(self):
        # Upgrades carry no data, so their latency is the invalidation/
        # ack round trip — it must grow with the sharer count.
        net = build_network("crossbar", 4, 16)
        mem = CoherentMemorySystem(n_cpus=4, miss_penalty=50, network=net)
        for cpu in range(4):
            mem.access_ht(cpu, 0x100, False, 0)
        net.reset()
        _, with_sharers = mem.access_ht(3, 0x100, True, 0)
        net2 = build_network("crossbar", 4, 16)
        mem2 = CoherentMemorySystem(n_cpus=4, miss_penalty=50, network=net2)
        mem2.access_ht(3, 0x100, False, 0)
        net2.reset()
        _, unshared = mem2.access_ht(3, 0x100, True, 0)
        assert with_sharers > unshared


def _run_app(app, network, compiled=True, n_procs=4):
    workload = build_app(app, n_procs=n_procs, preset="tiny")
    config = MultiprocessorConfig(
        n_cpus=n_procs, network=network,
        trace_cpus=tuple(range(n_procs)),
    )
    result = TangoExecutor(
        workload.programs, config, memory=workload.memory,
        compiled=compiled,
    ).run()
    workload.verify(result.memory)
    return result


class TestExecutorIntegration:
    @pytest.mark.parametrize("app", APP_NAMES)
    def test_ideal_backend_matches_default(self, app):
        default = _run_app(app, "ideal")
        explicit = _run_app(app, NETWORK_KINDS[0])
        assert default.stats.total_cycles == explicit.stats.total_cycles
        for cpu in range(4):
            assert (default.trace(cpu).columns()
                    == explicit.trace(cpu).columns())

    @pytest.mark.parametrize("network", ("crossbar", "mesh"))
    def test_compiled_matches_reference_under_network(self, network):
        fast = _run_app("lu", network, compiled=True)
        slow = _run_app("lu", network, compiled=False)
        assert fast.stats.total_cycles == slow.stats.total_cycles
        for cpu in range(4):
            assert fast.trace(cpu).columns() == slow.trace(cpu).columns()

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
    @pytest.fixture(scope="class")
    def results(self, tmp_path_factory):
        from repro.experiments import TraceStore, run_contention

        store = TraceStore(
            n_procs=4, preset="tiny",
            cache_dir=tmp_path_factory.mktemp("traces"),
        )
        return run_contention(
            store, apps=("lu",), networks=("ideal", "mesh")
        )

    def test_ideal_rows_report_fixed_penalty(self, results):
        for _, summary in results["lu"]["ideal"]:
            assert summary["mean"] == 50.0
            assert summary["p50"] == summary["p99"] == 50

    def test_ds_sees_more_contention_than_base(self, results):
        rows = results["lu"]["mesh"]
        base_summary = rows[0][1]
        ds_summary = rows[-1][1]
        assert ds_summary["mean"] > base_summary["mean"]
        assert ds_summary["p99"] > base_summary["p99"]

    def test_ds_still_fastest_overall(self, results):
        rows = results["lu"]["mesh"]
        totals = [breakdown.total for breakdown, _ in rows]
        assert min(totals[1:]) < totals[0]

    def test_formatting_lists_all_backends(self, results):
        from repro.experiments import format_contention

        text = format_contention(results)
        assert "Contention — LU" in text
        assert "ideal" in text and "mesh" in text
        assert "p99" in text
