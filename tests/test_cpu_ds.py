"""Tests for the dynamically scheduled processor on hand-crafted traces."""

import pytest
from oracles import DSProcessor, simulate_ds

from repro.consistency import PC, RC, SC
from repro.cpu.ds import DSConfig

from trace_helpers import TraceBuilder, alu_block, run_model


def ds(trace, model=RC, **cfg):
    return run_model(trace, "ds", model, **cfg)


class TestPipelineBasics:
    def test_pure_compute_is_one_per_cycle(self):
        tb = TraceBuilder()
        alu_block(tb, 20)
        r = ds(tb.build(), window=16)
        assert r.busy == 20
        assert r.total <= 22  # pipeline fill slack only

    def test_attribution_sums_to_total(self):
        tb = TraceBuilder()
        for i in range(8):
            tb.load(rd=5, stall=50, addr=0x1000 + i * 16)
            tb.alu(rd=6, rs1=5)
            tb.store(rs2=6, stall=50, addr=0x2000 + i * 16)
            tb.acquire(stall=50, wait=10)
            tb.release(stall=50)
            alu_block(tb, 4)
        for model in (SC, PC, RC):
            for window in (16, 64):
                r = ds(tb.build(), model, window=window)
                assert r.total == (
                    r.busy + r.sync + r.read + r.write + r.other
                )
                assert r.busy == r.instructions

    def test_dependence_chain_serializes(self):
        tb = TraceBuilder()
        tb.alu(rd=1)
        for _ in range(10):
            tb.alu(rd=1, rs1=1)
        r = ds(tb.build(), window=64)
        # Each instruction depends on the previous: ~1 cycle each anyway
        # at single issue; just verify it completes with sane total.
        assert 11 <= r.total <= 15


class TestReadOverlap:
    def test_independent_misses_overlap_under_rc(self):
        tb = TraceBuilder()
        for i in range(8):
            tb.load(rd=-1, stall=50, addr=0x1000 + 64 * i)
        r = ds(tb.build(), RC, window=64)
        base = run_model(tb.build(), "base")
        # BASE pays 8x50; the DS pays roughly one memory latency since
        # all eight issue back to back through the single port.
        assert base.read == 400
        assert r.total < 100

    def test_sc_serializes_misses(self):
        tb = TraceBuilder()
        for i in range(8):
            tb.load(rd=-1, stall=50, addr=0x1000 + 64 * i)
        r = ds(tb.build(), SC, window=64)
        base = run_model(tb.build(), "base")
        assert r.total >= base.total - 10

    def test_pc_serializes_reads_too(self):
        tb = TraceBuilder()
        for i in range(8):
            tb.load(rd=-1, stall=50, addr=0x1000 + 64 * i)
        rc = ds(tb.build(), RC, window=64)
        pc = ds(tb.build(), PC, window=64)
        assert pc.total > 3 * rc.total

    def test_window_must_cover_latency(self):
        # One miss every 10 instructions: window 16 can only slide ~16
        # instructions ahead, window 64 covers the 50-cycle latency.
        tb = TraceBuilder()
        for i in range(20):
            tb.load(rd=-1, stall=50, addr=0x1000 + 64 * i)
            alu_block(tb, 9)
        small = ds(tb.build(), RC, window=16)
        large = ds(tb.build(), RC, window=64)
        assert large.read < small.read
        assert large.total < small.total

    def test_window_monotonicity(self):
        tb = TraceBuilder()
        for i in range(30):
            tb.load(rd=5, stall=50 if i % 3 == 0 else 0,
                    addr=0x1000 + 64 * i)
            tb.alu(rd=6, rs1=5)
            alu_block(tb, 6)
        totals = [
            ds(tb.build(), RC, window=w).total
            for w in (16, 32, 64, 128, 256)
        ]
        for a, b in zip(totals, totals[1:]):
            assert b <= a + 2

    def test_dependent_misses_cannot_overlap(self):
        # Load feeding the next load's address: a pointer chase.
        tb = TraceBuilder()
        tb.load(rd=1, stall=50, addr=0x1000)
        for i in range(4):
            tb.load(rd=1, rs1=1, stall=50, addr=0x2000 + 64 * i)
        chain = ds(tb.build(), RC, window=64)
        tb2 = TraceBuilder()
        tb2.load(rd=1, stall=50, addr=0x1000)
        for i in range(4):
            tb2.load(rd=2, stall=50, addr=0x2000 + 64 * i)
        indep = ds(tb2.build(), RC, window=64)
        assert chain.total > 4 * 50
        assert indep.total < 2 * 50 + 20

    def test_ignore_deps_breaks_chains(self):
        tb = TraceBuilder()
        tb.load(rd=1, stall=50, addr=0x1000)
        for i in range(4):
            tb.load(rd=1, rs1=1, stall=50, addr=0x2000 + 64 * i)
        normal = ds(tb.build(), RC, window=64)
        nodep = ds(tb.build(), RC, window=64, ignore_data_dependences=True)
        assert nodep.total < normal.total / 2


class TestStores:
    def test_store_latency_hidden_under_rc(self):
        tb = TraceBuilder()
        for i in range(10):
            tb.store(stall=50, addr=0x1000 + 64 * i)
            alu_block(tb, 3)
        r = ds(tb.build(), RC, window=64)
        assert r.write <= 55  # only the final drain is exposed

    def test_store_buffer_full_stalls_under_pc(self):
        tb = TraceBuilder()
        for i in range(40):
            tb.store(stall=50, addr=0x1000 + 64 * i)
        # The store buffer has the window's four entries.
        trace = tb.build()
        oracle = DSProcessor(trace, PC, DSConfig(window=4))
        pc = ds(trace, PC, window=4)
        assert pc == oracle.run()
        assert oracle.full_store_buffer_cycles > 0
        rc = ds(trace, RC, window=4)
        assert rc == simulate_ds(trace, RC, DSConfig(window=4))
        assert pc.total > rc.total

    def test_store_to_load_forwarding(self):
        tb = TraceBuilder()
        tb.store(stall=50, addr=0x1000)
        tb.load(rd=5, stall=50, addr=0x1000)   # forwarded
        tb.alu(rd=6, rs1=5)
        r = ds(tb.build(), RC, window=16)
        assert r.read <= 2


class TestSynchronizationSemantics:
    def test_acquire_gates_following_reads_under_rc(self):
        tb = TraceBuilder()
        tb.acquire(stall=50, wait=0)
        tb.load(rd=-1, stall=50, addr=0x1000)
        r = ds(tb.build(), RC, window=16)
        # Serialized: ~50 (acquire) + 50 (read)
        assert r.total >= 100

    def test_release_does_not_gate_following_reads_under_rc(self):
        tb = TraceBuilder()
        tb.release(stall=50)
        tb.load(rd=-1, stall=50, addr=0x1000)
        r = ds(tb.build(), RC, window=16)
        assert r.total < 100

    def test_contention_wait_is_not_hidden(self):
        # A long acquire wait cannot be overlapped even with plenty of
        # preceding independent work.
        tb = TraceBuilder()
        alu_block(tb, 100)
        tb.acquire(stall=50, wait=500)
        r = ds(tb.build(), RC, window=256)
        assert r.total >= 100 + 500
        assert r.sync >= 500

    def test_free_lock_access_latency_is_hideable(self):
        # wait == 0: the acquire's 50-cycle access can overlap prior work.
        tb = TraceBuilder()
        for _ in range(3):
            alu_block(tb, 60)
            tb.acquire(stall=50, wait=0)
        r = ds(tb.build(), RC, window=256)
        base = run_model(tb.build(), "base")
        assert r.sync < base.sync


class TestBranches:
    def _loop_trace(self, iterations=50, body=6):
        """A simple loop: body ALUs then a taken back-branch, with a
        final not-taken exit."""
        tb = TraceBuilder()
        for it in range(iterations):
            for i in range(body):
                tb.trace.append(
                    __import__("repro.tango", fromlist=["TraceRecord"])
                    .TraceRecord(
                        op=__import__("repro.isa", fromlist=["Op"]).Op.ADD,
                        pc=i, next_pc=i + 1,
                    )
                )
            taken = it < iterations - 1
            from repro.isa import Op
            from repro.tango import TraceRecord
            tb.trace.append(TraceRecord(
                op=Op.BNE, pc=body, next_pc=0 if taken else body + 1,
            ))
        return tb.build()

    def test_predictable_loop_branches_cost_little(self):
        trace = self._loop_trace()
        normal = ds(trace, RC, window=64)
        perfect = ds(trace, RC, window=64, perfect_branch_prediction=True)
        # After BTB warmup the loop branch predicts correctly.
        assert normal.total <= perfect.total * 1.2

    def test_mispredictions_stall_fetch(self):
        # Alternating taken/not-taken branch at the same pc with a load
        # after it: misprediction limits lookahead.
        from repro.isa import Op
        from repro.tango import TraceRecord
        tb = TraceBuilder()
        for i in range(30):
            tb.trace.append(TraceRecord(
                op=Op.BNE, pc=0, next_pc=1 if i % 2 else 2,
            ))
            tb.trace.append(TraceRecord(
                op=Op.LW, pc=1 if i % 2 else 2, next_pc=0,
                addr=0x1000 + 64 * i, stall=50,
                mem_class=__import__("repro.isa",
                                     fromlist=["MemClass"]).MemClass.READ,
            ))
        trace = tb.build()
        normal = ds(trace, RC, window=64)
        perfect = ds(trace, RC, window=64, perfect_branch_prediction=True)
        assert perfect.total < normal.total


class TestMultiIssue:
    def test_wider_issue_is_faster_on_ilp(self):
        tb = TraceBuilder()
        alu_block(tb, 200)
        one = ds(tb.build(), RC, window=64, issue_width=1)
        four = ds(tb.build(), RC, window=64, issue_width=4)
        assert four.total < one.total / 1.5

    def test_multi_issue_needs_bigger_window(self):
        # With 4-wide issue, the same window covers fewer cycles of
        # latency, so enlarging the window keeps helping past 64.
        tb = TraceBuilder()
        for i in range(40):
            tb.load(rd=-1, stall=50, addr=0x1000 + 64 * i)
            alu_block(tb, 12)
        w64 = ds(tb.build(), RC, window=64, issue_width=4)
        w128 = ds(tb.build(), RC, window=128, issue_width=4)
        assert w128.total <= w64.total


class TestDegenerateConfigs:
    """A window or width with no entries can never retire anything;
    construction refuses instead of the loop spinning."""

    @pytest.mark.parametrize("field", ("window", "issue_width"))
    def test_rejected_at_construction(self, field):
        for bad in (0, -4):
            with pytest.raises(ValueError, match=field):
                DSConfig(**{field: bad})
        assert getattr(DSConfig(**{field: 1}), field) == 1

    def test_processor_config_fields_that_feed_it(self):
        from repro.cpu import ProcessorConfig

        with pytest.raises(ValueError, match="window"):
            ProcessorConfig(kind="ds", window=0)
        with pytest.raises(ValueError, match="issue_width"):
            ProcessorConfig(kind="ds", issue_width=0)
        # The window is not an input of the static models.
        assert ProcessorConfig(kind="ss", window=0).label() == "SS-RC"


class TestInstrumentation:
    def test_miss_stats_collected(self):
        # Miss distances are collected by the oracle only.
        tb = TraceBuilder()
        tb.load(rd=1, stall=50, addr=0x1000)
        tb.load(rd=2, rs1=1, stall=50, addr=0x2000)
        alu_block(tb, 5)
        tb.load(rd=3, stall=50, addr=0x3000)
        proc = DSProcessor(
            tb.build(), RC,
            DSConfig(window=64, collect_miss_stats=True,
                     perfect_branch_prediction=True),
        )
        proc.run()
        assert len(proc.read_miss_issue_delays) == 3
        assert len(proc.read_miss_distances) == 2
        # The dependent second load issues much later than it decoded.
        assert max(proc.read_miss_issue_delays) >= 49


class TestCompaction:
    """Head-list compaction is pure memory management: any threshold
    must produce the identical breakdown (see `_compact`'s docstring).
    The product and the oracle share the one `_compact`."""

    @staticmethod
    def _churny_trace():
        # Long enough to retire far more rows than a tiny floor, with
        # stores that linger in the buffer and misses that stall heads.
        tb = TraceBuilder()
        for i in range(120):
            tb.load(rd=1, stall=50 if i % 3 == 0 else 0,
                    addr=0x1000 + 16 * i)
            tb.store(rs2=1, stall=50 if i % 4 == 0 else 0,
                     addr=0x8000 + 16 * i)
            alu_block(tb, 2)
            if i % 20 == 19:
                tb.acquire(stall=50, wait=5)
                tb.release(stall=50)
        return tb.build()

    @pytest.mark.parametrize("floor", (0, 2, 10**9))
    def test_threshold_never_changes_results(self, floor, monkeypatch):
        from repro.cpu.ds import event_engine

        trace = self._churny_trace()
        baseline_scalar = simulate_ds(trace, RC, DSConfig(window=16))
        baseline_fast = ds(trace, RC, window=16)
        assert baseline_scalar == baseline_fast
        monkeypatch.setattr(event_engine, "_COMPACT_FLOOR", floor)
        full_store_buffer_cycles = 0
        for model in (SC, PC, RC):
            for window in (4, 16, 64):
                oracle = DSProcessor(trace, model, DSConfig(window=window))
                scalar = oracle.run()
                fast = ds(trace, model, window=window)
                assert scalar == fast, (floor, window)
                full_store_buffer_cycles += oracle.full_store_buffer_cycles
        # The four-entry store buffer of the four-entry window fills.
        assert full_store_buffer_cycles > 0
        assert simulate_ds(trace, RC, DSConfig(window=16)) == baseline_scalar
        assert ds(trace, RC, window=16) == baseline_fast
