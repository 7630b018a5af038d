"""Tests for BASE, SSBR and SS on hand-crafted traces."""

from oracles import simulate_ss as oracle_ss

from repro.consistency import PC, RC, SC

from trace_helpers import TraceBuilder, alu_block, run_model


def base(trace):
    return run_model(trace, "base")


def ssbr(trace, model):
    return run_model(trace, "ssbr", model)


def ss(trace, model):
    return run_model(trace, "ss", model)


class TestBase:
    def test_pure_compute(self):
        tb = TraceBuilder()
        alu_block(tb, 10)
        r = base(tb.build())
        assert r.total == 10
        assert r.busy == 10 and r.read == 0

    def test_read_miss_charged_to_read(self):
        tb = TraceBuilder()
        tb.load(stall=50)
        r = base(tb.build())
        assert r.total == 51 and r.read == 50

    def test_write_and_release_charged_to_write(self):
        tb = TraceBuilder()
        tb.store(stall=50)
        tb.release(stall=50)
        r = base(tb.build())
        assert r.write == 100 and r.busy == 2

    def test_acquire_charged_to_sync_with_wait(self):
        tb = TraceBuilder()
        tb.acquire(stall=50, wait=200)
        r = base(tb.build())
        assert r.sync == 250 and r.total == 251

    def test_components_sum_to_total(self):
        tb = TraceBuilder()
        tb.load(stall=50)
        tb.store(stall=50)
        tb.acquire(stall=50, wait=10)
        tb.barrier(stall=50, wait=30)
        alu_block(tb, 5)
        r = base(tb.build())
        assert r.total == r.busy + r.sync + r.read + r.write + r.other


class TestSSBR:
    def test_sc_blocks_on_everything(self):
        tb = TraceBuilder()
        tb.store(stall=50, addr=0x100)
        tb.load(stall=50, addr=0x200)
        r = ssbr(tb.build(), SC)
        # The read must wait for the buffered write to drain; SC-SSBR
        # matches BASE up to the single cycle of issue/buffer overlap.
        base_total = base(tb.build()).total
        assert base_total - 2 <= r.total <= base_total

    def test_pc_read_bypasses_pending_write(self):
        tb = TraceBuilder()
        tb.store(stall=50, addr=0x100)
        tb.load(stall=50, addr=0x200)
        alu_block(tb, 5)
        r = ssbr(tb.build(), PC)
        # Write is buffered (hidden); only the read stall remains.
        assert r.write == 0
        assert r.read == 50
        assert r.total == 7 + 50

    def test_pc_serialized_writes_fill_buffer(self):
        tb = TraceBuilder()
        for i in range(40):  # 40 write misses back to back, depth 16
            tb.store(stall=50, addr=0x1000 + i * 64)
        r = ssbr(tb.build(), PC)
        assert r.write > 0  # buffer-full stalls appear

    def test_rc_overlapped_writes_do_not_fill_buffer(self):
        tb = TraceBuilder()
        for i in range(40):
            tb.store(stall=50, addr=0x1000 + i * 64)
        rc = ssbr(tb.build(), RC)
        pc = ssbr(tb.build(), PC)
        assert rc.write < pc.write
        assert rc.total < pc.total

    def test_store_forwarding_avoids_read_stall(self):
        tb = TraceBuilder()
        tb.store(stall=50, addr=0x100)
        tb.load(stall=50, addr=0x100)  # same address: forwarded
        r = ssbr(tb.build(), PC)
        assert r.read == 0

    def test_barrier_drains_write_buffer(self):
        tb = TraceBuilder()
        tb.store(stall=50, addr=0x100)
        tb.barrier(stall=50, wait=0)
        r = ssbr(tb.build(), RC)
        # the barrier cannot complete before the write performed
        assert r.write > 0
        assert r.sync == 50

    def test_busy_equals_instructions(self):
        tb = TraceBuilder()
        alu_block(tb, 3)
        tb.load(stall=50)
        tb.store(stall=50)
        for model in (SC, PC, RC):
            r = ssbr(tb.build(), model)
            assert r.busy == 5

    def test_attribution_sums(self):
        tb = TraceBuilder()
        for i in range(10):
            tb.store(stall=50, addr=0x1000 + i * 16)
            tb.load(stall=50, addr=0x2000 + i * 16)
            tb.acquire(stall=50, wait=5)
            tb.release(stall=50)
            alu_block(tb, 3)
        for model in (SC, PC, RC):
            r = ssbr(tb.build(), model)
            assert r.total == r.busy + r.sync + r.read + r.write + r.other


class TestSS:
    def test_stall_deferred_to_use(self):
        tb = TraceBuilder()
        tb.load(rd=5, stall=50)
        alu_block(tb, 20)         # independent work
        tb.alu(rd=6, rs1=5)       # first use
        r = ss(tb.build(), RC)
        # 20 of the 50 stall cycles are overlapped with the alu block.
        assert r.read < 50
        assert r.read >= 50 - 21 - 1

    def test_no_use_no_stall(self):
        tb = TraceBuilder()
        tb.load(rd=5, stall=50)
        alu_block(tb, 60)
        r = ss(tb.build(), RC)
        assert r.read == 0

    def test_immediate_use_equals_blocking(self):
        tb = TraceBuilder()
        tb.load(rd=5, stall=50)
        tb.alu(rd=6, rs1=5)
        nonblocking = ss(tb.build(), RC)
        blocking = ssbr(tb.build(), RC)
        assert abs(nonblocking.total - blocking.total) <= 1

    def test_pc_serializes_reads(self):
        tb = TraceBuilder()
        tb.load(rd=5, stall=50, addr=0x100)
        tb.load(rd=6, stall=50, addr=0x200)
        tb.alu(rd=7, rs1=5, rs2=6)
        pc = ss(tb.build(), PC)
        rc = ss(tb.build(), RC)
        # Under RC the two misses overlap; under PC they serialize.
        assert rc.total < pc.total

    def test_read_buffer_limits_outstanding_reads(self):
        tb = TraceBuilder()
        for i in range(40):
            tb.load(rd=-1, stall=50, addr=0x1000 + 64 * i)
        # The depth is a parameter of the oracle only; the product's is
        # the paper's 16.
        limited = oracle_ss(tb.build(), RC, read_buffer_depth=2)
        wide = oracle_ss(tb.build(), RC, read_buffer_depth=64)
        assert limited.total > wide.total

    def test_attribution_sums(self):
        tb = TraceBuilder()
        for i in range(10):
            tb.load(rd=5, stall=50, addr=0x1000 + i * 16)
            tb.alu(rd=6, rs1=5)
            tb.store(rs2=6, stall=50, addr=0x2000 + i * 16)
            tb.barrier(stall=50, wait=7)
        for model in (SC, PC, RC):
            r = ss(tb.build(), model)
            assert r.total == r.busy + r.sync + r.read + r.write + r.other

    def test_ss_never_slower_than_ssbr(self):
        tb = TraceBuilder()
        for i in range(15):
            tb.load(rd=5, stall=50, addr=0x1000 + i * 16)
            alu_block(tb, 4)
            tb.alu(rd=6, rs1=5)
        for model in (SC, PC, RC):
            nonblocking = ss(tb.build(), model)
            blocking = ssbr(tb.build(), model)
            assert nonblocking.total <= blocking.total + 1
