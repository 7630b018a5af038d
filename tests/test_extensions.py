"""Unit tests for the extension models: SC boosting, compiler read
scheduling."""


from repro.consistency import RC, SC
from repro.cpu import schedule_reads_early
from repro.cpu.scheduling import MAX_HOIST
from repro.isa import MemClass

from trace_helpers import TraceBuilder, alu_block, run_model


def miss_heavy_trace(misses=10, gap=3):
    tb = TraceBuilder()
    for i in range(misses):
        tb.load(rd=-1, stall=50, addr=0x1000 + 64 * i)
        alu_block(tb, gap)
    return tb.build()


class TestScBoost:
    def test_prefetch_shrinks_delayed_miss(self):
        # Two misses under SC: the second is delayed by the first; with
        # prefetch its line arrives during the wait.
        tb = TraceBuilder()
        tb.load(rd=-1, stall=50, addr=0x1000)
        tb.load(rd=-1, stall=50, addr=0x2000)
        plain = run_model(tb.build(), "ds", SC, window=16)
        boosted = run_model(tb.build(), "ds", SC, window=16, prefetch=True)
        assert boosted.total < plain.total - 30

    def test_speculative_loads_overlap_under_sc(self):
        tb = TraceBuilder()
        for i in range(6):
            tb.load(rd=-1, stall=50, addr=0x1000 + 64 * i)
        plain = run_model(tb.build(), "ds", SC, window=64)
        spec = run_model(
            tb.build(), "ds", SC, window=64, speculative_loads=True
        )
        assert spec.total < plain.total / 2

    def test_boosted_sc_still_bounded_by_rc(self):
        trace = miss_heavy_trace()
        both = run_model(
            trace, "ds", SC, window=64, prefetch=True, speculative_loads=True
        )
        rc = run_model(trace, "ds", RC, window=64)
        assert rc.total <= both.total + 2

    def test_prefetch_noop_on_hits(self):
        tb = TraceBuilder()
        for _ in range(10):
            tb.load(rd=-1, stall=0)
        plain = run_model(tb.build(), "ds", SC, window=16)
        boosted = run_model(tb.build(), "ds", SC, window=16, prefetch=True)
        assert boosted.total == plain.total


class TestCompilerScheduling:
    def test_hoists_load_past_independent_work(self):
        tb = TraceBuilder()
        alu_block(tb, 10)                  # independent filler
        tb.load(rd=5, stall=50)            # should hoist to the top
        tb.alu(rd=6, rs1=5)
        scheduled, stats = schedule_reads_early(tb.build())
        assert stats.loads_moved == 1
        assert stats.total_hoist == 10
        assert scheduled[0].mem_class == MemClass.READ

    def test_respects_true_dependence(self):
        tb = TraceBuilder()
        tb.alu(rd=3)                       # produces the address
        tb.load(rd=5, rs1=3, stall=50)     # cannot cross its producer
        scheduled, stats = schedule_reads_early(tb.build())
        assert stats.loads_moved == 0
        assert scheduled[1].mem_class == MemClass.READ

    def test_respects_anti_dependence(self):
        tb = TraceBuilder()
        tb.alu(rd=9, rs1=5)                # reads r5
        tb.load(rd=5, stall=50)            # writes r5: cannot cross
        scheduled, stats = schedule_reads_early(tb.build())
        assert stats.loads_moved == 0

    def test_does_not_cross_stores_or_branches(self):
        tb = TraceBuilder()
        tb.store(stall=0, addr=0x100)
        tb.load(rd=5, stall=50, addr=0x200)
        tb.branch(taken=False)
        tb.load(rd=6, stall=50, addr=0x300)
        scheduled, stats = schedule_reads_early(tb.build())
        # Region boundaries (store, branch) pin both loads in place.
        assert [r.mem_class for r in scheduled] == [
            r.mem_class for r in tb.build()
        ]

    def test_preserves_instruction_multiset(self):
        tb = TraceBuilder()
        alu_block(tb, 5)
        tb.load(rd=5, stall=50)
        tb.alu(rd=6, rs1=5)
        tb.store(rs2=6, addr=0x100)
        alu_block(tb, 4)
        tb.load(rd=7, stall=50)
        original = tb.build()
        scheduled, _ = schedule_reads_early(original)
        assert sorted(r.op for r in scheduled) == sorted(
            r.op for r in original
        )
        assert len(scheduled) == len(original)

    def test_ss_benefits_from_scheduling(self):
        # use-distance 0 originally; hoisting gives SS room to overlap.
        tb = TraceBuilder()
        for i in range(10):
            alu_block(tb, 12)
            tb.load(rd=5, stall=50, addr=0x1000 + 64 * i)
            tb.alu(rd=6, rs1=5)
            tb.store(rs2=6, addr=0x4000 + 64 * i)  # region boundary
        original = tb.build()
        scheduled, stats = schedule_reads_early(original)
        assert stats.loads_moved == 10
        before = run_model(original, "ss", RC)
        after = run_model(scheduled, "ss", RC)
        assert after.read < before.read
        assert after.total < before.total

    def test_max_hoist_cap(self):
        tb = TraceBuilder()
        alu_block(tb, MAX_HOIST + 10)
        tb.load(rd=5, stall=50)
        _, stats = schedule_reads_early(tb.build())
        assert stats.total_hoist == MAX_HOIST
