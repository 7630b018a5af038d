"""Tests for the multiprocessor executor (trace generation, sync, timing)."""

import pytest

from repro.asm import AsmBuilder
from repro.isa import MemClass, Op
from repro.mem import SharedMemory
from repro.tango import (
    DeadlockError,
    MultiprocessorConfig,
    StepLimitExceeded,
    TangoExecutor,
)


def two_cpu_config(**kw):
    kw.setdefault("n_cpus", 2)
    kw.setdefault("trace_cpus", (0, 1))
    return MultiprocessorConfig(**kw)


def build_pair(body0, body1):
    """Build two thread programs from callables taking a builder."""
    programs = []
    for tid, body in enumerate((body0, body1)):
        b = AsmBuilder(f"t{tid}")
        body(b)
        b.halt()
        programs.append(b.build())
    return programs


class TestBasicExecution:
    def test_single_thread_computes(self):
        b = AsmBuilder()
        x, addr = b.ireg(), b.ireg()
        b.li(x, 41)
        b.addi(x, x, 1)
        b.li(addr, 0x1000)
        b.sw(x, addr, 0)
        b.halt()
        ex = TangoExecutor(
            [b.build()], MultiprocessorConfig(n_cpus=1), SharedMemory()
        )
        result = ex.run()
        assert result.memory.read_word(0x1000) == 42

    def test_busy_cycles_count_instructions(self):
        b = AsmBuilder()
        x = b.ireg()
        for _ in range(10):
            b.addi(x, x, 1)
        b.halt()
        ex = TangoExecutor(
            [b.build()], MultiprocessorConfig(n_cpus=1), SharedMemory()
        )
        result = ex.run()
        assert result.stats.cpu(0).busy_cycles == 10

    def test_read_miss_advances_clock_by_penalty(self):
        b = AsmBuilder()
        addr, x = b.ireg(), b.ireg()
        b.li(addr, 0x1000)
        b.lw(x, addr, 0)     # cold miss
        b.lw(x, addr, 0)     # hit
        b.halt()
        ex = TangoExecutor(
            [b.build()],
            MultiprocessorConfig(n_cpus=1, miss_penalty=50),
            SharedMemory(),
        )
        result = ex.run()
        # 3 instructions (HALT is free) + 50-cycle miss stall
        assert result.stats.cpu(0).end_time == 3 + 50

    def test_write_latency_hidden_on_host(self):
        b = AsmBuilder()
        addr, x = b.ireg(), b.ireg()
        b.li(addr, 0x1000)
        b.li(x, 5)
        b.sw(x, addr, 0)     # write miss, but buffered
        b.halt()
        ex = TangoExecutor(
            [b.build()],
            MultiprocessorConfig(n_cpus=1, miss_penalty=50),
            SharedMemory(),
        )
        result = ex.run()
        assert result.stats.cpu(0).end_time == 3
        assert result.stats.cpu(0).write_misses == 1

    def test_program_count_mismatch_rejected(self):
        b = AsmBuilder()
        b.halt()
        with pytest.raises(ValueError):
            TangoExecutor(
                [b.build()], MultiprocessorConfig(n_cpus=2), SharedMemory()
            )

    @pytest.mark.parametrize("kw", (
        dict(n_cpus=0), dict(n_cpus=-2, trace_cpus=()),
        dict(n_cpus=4, trace_cpus=(7,)), dict(n_cpus=4, trace_cpus=(0, -1)),
    ))
    def test_degenerate_config_rejected(self, kw):
        with pytest.raises(ValueError):
            MultiprocessorConfig(**kw)

    def test_trace_cpu_outside_the_machine_builds_nothing(self, tmp_path):
        # A cpu the machine lacks would yield an empty trace that gets
        # cached and analysed as if it were real.
        from repro.cli import main
        from repro.experiments import TraceStore

        store = TraceStore(
            n_procs=4, preset="tiny", trace_cpu=7, cache_dir=tmp_path
        )
        with pytest.raises(ValueError, match="trace_cpus"):
            store.get("lu")
        assert list(tmp_path.iterdir()) == []
        assert main(["--procs", "0", "--preset", "tiny", "run", "lu"]) == 3

    def test_step_limit(self):
        b = AsmBuilder()
        b.label("spin")
        b.j("spin")
        ex = TangoExecutor(
            [b.build()],
            MultiprocessorConfig(n_cpus=1, max_instructions=1000),
            SharedMemory(),
        )
        with pytest.raises(StepLimitExceeded):
            ex.run()


class TestTraceAnnotations:
    def test_trace_records_everything(self):
        b = AsmBuilder()
        addr, x = b.ireg(), b.ireg()
        b.li(addr, 0x1000)
        b.lw(x, addr, 0)
        b.sw(x, addr, 4)
        b.halt()
        ex = TangoExecutor(
            [b.build()],
            MultiprocessorConfig(n_cpus=1, trace_cpus=(0,)),
            SharedMemory(),
        )
        trace = ex.run().trace(0)
        assert len(trace) == 3  # HALT is not traced
        load = trace[1]
        assert load.op is Op.LW
        assert load.mem_class == MemClass.READ
        assert load.addr == 0x1000
        assert load.stall == 50
        store = trace[2]
        assert store.mem_class == MemClass.WRITE
        assert store.addr == 0x1004
        assert store.stall == 0  # line now owned after the load fill

    def test_untraced_cpu_has_no_trace(self):
        b0 = AsmBuilder("a")
        b0.halt()
        b1 = AsmBuilder("b")
        b1.halt()
        ex = TangoExecutor(
            [b0.build(), b1.build()],
            MultiprocessorConfig(n_cpus=2, trace_cpus=(0,)),
            SharedMemory(),
        )
        result = ex.run()
        assert 0 in result.traces and 1 not in result.traces

    def test_branch_next_pc_recorded(self):
        b = AsmBuilder()
        x = b.ireg()
        b.li(x, 1)
        b.bnez(x, "skip")
        b.li(x, 99)
        b.label("skip")
        b.halt()
        ex = TangoExecutor(
            [b.build()], MultiprocessorConfig(n_cpus=1), SharedMemory()
        )
        trace = ex.run().trace(0)
        branch = trace[1]
        assert branch.op is Op.BNE
        assert branch.next_pc == branch.pc + 2  # taken over the li


class TestSynchronization:
    def test_lock_provides_mutual_exclusion(self):
        # Both threads do read-modify-write under a lock; no lost updates.
        def body(b):
            lock, addr, x, i = b.ireg(), b.ireg(), b.ireg(), b.ireg()
            b.li(lock, 0x100)
            b.li(addr, 0x200)
            with b.for_range(i, 0, 20):
                b.lock(lock)
                b.lw(x, addr, 0)
                b.addi(x, x, 1)
                b.sw(x, addr, 0)
                b.unlock(lock)

        ex = TangoExecutor(
            build_pair(body, body), two_cpu_config(), SharedMemory()
        )
        result = ex.run()
        assert result.memory.read_word(0x200) == 40
        assert result.stats.cpu(0).locks == 20
        assert result.stats.cpu(0).unlocks == 20

    def test_event_producer_consumer(self):
        def producer(b):
            ev, addr, x = b.ireg(), b.ireg(), b.ireg()
            b.li(addr, 0x200)
            b.li(x, 7)
            b.sw(x, addr, 0)
            b.li(ev, 0x100)
            b.evset(ev)

        def consumer(b):
            ev, addr, x, out = b.ireg(), b.ireg(), b.ireg(), b.ireg()
            b.li(ev, 0x100)
            b.evwait(ev)
            b.li(addr, 0x200)
            b.lw(x, addr, 0)
            b.li(out, 0x300)
            b.sw(x, out, 0)

        ex = TangoExecutor(
            build_pair(producer, consumer), two_cpu_config(), SharedMemory()
        )
        result = ex.run()
        assert result.memory.read_word(0x300) == 7
        assert result.stats.cpu(1).wait_events == 1
        assert result.stats.cpu(0).set_events == 1

    def test_barrier_separates_phases(self):
        # Thread 0 writes before the barrier; thread 1 reads after it.
        def writer(b):
            addr, x, bar = b.ireg(), b.ireg(), b.ireg()
            b.li(addr, 0x200)
            b.li(x, 9)
            b.sw(x, addr, 0)
            b.li(bar, 0x100)
            b.barrier(bar)

        def reader(b):
            addr, x, bar, out = b.ireg(), b.ireg(), b.ireg(), b.ireg()
            b.li(bar, 0x100)
            b.barrier(bar)
            b.li(addr, 0x200)
            b.lw(x, addr, 0)
            b.li(out, 0x300)
            b.sw(x, out, 0)

        ex = TangoExecutor(
            build_pair(writer, reader), two_cpu_config(), SharedMemory()
        )
        result = ex.run()
        assert result.memory.read_word(0x300) == 9
        assert result.stats.cpu(0).barriers == 1
        assert result.stats.cpu(1).barriers == 1

    def test_contended_lock_records_wait(self):
        def holder(b):
            lock, i, x = b.ireg(), b.ireg(), b.ireg()
            b.li(lock, 0x100)
            b.lock(lock)
            with b.for_range(i, 0, 200):  # hold for a long time
                b.addi(x, x, 1)
            b.unlock(lock)

        def waiter(b):
            lock, i, x = b.ireg(), b.ireg(), b.ireg()
            b.li(lock, 0x100)
            # Warm up long enough that the holder certainly locks first.
            with b.for_range(i, 0, 10):
                b.addi(x, x, 1)
            b.lock(lock)
            b.unlock(lock)

        ex = TangoExecutor(
            build_pair(holder, waiter), two_cpu_config(), SharedMemory()
        )
        result = ex.run()
        trace1 = result.trace(1)
        acquires = [
            r for r in trace1 if r.mem_class == MemClass.ACQUIRE
        ]
        assert len(acquires) == 1
        assert acquires[0].wait > 100  # waited for the holder's loop
        assert acquires[0].stall == 50  # plus the access latency

    def test_deadlock_detected(self):
        def stuck(b):
            ev = b.ireg()
            b.li(ev, 0x100)
            b.evwait(ev)  # nobody ever sets it

        def fine(b):
            x = b.ireg()
            b.li(x, 1)

        ex = TangoExecutor(
            build_pair(stuck, fine), two_cpu_config(), SharedMemory()
        )
        with pytest.raises(DeadlockError) as info:
            ex.run()
        assert "event" in str(info.value)


class TestDeterminism:
    def test_same_inputs_same_trace(self):
        def make():
            def body(b):
                lock, addr, x, i = b.ireg(), b.ireg(), b.ireg(), b.ireg()
                b.li(lock, 0x100)
                b.li(addr, 0x200)
                with b.for_range(i, 0, 10):
                    b.lock(lock)
                    b.lw(x, addr, 0)
                    b.addi(x, x, 1)
                    b.sw(x, addr, 0)
                    b.unlock(lock)
            ex = TangoExecutor(
                build_pair(body, body), two_cpu_config(), SharedMemory()
            )
            return ex.run()

        r1, r2 = make(), make()
        t1 = [(r.op, r.pc, r.addr, r.stall, r.wait) for r in r1.trace(0)]
        t2 = [(r.op, r.pc, r.addr, r.stall, r.wait) for r in r2.trace(0)]
        assert t1 == t2
        assert r1.stats.cpu(1).end_time == r2.stats.cpu(1).end_time
