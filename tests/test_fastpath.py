"""Differential and determinism tests for the fast paths.

The compiled-dispatch interpreter and the process-pool experiment
fan-out are pure performance work: both must reproduce the reference
results exactly — trace for trace, counter for counter, byte for byte.
"""

from __future__ import annotations

import inspect
import os
import pickle
import signal
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    DSProcessor,
    record,
    reference_stepper,
    simulate_base,
    simulate_ds,
    simulate_ss,
    simulate_ssbr,
)
from trace_helpers import TraceBuilder, alu_block, model_config

from repro import MultiprocessorConfig, TangoExecutor, build_app
from repro.apps import APP_NAMES
from repro.asm import AsmBuilder
from repro.cli import main
from repro.consistency import get_model
from repro.cosim import build_node, run_cosim
from repro.experiments import (
    TraceStore,
    figure3_configs,
    generate_traces,
    run_miss_analysis,
    run_sc_boost,
    simulate_app_models,
)
from repro.cpu import ProcessorConfig, drive, make_stepper, simulate
from repro.cpu.ds import DSConfig
from repro.cpu.ds.event_engine import ds_fast_stepper
from repro.isa import Op
from repro.mem import MemoryError_, SharedMemory
from repro.net import build_network
from repro.obs import ChromeTracer, MetricsRegistry, Probe, run_profile
from repro.service import sweep_from_request
from repro.tango import ExecutionError, StepLimitExceeded
from repro.tango.trace import TRACE_FORMAT_VERSION
from repro.verify import ExecutionRecorder

MODELS = ("SC", "PC", "WO", "RC")
BASE = ProcessorConfig(kind="base")


def _ds_oracle(trace, config, network=None, probe=None):
    """The scalar DS oracle's run of ``simulate(trace, config, ...)``."""
    return simulate_ds(
        trace, get_model(config.model), config.ds_config(),
        label=config.label(), network=network, probe=probe,
    )


def _run(app: str, compiled: bool, network: str = "ideal", probe=None):
    workload = build_app(app, preset="tiny")
    config = MultiprocessorConfig(trace_cpus=(0, 1), network=network)
    result = TangoExecutor(
        workload.programs, config, memory=workload.memory,
        compiled=compiled, probe=probe,
    ).run()
    workload.verify(result.memory)
    return result


class TestCompiledDispatch:
    """The threaded-code engine is an exact drop-in for the reference."""

    @pytest.mark.parametrize("app", APP_NAMES)
    def test_traces_and_stats_match_reference(self, app):
        fast = _run(app, compiled=True)
        ref = _run(app, compiled=False)
        assert fast.stats == ref.stats
        for cpu in (0, 1):
            assert fast.trace(cpu) == ref.trace(cpu)


class TestRecordedCompiledDispatch:
    """Recording must not perturb the fast path — and both engines must
    emit the *identical* global event log, coherence stream included."""

    @staticmethod
    def _record(app: str, compiled: bool):
        workload = build_app(app, preset="tiny")
        recorder = ExecutionRecorder()
        config = MultiprocessorConfig(trace_cpus=())
        result = TangoExecutor(
            workload.programs, config, memory=workload.memory,
            compiled=compiled, recorder=recorder,
        ).run()
        workload.verify(result.memory)
        return result, recorder.log()

    @pytest.mark.parametrize("app", APP_NAMES)
    def test_compiled_log_matches_reference(self, app):
        fast_result, fast_log = self._record(app, compiled=True)
        ref_result, ref_log = self._record(app, compiled=False)
        assert fast_result.stats == ref_result.stats
        assert fast_log.n_threads == ref_log.n_threads
        assert len(fast_log) == len(ref_log) > 0
        assert fast_log.events == ref_log.events
        assert fast_log.coherence == ref_log.coherence
        assert fast_log.audit_violations == []
        assert ref_log.audit_violations == []

    def test_recording_does_not_change_unrecorded_results(self):
        recorded, _ = self._record("lu", compiled=True)
        bare = _run("lu", compiled=True)
        assert recorded.stats == bare.stats


class TestEmissionLog:
    """Traced threads log rows by template id and the executor expands
    the logs when the run ends (:mod:`repro.tango.trace`): which CPUs are
    traced must not change the run, and every way a run can end must
    still expand them."""

    @pytest.mark.parametrize("app", APP_NAMES)
    def test_tracing_every_cpu_changes_nothing(self, app):
        """Every CPU's trace from a run that traces all four and records
        the sync schedule equals the trace of a run that traces only it,
        with equal RunStats.  locus's traces carry JR exits, whose next
        pc comes from the row after them; pthor's many sync rows."""

        def run(cpus, record_sync_schedule=False):
            workload = build_app(app, n_procs=4, preset="tiny")
            config = MultiprocessorConfig(
                n_cpus=4, trace_cpus=cpus,
                record_sync_schedule=record_sync_schedule,
            )
            return TangoExecutor(
                workload.programs, config, memory=workload.memory
            ).run()

        every = run((0, 1, 2, 3), record_sync_schedule=True)
        for cpu in range(4):
            alone = run((cpu,))
            assert alone.stats == every.stats
            assert alone.trace(cpu) == every.trace(cpu), cpu
        if app == "locus":
            assert any(Op.JR in t.op for t in every.traces.values())

    @pytest.mark.parametrize("compiled", (True, False))
    def test_logs_expand_when_the_budget_runs_out(self, compiled):
        """A step limit stops three looping threads mid-run: every trace
        is still expanded, and is a prefix of the finished run's, down to
        the last row's next pc — also when that row is a JR.  The budgets
        run out in the first run-ahead, in a load or store and in the
        private code after one, on a JR or not."""
        programs = []
        for tid in range(3):
            b = AsmBuilder(f"t{tid}")
            base, x, y, i, j = (b.ireg() for _ in range(5))
            b.li(base, _WORDS + 16 * tid)
            b.jal("sub")
            with b.for_range(i, 0, 30):
                b.lw(x, base, 0)
                b.sw(x, base, 4)
                with b.for_range(j, 0, 2):
                    b.addi(y, y, 1)
                b.jal("sub")
            b.halt()
            b.label("sub")
            for _ in range(tid + 1):
                b.addi(x, x, 1)
            b.jr()
            programs.append(b.build())

        def executor(budget):
            config = MultiprocessorConfig(
                n_cpus=3, trace_cpus=(0, 1, 2), max_instructions=budget,
            )
            return TangoExecutor(
                programs, config, SharedMemory(), compiled=compiled
            )

        full = executor(10_000).run()
        ends_in_jr = 0
        for budget in range(1, 120):
            cut = executor(budget)
            with pytest.raises(StepLimitExceeded):
                cut.run()
            for cpu, trace in cut.traces.items():
                whole = full.trace(cpu)
                assert len(trace) < len(whole)
                for got, want in zip(trace.np_columns(), whole.np_columns()):
                    assert (got == want[:len(trace)]).all(), (budget, cpu)
                ends_in_jr += len(trace) and trace.op[-1] == Op.JR
        assert ends_in_jr


# Address map of the generated scheduler programs.
_WORDS = 0x4000      # 4 shared lines of 4 words
_DOUBLES = 0x4800    # 2 shared lines of 2 doubles
_LOCKS = 0x5000      # one lock per line
_EVENTS = 0x6000     # one event per phase, set by thread 0
_BARRIER = 0x7000

_OPS = st.one_of(
    st.tuples(st.just("alu"), st.integers(1, 8)),
    st.tuples(st.just("loop"), st.integers(1, 10),
              st.sampled_from([None, "load", "store"]), st.integers(0, 15)),
    st.tuples(st.just("load"), st.integers(0, 15)),
    st.tuples(st.just("store"), st.integers(0, 15)),
    st.tuples(st.just("fload"), st.integers(0, 3)),
    st.tuples(st.just("fstore"), st.integers(0, 3)),
    st.tuples(st.just("locked"), st.integers(0, 1), st.integers(0, 15)),
    st.tuples(st.just("wait")),
)


@st.composite
def shared_programs(draw):
    """2-6 threads in 1-3 barrier-separated phases of private loops,
    loads and stores over six shared lines, lock-protected updates and
    waits on the phase's event, which thread 0 sets once per phase and
    clears in the next: deadlock-free by construction."""
    n = draw(st.integers(2, 6))
    phases = draw(st.integers(1, 3))
    spec = [
        [draw(st.lists(_OPS, max_size=6)) for _ in range(phases)]
        for _ in range(n)
    ]
    sets = [draw(st.integers(0, 6)) for _ in range(phases)]
    config = dict(
        miss_penalty=draw(st.sampled_from([5, 50])),
        sync_access_latency=draw(st.sampled_from([None, 0, 3])),
        network=draw(st.sampled_from(["ideal", "crossbar"])),
    )
    return spec, sets, config


def _build_shared(spec, sets):
    programs = []
    for tid, phases in enumerate(spec):
        b = AsmBuilder(f"t{tid}")
        words, dbls, val, tmp, i, sync = (b.ireg() for _ in range(6))
        f = b.freg()
        b.li(words, _WORDS)
        b.li(dbls, _DOUBLES)
        b.li(val, tid + 1)
        b.cvtif(f, val)

        def event(k, op):
            b.li(sync, _EVENTS + 4 * k)
            op(sync)

        def access(kind, w):
            if kind == "load":
                b.lw(tmp, words, 4 * w)
            elif kind == "store":
                b.sw(val, words, 4 * w)

        for k, ops in enumerate(phases):
            if tid == 0 and k:
                event(k - 1, b.evclear)
            for pos, op in enumerate(ops + [("end",)]):
                if tid == 0 and pos == min(sets[k], len(ops)):
                    event(k, b.evset)
                if op[0] == "alu":
                    for _ in range(op[1]):
                        b.addi(tmp, tmp, 3)
                elif op[0] == "loop":
                    with b.for_range(i, 0, op[1]):
                        b.xor(tmp, tmp, i)
                        access(op[2], op[3])
                elif op[0] in ("load", "store"):
                    access(*op)
                elif op[0] == "fload":
                    b.fld(f, dbls, 8 * op[1])
                elif op[0] == "fstore":
                    b.fsd(f, dbls, 8 * op[1])
                elif op[0] == "locked":
                    b.li(sync, _LOCKS + 16 * op[1])
                    b.lock(sync)
                    b.lw(tmp, words, 4 * op[2])
                    b.add(tmp, tmp, val)
                    b.sw(tmp, words, 4 * op[2])
                    b.unlock(sync)
                elif op[0] == "wait" and tid:
                    event(k, b.evwait)
            b.li(sync, _BARRIER)
            b.barrier(sync)
        programs.append(b.build())
    return programs


def _both_engines(programs, **config):
    """Run ``programs`` on both engines, every CPU traced and recorded;
    asserts every output is identical and returns the compiled side's
    ``(result, log)``."""
    runs = []
    for compiled in (True, False):
        recorder = ExecutionRecorder()
        cfg = MultiprocessorConfig(
            n_cpus=len(programs), trace_cpus=tuple(range(len(programs))),
            record_sync_schedule=True, **config,
        )
        result = TangoExecutor(
            programs, cfg, SharedMemory(), compiled=compiled,
            recorder=recorder,
        ).run()
        runs.append((result, recorder.log()))
    (fast, fast_log), (ref, ref_log) = runs
    assert fast.stats == ref.stats
    for cpu in range(len(programs)):
        assert fast.trace(cpu) == ref.trace(cpu), cpu
    assert fast_log.events == ref_log.events
    assert fast_log.coherence == ref_log.coherence
    assert fast.memory.words == ref.memory.words
    assert fast.memory.doubles == ref.memory.doubles
    assert (fast.sync_schedule.summary()
            == ref.sync_schedule.summary())
    return fast, fast_log


class TestRunAheadScheduler:
    """The compiled engine orders only shared instructions and runs
    private code ahead; it must reproduce the reference engine's
    per-instruction schedule exactly, including its quirks (see the
    rules in :mod:`repro.tango.executor`)."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(shared_programs())
    def test_generated_programs_match_reference(self, drawn):
        spec, sets, config = drawn
        _both_engines(_build_shared(spec, sets), **config)

    @pytest.mark.parametrize("k", (1, 5, 16, 40))
    def test_lockstep_loop_with_a_load_every_k(self, k):
        """Rule (c): 16 threads in one ALU loop — in pairs a cycle
        apart, threads 0 and 15 alone — start every cycle together;
        across the private stretches ownership alternates between the
        two highest tids, and decides which of a pair goes first when
        its loads and stores coincide."""
        programs = []
        for tid in range(16):
            b = AsmBuilder(f"t{tid}")
            src, dst, x, i = (b.ireg() for _ in range(4))
            b.li(src, _WORDS + 16 * (tid % 4))
            b.li(dst, _WORDS + 0x100 + 16 * tid)
            for _ in range((tid + 1) // 2):
                b.addi(x, x, 1)
            with b.for_range(i, 0, 40):
                for _ in range(k):
                    b.addi(x, x, 1)
                b.lw(x, src, 0)
                b.sw(x, dst, 0)
            programs.append(b.build())
        _both_engines(programs)

    def _race(self, lead):
        """Thread 1 misses at cycle 1 (its stall ends at 52); thread 0
        runs ``lead`` private instructions; both then store to one
        word.  Returns who stored last."""
        b0, b1 = AsmBuilder("t0"), AsmBuilder("t1")
        for tid, b in enumerate((b0, b1)):
            base, x = b.ireg(), b.ireg()
            b.li(base, _WORDS)
            if tid:
                b.lw(x, base, 16)
            else:
                for _ in range(lead):
                    b.addi(x, x, 1)
            b.li(x, tid + 1)
            b.sw(x, base, 0)
        result, _ = _both_engines([b0.build(), b1.build()])
        return result.memory.read_word(_WORDS) - 1

    def test_miss_ending_at_the_others_next_start(self):
        """Rule (b): at a tie the owner goes first — and a thread keeps
        ownership across a miss only if its stall ends by the others'
        next start."""
        last = {lead: self._race(lead) for lead in range(47, 54)}
        assert set(last.values()) == {0, 1}, last

    def test_barrier_last_arriver_runs_past_the_woken(self):
        """Rule (d): the last arriver at a barrier runs on until it
        blocks, past the clocks of the threads it woke — time moves
        backwards (ROADMAP item 2), so its later store is overwritten
        by their earlier ones."""
        programs = []
        for tid in range(4):
            b = AsmBuilder(f"t{tid}")
            base, bar, x, i = b.ireg(), b.ireg(), b.ireg(), b.ireg()
            b.li(base, _WORDS)
            b.li(bar, _BARRIER)
            b.li(x, tid + 1)
            if tid == 3:
                with b.for_range(i, 0, 20):
                    b.addi(x, x, 0)
            b.barrier(bar)
            if tid == 3:
                with b.for_range(i, 0, 30):
                    b.addi(x, x, 0)
            b.sw(x, base, 0)
            b.barrier(bar)
            programs.append(b.build())
        result, log = _both_engines(programs)
        stores = [e.tid for e in log.events if e.addr == _WORDS]
        assert stores[0] == 3 and result.memory.read_word(_WORDS) != 4

    def test_lock_handoff_while_the_others_miss(self):
        """Rule (d): an unlock wakes the waiter while every other thread
        is stalled on a miss; the releaser runs on to its old limit (the
        first stall's end) before the woken thread starts."""
        programs = []
        for tid in range(4):
            b = AsmBuilder(f"t{tid}")
            base, lock, x, i = b.ireg(), b.ireg(), b.ireg(), b.ireg()
            b.li(base, _WORDS)
            b.li(lock, _LOCKS)
            b.li(x, tid + 1)
            if tid == 0:
                b.lock(lock)
                with b.for_range(i, 0, 6):
                    b.addi(x, x, 0)
                b.unlock(lock)
                for _ in range(8):
                    b.addi(x, x, 0)
                b.sw(x, base, 0)
            elif tid == 1:
                b.addi(x, x, 0)
                b.lock(lock)
                b.sw(x, base, 0)
                b.unlock(lock)
            else:
                for _ in range(12 + 2 * tid):
                    b.addi(i, i, 1)
                b.lw(i, base, 16 * tid)
            programs.append(b.build())
        result, log = _both_engines(programs, sync_access_latency=2)
        stores = [e.tid for e in log.events if e.addr == _WORDS]
        assert stores == [0, 1] and result.memory.read_word(_WORDS) == 2

    def test_private_spin_hits_the_step_limit(self):
        spin, done = AsmBuilder("spin"), AsmBuilder("done")
        i = spin.ireg()
        spin.label("top")
        spin.addi(i, i, 1)
        spin.branch("ge", i, spin.zero, "top")
        done.halt()
        config = MultiprocessorConfig(n_cpus=2, max_instructions=5_000)
        for compiled in (True, False):
            with pytest.raises(StepLimitExceeded):
                TangoExecutor(
                    [spin.build(), done.build()], config, compiled=compiled
                ).run()

    @pytest.mark.parametrize("fault, pc", (("type", 4), ("misaligned", 5)))
    def test_fault_inside_a_block_names_thread_and_pc(self, fault, pc):
        messages = []
        for compiled in (True, False):
            ok, bad = AsmBuilder("ok"), AsmBuilder("bad")
            ok.halt()
            base, x, y = bad.ireg(), bad.ireg(), bad.ireg()
            f = bad.freg()
            bad.li(base, _WORDS)
            bad.lw(x, base, 0)
            bad.addi(y, x, 2)
            bad.fli(f, 1.5)
            if fault == "type":
                bad.sll(y, y, f)     # int << float
            else:
                bad.addi(base, base, 2)
                bad.sw(y, base, 0)   # misaligned, after private code
            bad.addi(y, y, 1)
            config = MultiprocessorConfig(n_cpus=2)
            with pytest.raises((ExecutionError, MemoryError_)) as exc:
                TangoExecutor(
                    [ok.build(), bad.build()], config, compiled=compiled
                ).run()
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert "thread 1" in messages[0] and f"pc {pc}" in messages[0]


class TestParallelFanOut:
    """`--jobs N` changes wall time only, never results."""

    @pytest.fixture()
    def cache_dir(self, tmp_path):
        return tmp_path / "traces"

    def test_parallel_generation_matches_serial(self, cache_dir):
        parallel = TraceStore(preset="tiny", cache_dir=cache_dir)
        runs_par = generate_traces(parallel, jobs=2)
        serial = TraceStore(preset="tiny", cache_dir=None)
        runs_ser = generate_traces(serial, jobs=1)
        for par, ser in zip(runs_par, runs_ser):
            assert par.app == ser.app
            assert par.trace == ser.trace
            assert par.stats == ser.stats
            assert par.base == ser.base

    def test_parallel_sims_match_serial(self, cache_dir):
        store = TraceStore(preset="tiny", cache_dir=cache_dir)
        configs = figure3_configs()
        par = simulate_app_models(store, configs, jobs=2)
        ser = simulate_app_models(store, configs, jobs=1)
        assert list(par) == list(ser)
        assert par == ser
        # Single-app fan-out chunks the config list instead.
        one_par = simulate_app_models(
            store, configs, apps=("lu",), jobs=3
        )
        one_ser = simulate_app_models(
            store, configs, apps=("lu",), jobs=1
        )
        assert one_par == one_ser

    def test_cli_jobs_output_identical(self, cache_dir, capsys):
        argv = ["--preset", "tiny", "--cache-dir", str(cache_dir)]
        main(argv + ["figure3", "--jobs", "2"])
        first = capsys.readouterr().out
        main(argv + ["figure3", "--jobs", "2"])
        second = capsys.readouterr().out
        main(argv + ["figure3"])
        serial = capsys.readouterr().out
        assert first == second == serial


class TestProbeByteIdentity:
    """An attached `repro.obs.Probe` only observes — every simulated
    result must be byte-identical with instrumentation on or off."""

    @staticmethod
    def _probe():
        return Probe(metrics=MetricsRegistry(), tracer=ChromeTracer())

    @pytest.mark.parametrize("network", ("ideal", "mesh"))
    def test_executor_results_unchanged(self, network):
        probe = self._probe()
        instrumented = _run("lu", compiled=True, network=network,
                            probe=probe)
        bare = _run("lu", compiled=True, network=network)
        assert instrumented.stats == bare.stats
        for cpu in (0, 1):
            assert instrumented.trace(cpu) == bare.trace(cpu)
        # ... and the probe actually saw the run.
        assert probe.metrics.counter("cache.total.reads").value > 0
        assert len(probe.tracer) > 0

    @pytest.mark.parametrize("network", ("ideal", "mesh"))
    @pytest.mark.parametrize("kind", ("base", "ssbr", "ss", "ds"))
    def test_model_breakdowns_unchanged(self, kind, network):
        trace = _run("lu", compiled=True).trace(0)
        config = ProcessorConfig(kind=kind, model="RC", window=64)

        def breakdown(probe):
            net = build_network(network, 8, 16)
            return simulate(trace, config, network=net, probe=probe)

        assert breakdown(self._probe()) == breakdown(None)


@pytest.fixture(scope="module")
def lu_trace():
    """One real tiny-preset trace, shared by the differential tests."""
    return _run("lu", compiled=True).trace(0)


class TestStaticFastEngines:
    """`static_fast` batch kernels vs. the scalar BASE/SSBR/SS models."""

    def test_base_matches_scalar(self, lu_trace):
        assert simulate(lu_trace, BASE) == simulate_base(lu_trace)

    @pytest.mark.parametrize("model_name", MODELS)
    @pytest.mark.parametrize("network", ("ideal", "mesh"))
    def test_ssbr_ss_match_scalar(self, lu_trace, model_name, network):
        model = get_model(model_name)

        def net():
            return (None if network == "ideal"
                    else build_network("mesh", 16, 16))

        ssbr = ProcessorConfig(kind="ssbr", model=model_name)
        ss = ProcessorConfig(kind="ss", model=model_name)
        assert (simulate(lu_trace, ssbr, network=net())
                == simulate_ssbr(lu_trace, model, network=net()))
        assert (simulate(lu_trace, ss, network=net())
                == simulate_ss(lu_trace, model, network=net()))


# -- one program per precondition of the DS streak's proofs -------------
#
# The streak commits a cycle without the phase machinery only when it can
# prove what the general loop would do: a hit load issues at t+1, a clean
# store retiring now issues at t+1, a non-memory op issues at t+1.  Each
# program below puts one way of breaking such a proof inside a running
# streak; a proof that forgot the case changes some request or cycle.


def _streaming(tb: TraceBuilder) -> None:
    """A miss at the head while the window fills behind it: from then on
    the streak retires a row a cycle with the window full of rows."""
    tb.load(addr=0x8000, stall=60)
    alu_block(tb, 70)


def _behind(blocker) -> TraceBuilder:
    """Hit loads decoded while ``blocker`` — an access the model orders
    before them — is still in flight, one repetition at a time.  The
    miss queued behind them issues the cycle after the hit does."""
    tb = TraceBuilder()
    _streaming(tb)
    for gap in (1, 2, 3, 1, 2, 3):
        blocker(tb)
        alu_block(tb, gap)
        tb.load(rd=3, addr=0x1000)
        tb.alu(rd=4, rs1=3)
        tb.load(rd=5, addr=0x3100, stall=20)
        alu_block(tb, 40)
    return tb


def _hit_load_behind_acquire() -> TraceBuilder:
    # RC orders an acquire before every later access.
    return _behind(lambda tb: tb.acquire(addr=0x2000, stall=60))


def _hit_load_behind_read() -> TraceBuilder:
    # SC orders every earlier read before a read.
    return _behind(lambda tb: tb.load(rd=2, addr=0x3000, stall=60))


def _forwarding_load() -> TraceBuilder:
    # A load finding an unperformed older store to its address takes one
    # cycle whatever its own stall; a miss that finds none does not.
    tb = TraceBuilder()
    _streaming(tb)
    for k in range(6):
        tb.store(addr=0x1000, stall=30)
        alu_block(tb, k % 3)
        tb.load(rd=3, addr=0x1000)
        tb.load(rd=4, addr=0x1000, stall=25)
        tb.load(rd=5, addr=0x1080 + 16 * k, stall=25)
        tb.alu(rd=6, rs1=4, rs2=5)
        alu_block(tb, 8)
    return tb


def _port_contention() -> TraceBuilder:
    # Stores retire while loads decode: both want the next port cycle.
    tb = TraceBuilder()
    _streaming(tb)
    for k in range(12):
        tb.store(addr=0x1000 + 16 * (k % 4))
        alu_block(tb, k % 3)
        tb.load(rd=3, addr=0x1100)
        tb.load(rd=4, addr=0x1110)
        tb.alu(rd=5, rs1=3, rs2=4)
        tb.store(addr=0x1200, stall=15 * (k % 2))
    return tb


def _full_store_buffer() -> TraceBuilder:
    # A missing store at the buffer head keeps two-entry buffers full
    # while clean stores behind it retire.
    tb = TraceBuilder()
    _streaming(tb)
    for k in range(6):
        tb.store(addr=0x4000 + 16 * k, stall=25)
        for j in range(4):
            tb.store(addr=0x1000 + 16 * j)
            alu_block(tb, k % 2)
        tb.release(addr=0x2000, stall=0)
        tb.load(rd=3, addr=0x1100)
        alu_block(tb, 6)
    return tb


def _hit_load_after_mispredict() -> TraceBuilder:
    # Each taken branch lands on a fresh pc the BTB has never seen.
    tb = TraceBuilder()
    _streaming(tb)
    for k in range(8):
        alu_block(tb, k % 3)
        tb.branch(taken=True)
        tb.load(rd=3, addr=0x1000)
        tb.alu(rd=4, rs1=3)
        alu_block(tb, 4)
    return tb


def _hit_load_beside_deferred_load() -> TraceBuilder:
    # A load whose address waits on a miss wakes as the miss returns;
    # a younger hit decoded just before must not have taken that cycle.
    tb = TraceBuilder()
    _streaming(tb)
    for k in range(16):
        tb.load(rd=2, addr=0x5000 + 16 * k, stall=12)
        tb.load(rd=3, rs1=2, addr=0x1000, stall=15)
        alu_block(tb, k)
        tb.load(rd=4, addr=0x1100)
        alu_block(tb, 40)
    return tb


def _clean_store_behind_pending_store() -> TraceBuilder:
    # PC and SC order earlier writes before a write: a clean store
    # retiring behind a missing one waits for it, and so does the miss
    # behind both.
    tb = TraceBuilder()
    _streaming(tb)
    for k in range(6):
        tb.store(addr=0x4000 + 16 * k, stall=15)
        tb.alu()
        tb.store(addr=0x1000)
        alu_block(tb, k % 3)
        tb.store(addr=0x1010, stall=10)
        alu_block(tb, 40)
    return tb


def _speculation_and_prefetch() -> TraceBuilder:
    tb = TraceBuilder()
    _streaming(tb)
    for k in range(6):
        tb.acquire(addr=0x2000, stall=30)
        tb.load(rd=3, addr=0x1000)
        tb.load(rd=4, addr=0x1100 + 16 * k, stall=20)
        alu_block(tb, k % 3)
        tb.acquire(addr=0x2100, stall=5)
        tb.store(addr=0x1200)
        tb.load(rd=5, addr=0x1000)
        tb.barrier(addr=0x3000, stall=10)
        alu_block(tb, 40)
        tb.load(rd=6, addr=0x1300 + 16 * k, stall=20)
        alu_block(tb, 4)
    return tb


_STREAK_PROGRAMS = {
    "hit_load_behind_acquire_rc": (_hit_load_behind_acquire, ("RC",), {}),
    "hit_load_behind_read_sc": (_hit_load_behind_read, ("SC",), {}),
    "forwarding_load": (_forwarding_load, ("RC", "WO"), {}),
    "port_contention": (_port_contention, ("RC", "PC"), {}),
    "full_store_buffer": (
        _full_store_buffer, ("RC",), {"store_buffer_depth": 2},
    ),
    "hit_load_after_mispredict": (_hit_load_after_mispredict, ("RC",), {}),
    "hit_load_beside_deferred_load": (
        _hit_load_beside_deferred_load, ("RC",), {},
    ),
    "clean_store_behind_pending_store": (
        _clean_store_behind_pending_store, ("PC", "SC"), {},
    ),
    "speculative_loads": (
        _speculation_and_prefetch, MODELS, {"speculative_loads": True},
    ),
    "prefetch": (_speculation_and_prefetch, MODELS, {"prefetch": True}),
}


@contextmanager
def _deadline(seconds: float):
    """Fail instead of spinning: a proof that loses an access leaves it
    unperformed, and the cycle loop then never ends."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _trace_latency(req) -> int:
    return req.stall


def _ds_agrees(trace, model_name: str, config: DSConfig) -> None:
    """The DS engine and its oracle make every request alike and return
    the same breakdown: replayed with each miss taking its trace latency
    (where a program can line events up) or a scattered one, and under
    live sync."""
    model = get_model(model_name)
    for live, miss_answer in (
        (False, _trace_latency), (False, None), (True, None),
    ):
        kw = {"miss_answer": miss_answer} if miss_answer else {}
        with _deadline(20):
            fast = record(
                ds_fast_stepper(trace, model, config, live_sync=live),
                live=live, pending_ok=True, **kw,
            )
        ref = record(
            DSProcessor(trace, model, config).steps(live_sync=live),
            live=live, pending_ok=True, **kw,
        )
        assert fast == ref, (model_name, config, live, miss_answer)


class TestDSEventEngine:
    """The event-driven DS engine vs. the per-cycle scalar oracle."""

    @pytest.mark.parametrize("model_name", MODELS)
    @pytest.mark.parametrize("network", ("ideal", "mesh"))
    def test_matches_scalar_oracle(self, lu_trace, model_name, network):
        model = get_model(model_name)
        for kw in (
            dict(window=16),
            dict(window=64),
            dict(window=256),
            dict(window=64, prefetch=True),
            dict(window=64, speculative_loads=True),
            dict(window=64, perfect_branch_prediction=True),
            dict(window=64, ignore_data_dependences=True),
            dict(window=32, issue_width=4),
            dict(window=64, store_buffer_depth=4),
        ):
            def net():
                return (None if network == "ideal"
                        else build_network("mesh", 16, 16))

            config = model_config("ds", model, **kw)
            ref = _ds_oracle(lu_trace, config, network=net())
            fast = simulate(lu_trace, config, network=net())
            assert fast == ref, kw

    @pytest.mark.parametrize("network", ("ideal", "mesh"))
    def test_probe_stream_matches_scalar(self, lu_trace, network):
        """Instrumented runs agree on everything the probe records:
        occupancy histograms, retire spans (deferred without a network,
        interleaved with miss spans behind one), and the breakdown."""
        config = model_config("ds", window=64)

        def run(fn):
            net = (None if network == "ideal"
                   else build_network("mesh", 16, 16))
            probe = Probe(metrics=MetricsRegistry(), tracer=ChromeTracer())
            if net is not None:
                net.attach_probe(probe)
            breakdown = fn(lu_trace, config, probe=probe, network=net)
            return breakdown, probe

        ref_bd, ref_probe = run(_ds_oracle)
        ref_probe.publish_breakdown(ref_bd)  # as simulate() does
        fast_bd, fast_probe = run(simulate)
        assert fast_bd == ref_bd
        assert (fast_probe.metrics.snapshot()
                == ref_probe.metrics.snapshot())
        assert fast_probe.tracer.events == ref_probe.tracer.events
        assert fast_probe.span_budget == ref_probe.span_budget

    @pytest.mark.parametrize("name", sorted(_STREAK_PROGRAMS))
    def test_streak_precondition(self, name):
        build, models, extra = _STREAK_PROGRAMS[name]
        trace = build().build()
        for model_name in models:
            for window in (8, 32):
                _ds_agrees(trace, model_name, DSConfig(window=window, **extra))

    @pytest.mark.parametrize("model_name", MODELS)
    def test_port_candidates_are_ready(self, lu_trace, model_name):
        """What the O(1) port rests on, checked at every visit of the
        stepper's port phase: every queued row is ready (it joined at or
        before this cycle, so only each class heap's head can win), and
        a port claimed by a proven access has no other candidate."""
        lines, first = inspect.getsourcelines(ds_fast_stepper)
        k = next(
            k for k, line in enumerate(lines)
            if "# Phase 2b: the memory port" in line
        )
        while lines[k].strip().startswith("#"):
            k += 1
        port_line = first + k
        code = ds_fast_stepper.__code__
        seen = {"visits": 0, "claims": 0}

        def at_line(frame, event, arg):
            if event == "line" and frame.f_lineno == port_line:
                f = frame.f_locals
                t, ready_t = f["t"], f["ready_t"]
                for heap in f["ready_heaps"]:
                    assert all(ready_t[i] <= t for i in heap), t
                if f["port_gen"] == t:
                    assert f["ready_mask"] <= f["fu_bits"], t
                    assert f["store_scan"] >= f["sb_tail"], t
                    seen["claims"] += 1
                seen["visits"] += 1
            return at_line

        def on_call(frame, event, arg):
            return at_line if frame.f_code is code else None

        model = get_model(model_name)
        for window in (16, 64):
            config = model_config("ds", model, window=window)
            previous = sys.gettrace()
            sys.settrace(on_call)
            try:
                fast = simulate(lu_trace, config)
            finally:
                sys.settrace(previous)
            assert fast == _ds_oracle(lu_trace, config)
        assert seen["visits"] > 1000
        if model_name in ("WO", "RC"):
            assert seen["claims"] > 0

    def test_miss_stats_match_scalar(self, lu_trace):
        """`collect_miss_stats`: the issue delay of every read miss, in
        issue order, as the oracle records them on its processor."""
        config = model_config(
            "ds", window=64, perfect_branch_prediction=True,
            collect_miss_stats=True,
        )
        oracle = DSProcessor(lu_trace, get_model("RC"), config.ds_config())
        ref = oracle.run(label=config.label())
        fast = simulate(lu_trace, config)
        delays = fast.extras.pop("read_miss_issue_delays")
        assert delays == oracle.read_miss_issue_delays
        assert len(delays) == lu_trace.read_misses() > 0
        assert fast == ref


def _raise_oracle(*args, **kwargs):
    raise AssertionError("the product executed a scalar oracle")


class TestEngineSelection:
    """One engine runs; its scalar oracle is only ever a reference."""

    @pytest.mark.parametrize("kind", ("base", "ssbr", "ss", "ds"))
    def test_reference_engine_equivalent(self, lu_trace, kind):
        config = ProcessorConfig(kind=kind, model="WO", window=64)
        assert simulate(lu_trace, config) == drive(
            reference_stepper(lu_trace, config), cpu=lu_trace.cpu
        )

    def test_unknown_engine_rejected(self, lu_trace):
        # There is no engine to name any more: the word is an unknown
        # field wherever a configuration comes in from outside.
        with pytest.raises(TypeError, match="engine"):
            ProcessorConfig(engine="reference")
        with pytest.raises(ValueError, match="engine"):
            sweep_from_request({"apps": ["lu"], "engine": "fast"})
        with pytest.raises(ValueError, match="engine"):
            sweep_from_request(
                {"jobs": [{"app": "lu", "engine": "fast"}]}
            )
        # Standalone and co-simulated runs share one dispatch: neither
        # may fall back to some kind the caller did not name.
        for run in (simulate, build_node):
            with pytest.raises(ValueError, match="kind"):
                run(lu_trace, ProcessorConfig(kind="vliw"))

    def test_product_imports_nothing_from_tests(self):
        """Imports run from the tests to the product only: loading every
        `repro` module, with `tests/` importable, loads nothing from it."""
        import oracles
        import repro

        tests_dir = Path(oracles.__file__).resolve().parents[1]
        src_dir = Path(repro.__file__).resolve().parents[1]
        script = (
            "import importlib, pkgutil, sys\n"
            "from pathlib import Path\n"
            "import repro\n"
            "names = [m.name for m in pkgutil.walk_packages(\n"
            "    repro.__path__, 'repro.') if m.name != 'repro.__main__']\n"
            "for name in names:\n"
            "    importlib.import_module(name)\n"
            "tests = Path(sys.argv[1])\n"
            "print(len(names))\n"
            "for name, module in sorted(sys.modules.items()):\n"
            "    path = getattr(module, '__file__', None)\n"
            "    if path and Path(path).resolve().is_relative_to(tests):\n"
            "        print(name)\n"
        )
        env = dict(
            os.environ, PYTHONPATH=os.pathsep.join(
                [str(src_dir), str(tests_dir)]
            )
        )
        out = subprocess.run(
            [sys.executable, "-c", script, str(tests_dir)],
            env=env, capture_output=True, text=True, check=True,
        ).stdout.split()
        assert int(out[0]) > 50  # the walk reached the whole package
        assert out[1:] == []

    def test_product_never_executes_an_oracle(self, monkeypatch, tmp_path):
        """With every scalar stepper booby-trapped, each product surface
        still runs: standalone (probed or not), co-simulated (replayed
        and live sync), `profile`, and experiments E10 and E12."""
        from oracles import base, ds, static

        # Swap the code, not the module attribute, so a reference
        # imported by name anywhere is trapped as well.
        for oracle in (
            base.base_stepper, static.ssbr_stepper, static.ss_stepper
        ):
            monkeypatch.setattr(oracle, "__code__", _raise_oracle.__code__)
        monkeypatch.setattr(ds.DSProcessor, "steps", _raise_oracle)

        store = TraceStore(
            n_procs=4, preset="tiny", cache_dir=tmp_path / "traces"
        )
        trace = store.get("lu").trace
        crun = store.get_cosim("lu")
        with pytest.raises(AssertionError, match="oracle"):
            base.simulate_base(trace)  # the traps are live
        for kind in ("base", "ssbr", "ss", "ds"):
            config = ProcessorConfig(kind=kind, model="SC", window=16)
            probe = Probe(metrics=MetricsRegistry(), tracer=ChromeTracer())
            assert simulate(trace, config) == simulate(
                trace, config, probe=probe
            )
            for sync_mode in ("replay", "live"):
                result = run_cosim(
                    crun, config, network_kind="mesh",
                    line_size=store.line_size, sync_mode=sync_mode,
                )
                assert all(c > 0 for c in result.cycles())
        for kind in ("ss", "ds"):
            profile = run_profile(
                "lu", store, kind=kind, out_dir=tmp_path / "profiles"
            )
            assert profile.ok, profile.errors
        assert all(r.issue_delays for r in run_miss_analysis(store))
        assert len(run_sc_boost(store, apps=("lu",))["lu"]) == 6


@st.composite
def small_traces(draw):
    """Random short traces mixing every memory class and sync episodes."""
    tb = TraceBuilder()
    regs = st.integers(-1, 5)
    stalls = st.sampled_from((0, 0, 0, 1, 5, 18, 50))
    addrs = st.builds(lambda k: 0x1000 + 16 * k, st.integers(0, 7))
    n = draw(st.integers(1, 30))
    for _ in range(n):
        kind = draw(st.sampled_from((
            "alu", "alu", "fp", "load", "load", "store", "branch",
            "acquire", "release", "barrier",
        )))
        if kind == "alu":
            tb.alu(rd=draw(regs), rs1=draw(regs), rs2=draw(regs))
        elif kind == "fp":
            tb.fp(rd=draw(regs), rs1=draw(regs), rs2=draw(regs))
        elif kind == "load":
            tb.load(rd=draw(regs), rs1=draw(regs), addr=draw(addrs),
                    stall=draw(stalls))
        elif kind == "store":
            tb.store(rs2=draw(regs), rs1=draw(regs), addr=draw(addrs),
                     stall=draw(stalls))
        elif kind == "branch":
            tb.branch(taken=draw(st.booleans()), rs1=draw(regs),
                      rs2=draw(regs))
        elif kind == "acquire":
            tb.acquire(addr=draw(addrs), stall=draw(stalls),
                       wait=draw(st.sampled_from((0, 0, 2, 9))))
        elif kind == "release":
            tb.release(addr=draw(addrs), stall=draw(stalls))
        else:
            tb.barrier(addr=draw(addrs), stall=draw(stalls),
                       wait=draw(st.sampled_from((0, 0, 4))))
    return tb.build()


def _stepper_configs():
    yield ProcessorConfig(kind="base")
    for name in MODELS:
        for kind in ("ssbr", "ss", "ds"):
            yield ProcessorConfig(kind=kind, model=name, window=16)


class TestStepperContract:
    """What co-simulation rests on: whatever answers it is given, a
    fast stepper makes exactly the requests of its scalar oracle —
    every miss, acquire and release, every field, at the same cycle, in
    the same order — and returns the same breakdown.  Sync is answered
    from the trace (replay) and from a seeded function that mixes
    zeros, positive waits and, for DS, runs of PENDING (live)."""

    @staticmethod
    def check(trace, config, coupled):
        pending_ok = config.kind == "ds"
        for live in (False, True):
            fast, ref = (
                record(
                    build(trace, config, coupled=coupled, live_sync=live),
                    live=live, pending_ok=pending_ok,
                )
                for build in (make_stepper, reference_stepper)
            )
            assert fast == ref, (config.label(), coupled, live)
        return fast

    @pytest.mark.parametrize("coupled", (False, True))
    @pytest.mark.parametrize(
        "config", _stepper_configs(), ids=ProcessorConfig.label
    )
    def test_same_requests_as_scalar_stepper(
        self, lu_trace, config, coupled
    ):
        requests, _ = self.check(lu_trace, config, coupled)
        kinds = {req[0] for req in requests}
        # The tiny LU trace misses, synchronizes and releases.
        assert kinds == {"MemRequest", "SyncRequest", "ReleaseNotify"}
        if config.kind == "ds":
            # ... and the live driver did make the DS model re-query.
            asked = [req[1:3] for req in requests if req[0] == "SyncRequest"]
            assert len(asked) > len(set(asked))

    @given(trace=small_traces())
    @settings(max_examples=40, deadline=None)
    def test_same_requests_on_arbitrary_traces(self, trace):
        for config in _stepper_configs():
            for coupled in (False, True):
                self.check(trace, config, coupled)

    @pytest.mark.parametrize("live", (False, True), ids=("replay", "live"))
    @pytest.mark.parametrize("coupled", (False, True))
    @pytest.mark.parametrize(
        "config",
        [
            ProcessorConfig(kind="ssbr", model="PC"),
            ProcessorConfig(kind="ss", model="SC"),
            ProcessorConfig(kind="ss", model="RC"),
            ProcessorConfig(kind="ds", model="RC", window=16),
        ],
        ids=ProcessorConfig.label,
    )
    def test_probes_record_the_same(self, lu_trace, config, coupled, live):
        """Instrumented, the two sides also leave the same histogram
        snapshots, the same tracer events and the same span budget."""
        def observe(build):
            probe = Probe(
                metrics=MetricsRegistry(), tracer=ChromeTracer(),
                span_limit=2_000,
            )
            stepper = build(
                lu_trace, config, coupled=coupled, live_sync=live,
                probe=probe,
            )
            outcome = record(
                stepper, live=live, pending_ok=config.kind == "ds"
            )
            return (
                outcome, probe.metrics.snapshot(), probe.tracer.events,
                probe.span_budget,
            )

        fast, ref = observe(make_stepper), observe(reference_stepper)
        assert fast == ref
        assert any(h["count"] for h in fast[1]["histograms"].values())


class TestFastpathFuzz:
    """Property-based differential: on arbitrary small traces, every
    fast engine must agree with its scalar oracle, for every model."""

    @given(trace=small_traces())
    @settings(max_examples=60, deadline=None)
    def test_all_models_match_scalar(self, trace):
        assert simulate(trace, BASE) == simulate_base(trace)
        for name in MODELS:
            model = get_model(name)
            ssbr = ProcessorConfig(kind="ssbr", model=name)
            ss = ProcessorConfig(kind="ss", model=name)
            assert simulate(trace, ssbr) == simulate_ssbr(trace, model)
            assert simulate(trace, ss) == simulate_ss(trace, model)
            for kw in (
                dict(window=4),
                dict(window=16, issue_width=2),
                dict(window=8, store_buffer_depth=2),
                dict(window=64, speculative_loads=True),
                dict(window=32, prefetch=True),
            ):
                config = model_config("ds", model, **kw)
                fast = simulate(trace, config)
                assert fast == _ds_oracle(trace, config), (name, kw)


class TestTraceRoundTrip:
    """Trace pickling is byte-stable and the zero-copy views survive."""

    def test_pickle_round_trip_byte_identity(self, lu_trace):
        blob = pickle.dumps(lu_trace, protocol=pickle.HIGHEST_PROTOCOL)
        clone = pickle.loads(blob)
        assert clone == lu_trace
        reblob = pickle.dumps(clone, protocol=pickle.HIGHEST_PROTOCOL)
        assert reblob == blob
        for ours, theirs in zip(lu_trace.np_columns(), clone.np_columns()):
            assert ours.dtype == theirs.dtype
            assert np.array_equal(ours, theirs)

    def test_fastpath_cache_never_pickled(self, lu_trace):
        # Populate the derived-index cache, then make sure the pickle
        # neither carries it nor resurrects it.
        simulate(lu_trace, ProcessorConfig(kind="ds", window=16))
        assert lu_trace.fastpath_cache is not None
        state = lu_trace.__getstate__()
        assert set(state) == {"version", "cpu", "columns"}
        clone = pickle.loads(pickle.dumps(lu_trace))
        assert clone.fastpath_cache is None


class TestCacheVersioning:
    """Trace pickles carry their schema + simulation parameters."""

    def test_key_covers_all_parameters(self, tmp_path):
        base = TraceStore(preset="tiny", cache_dir=tmp_path)
        assert f"_v{TRACE_FORMAT_VERSION}_" in base._cache_path("lu").name
        variants = [
            TraceStore(preset="tiny", cache_dir=tmp_path, line_size=32),
            TraceStore(preset="tiny", cache_dir=tmp_path,
                       sync_access_latency=25),
            TraceStore(preset="tiny", cache_dir=tmp_path, miss_penalty=100),
            TraceStore(preset="tiny", cache_dir=tmp_path,
                       cache_size=128 * 1024),
            TraceStore(preset="default", cache_dir=tmp_path),
            TraceStore(preset="tiny", cache_dir=tmp_path, n_procs=8),
            TraceStore(preset="tiny", cache_dir=tmp_path, trace_cpu=1),
        ]
        paths = {s._cache_path("lu") for s in [base, *variants]}
        assert len(paths) == len(variants) + 1

    def test_corrupt_pickle_regenerates(self, tmp_path):
        store = TraceStore(preset="tiny", cache_dir=tmp_path)
        run = store.get("lu")
        path = store._cache_path("lu")
        path.write_bytes(b"not a pickle")
        fresh = TraceStore(preset="tiny", cache_dir=tmp_path)
        reloaded = fresh.get("lu")
        assert reloaded.trace == run.trace
        # The bad file was replaced with a good one.
        third = TraceStore(preset="tiny", cache_dir=tmp_path)
        assert third.get("lu").trace == run.trace
