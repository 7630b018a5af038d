"""The multiprocessor trace generator (the repo's Tango Lite equivalent).

Runs P thread programs on a simulated shared-memory multiprocessor and
produces, for each traced processor, a dynamic instruction trace annotated
with effective addresses, memory latencies, and synchronization stall
times — the input the trace-driven processor simulators consume.

Architecture modelled (paper §3.2):

* P in-order processors with blocking reads; writes go to a write buffer
  and their latency is hidden (the host runs release consistency), but the
  write's *miss penalty* is still recorded in the trace for the downstream
  processor models;
* per-processor direct-mapped write-back caches, invalidation coherence,
  1-cycle hits, and a fixed miss penalty with no network contention by
  default (``network="ideal"``); with ``network="crossbar"``/``"mesh"``
  the :mod:`repro.net` subsystem times each miss through a contended
  interconnect and directory instead, and the variable latencies land
  in the traces' ``stall`` column;
* ANL-macro synchronization handled by :class:`~repro.sync.SyncManager`.

Scheduling uses per-thread virtual time.  The reference engine keeps a
heap of ``(clock, tid)``: it pops the smallest, reads the limit ``L`` (the
heap's new minimum) once, and runs that thread while its clock is ``<=
L``; a thread that blocks leaves the heap, a woken one is pushed back.
That is deterministic and approximates the global interleaving a real
machine would produce.

Only *shared* instructions — loads, stores, synchronization, ``HALT`` —
can observe the interleaving; private ones (ALU/FP, branches, jumps) touch
registers only and take one cycle each.  At shared-instruction
granularity the schedule above is:

(a) **start-time order**: a shared instruction runs after every
    instruction of any thread that starts earlier;
(b) **owner first**: at one start time, the thread that owns the machine
    goes first and the rest follow in tid order.  Ownership passes to the
    last thread to execute at a time point, and it keeps it into the next
    one while its own next start is no later than every other runnable
    thread's (a one-cycle instruction always qualifies; a miss only if its
    stall ends by then);
(c) **lockstep parity**: while the set ``E`` of threads running private
    code (one start every cycle) is constant, ownership alternates between
    ``E``'s two highest tids, so a stretch of any length resolves in O(1);
(d) **stale limit** (ROADMAP item 2): a thread woken during another
    thread's slice joins only when that slice ends.  The waker keeps the
    machine through its limit — unbounded when every other thread was
    blocked, as for every barrier's last arriver — after which scheduling
    restarts from the smallest next start with no owner, and time may move
    backwards.

Two execution engines produce identical results:

* the **compiled** engine (default) applies (a)-(d) directly: each
  thread runs its private code ahead to its next shared instruction in
  blocks :mod:`repro.isa.compiled` generates, and a calendar of next
  shared starts orders only the shared instructions;
* the **reference** engine (``compiled=False``) steps
  :func:`~repro.tango.interp.execute_instruction` per instruction under
  the heap above.  It is the specification the differential tests
  compare against.

Both emit trace rows the same way (see :mod:`repro.tango.trace`): a
traced thread logs the id of a row template — one per compiled block
exit, one per instruction the reference engine runs or a
synchronization completes — plus the address, stall and wait of each
shared row, and when the run ends, however it ends, :meth:`TangoExecutor.run`
expands every log into its trace's columns in one vectorised pass.
Tracing costs the run a few appends per block, not per row.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from ..isa import MemClass, Op, Program
from ..isa.compiled import (
    BLOCK_FILENAME,
    K_LOAD,
    K_STORE,
    K_SYNC,
    BlockCompiler,
    PcOutOfRange,
)
from ..mem import CoherentMemorySystem, MemoryError_, SharedMemory
from ..mem.cache import EXCLUSIVE, MODIFIED
from ..net import build_network
from ..sync import SyncManager, Wakeup
from .interp import ExecutionError, ThreadState, execute_instruction
from .stats import CpuStats, RunStats
from .trace import EmissionLog, RowTemplates, Trace

_SYNC_OPS = frozenset({
    Op.LOCK, Op.UNLOCK, Op.BARRIER, Op.EVWAIT, Op.EVSET, Op.EVCLEAR,
})
_COND_BRANCHES = frozenset({
    Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BLE, Op.BGT,
})

_MC_NONE = int(MemClass.NONE)
_MC_READ = int(MemClass.READ)
_MC_WRITE = int(MemClass.WRITE)
_MC_ACQUIRE = int(MemClass.ACQUIRE)
_MC_RELEASE = int(MemClass.RELEASE)
_MC_BARRIER = int(MemClass.BARRIER)
_OP_LW = int(Op.LW)
_OP_SW = int(Op.SW)
_INF = float("inf")


class DeadlockError(Exception):
    """All runnable threads are blocked on synchronization."""


class StepLimitExceeded(Exception):
    """The run exceeded the configured instruction budget."""


@dataclass
class MultiprocessorConfig:
    """Knobs of the simulated multiprocessor (defaults = the paper's)."""

    n_cpus: int = 16
    cache_size: int = 64 * 1024
    line_size: int = 16
    miss_penalty: int = 50
    #: Latency of touching a (remote) synchronization variable; the paper
    #: charges one memory latency.  ``None`` means "same as miss_penalty".
    sync_access_latency: int | None = None
    #: Interconnect timing backend: "ideal" (fixed miss_penalty, the
    #: paper's model), "crossbar", or "mesh" (repro.net contention).
    network: str = "ideal"
    #: Optional repro.net.NetworkConfig overriding the timing defaults.
    network_config: object | None = None
    #: Which processors get a full trace (all get statistics).
    trace_cpus: tuple[int, ...] = (0,)
    #: Record the synchronization schedule (lock handoffs, event grants,
    #: barrier episodes) as cross-processor wait edges for the
    #: co-simulation engine's live sync mode (repro.cosim).
    record_sync_schedule: bool = False
    #: Global retired-instruction budget, a runaway-program backstop.
    max_instructions: int = 100_000_000

    def __post_init__(self) -> None:
        if self.n_cpus < 1:
            raise ValueError(f"n_cpus must be at least 1, got {self.n_cpus}")
        outside = [c for c in self.trace_cpus if not 0 <= c < self.n_cpus]
        if outside:
            raise ValueError(
                f"trace_cpus {outside} outside range({self.n_cpus})"
            )

    @property
    def sync_latency(self) -> int:
        if self.sync_access_latency is None:
            return self.miss_penalty
        return self.sync_access_latency


@dataclass
class RunResult:
    """Everything a multiprocessor run produces."""

    config: MultiprocessorConfig
    traces: dict[int, Trace]
    stats: RunStats
    memory: SharedMemory
    memsys: CoherentMemorySystem
    sync: SyncManager
    #: The recorded sync schedule (config.record_sync_schedule), or None.
    sync_schedule: object | None = None

    def trace(self, cpu: int = 0) -> Trace:
        return self.traces[cpu]


class TangoExecutor:
    """Executes thread programs and generates annotated traces."""

    def __init__(
        self,
        programs: list[Program],
        config: MultiprocessorConfig | None = None,
        memory: SharedMemory | None = None,
        compiled: bool = True,
        recorder=None,
        probe=None,
    ) -> None:
        self.config = config or MultiprocessorConfig()
        if len(programs) != self.config.n_cpus:
            raise ValueError(
                f"got {len(programs)} programs for "
                f"{self.config.n_cpus} processors"
            )
        self.compiled = compiled
        self.memory = memory if memory is not None else SharedMemory()
        self.network = build_network(
            self.config.network,
            self.config.n_cpus,
            self.config.line_size,
            self.config.network_config,
        )
        self.memsys = CoherentMemorySystem(
            n_cpus=self.config.n_cpus,
            cache_size=self.config.cache_size,
            line_size=self.config.line_size,
            miss_penalty=self.config.miss_penalty,
            network=self.network,
        )
        self.sync = SyncManager(self.config.n_cpus)
        self.sync_recorder = None
        if self.config.record_sync_schedule:
            from ..sync.schedule import SyncScheduleRecorder

            self.sync_recorder = SyncScheduleRecorder(self.config.n_cpus)
        self.threads = [
            ThreadState(tid=i, program=p.seal())
            for i, p in enumerate(programs)
        ]
        self.cpu_stats = [CpuStats(cpu=i) for i in range(self.config.n_cpus)]
        self.traces = {
            cpu: Trace(cpu=cpu) for cpu in self.config.trace_cpus
        }
        # What the traces are built from (module docstring): one row
        # template table, and a log per traced thread (None if untraced).
        self.templates = RowTemplates()
        self.logs = [
            EmissionLog() if tid in self.traces else None
            for tid in range(self.config.n_cpus)
        ]
        self._single_rows: dict[tuple, int] = {}
        self._steps = 0
        # Opt-in consistency-verification hook (repro.verify): records
        # every performed load/store/sync and listens for coherence
        # events.  None keeps the hot paths untouched.
        self.recorder = recorder
        if recorder is not None:
            recorder.bind(self.config.n_cpus)
            self.memsys.attach_listener(recorder)
        # Opt-in observability hook (repro.obs): per-miss histograms and
        # coherence counters during the run, everything else published
        # after it.  Purely observational — results are byte-identical
        # with or without a probe.
        self.probe = probe if probe is not None and probe.enabled else None
        if self.probe is not None:
            self.memsys.attach_probe(self.probe)
            if self.network is not None:
                self.network.attach_probe(self.probe)

    # -- trace helpers ------------------------------------------------------

    def _emit(
        self,
        tid: int,
        pc: int,
        next_pc: int,
        mem_class: int = _MC_NONE,
        addr: int = -1,
        stall: int = 0,
        wait: int = 0,
    ) -> None:
        """Log one row of thread ``tid`` by its one-row template."""
        log = self.logs[tid]
        if log is None:
            return
        key = (tid, pc, next_pc)
        x = self._single_rows.get(key)
        if x is None:
            op, rd, rs1, rs2 = self.threads[tid].program.trace_meta[pc]
            x = self._single_rows[key] = self.templates.add(
                [(op, pc, next_pc, rd, rs1, rs2, mem_class)]
            )
        log.ids.append(x)
        if mem_class != _MC_NONE:
            log.addrs.append(addr)
            log.stalls.append(stall)
            if mem_class > _MC_WRITE:
                log.waits.append(wait)

    def _expand_logs(self) -> None:
        """Build every trace from its thread's log (module docstring)."""
        self.templates.expand(
            (log, self.traces[tid], self.threads[tid].pc)
            for tid, log in enumerate(self.logs) if log is not None
        )
        self.logs = [None] * self.config.n_cpus

    # -- synchronization completion -------------------------------------------

    def _finish_acquire(
        self,
        tid: int,
        clock: int,
        wait: int,
        op: Op,
        addr: int,
    ) -> int:
        """Complete a granted acquire-type op; returns the new clock."""
        state = self.threads[tid]
        stats = self.cpu_stats[tid]
        lat = self.config.sync_latency
        if op is Op.LOCK:
            stats.locks += 1
            mem_class = _MC_ACQUIRE
        elif op is Op.EVWAIT:
            stats.wait_events += 1
            mem_class = _MC_ACQUIRE
        else:  # BARRIER
            stats.barriers += 1
            mem_class = _MC_BARRIER
        stats.acquire_wait_cycles += wait
        stats.acquire_access_cycles += lat
        stats.busy_cycles += 1
        state.instructions_executed += 1
        if self.recorder is not None:
            self.recorder.record(tid, state.pc, int(op), mem_class, addr)
        self._emit(tid, state.pc, state.pc + 1, mem_class, addr, lat, wait)
        rec = self.sync_recorder
        if rec is not None:
            if op is Op.BARRIER:
                rec.note_barrier(tid, addr)
            else:
                rec.note_acquire(
                    tid, "lock" if op is Op.LOCK else "event", addr
                )
        state.pc += 1
        return clock + 1 + lat

    def _wake(self, wakeup: Wakeup, op: Op, addr: int, heap: list) -> None:
        """Resume a thread blocked on ``op`` at ``addr``."""
        new_clock = self._finish_acquire(
            wakeup.tid, wakeup.grant_time, wakeup.wait, op, addr
        )
        heapq.heappush(heap, (new_clock, wakeup.tid))

    def _sync_step(
        self, tid: int, clock: int, heap: list
    ) -> tuple[int, bool]:
        """Execute the sync/HALT instruction at the thread's pc.

        Returns ``(clock, blocked)``; ``blocked`` means the thread must
        not be re-queued (it halted, or a wakeup will re-queue it later).
        Shared verbatim by the compiled and reference engines.
        """
        state = self.threads[tid]
        stats = self.cpu_stats[tid]
        lat = self.config.sync_latency
        instr = state.program.instructions[state.pc]
        op = instr.op

        if op is Op.HALT:
            state.halted = True
            stats.end_time = clock
            return clock, True

        addr = state.regs[instr.rs1]
        if op is Op.LOCK:
            if self.sync.acquire_lock(addr, tid, clock):
                clock = self._finish_acquire(tid, clock, 0, op, addr)
            else:
                return clock, True
        elif op is Op.UNLOCK:
            wakeup = self.sync.release_lock(addr, tid, clock)
            stats.unlocks += 1
            stats.release_access_cycles += lat
            stats.busy_cycles += 1
            state.instructions_executed += 1
            if self.recorder is not None:
                # Recorded before the wakeup so the handed-off acquire
                # sees this release as its synchronizes-with source.
                self.recorder.record(
                    tid, state.pc, int(op), _MC_RELEASE, addr
                )
            self._emit(tid, state.pc, state.pc + 1, _MC_RELEASE, addr, lat)
            if self.sync_recorder is not None:
                # Before the wakeup, so the handed-off acquire sees this
                # unlock as its source edge.
                self.sync_recorder.note_release(tid, "lock", addr)
            state.pc += 1
            clock += 1  # release latency hidden on the host
            if wakeup is not None:
                self._wake(wakeup, Op.LOCK, addr, heap)
        elif op is Op.BARRIER:
            wakeups = self.sync.barrier_arrive(addr, tid, clock)
            if wakeups is None:
                return clock, True
            if self.sync_recorder is not None:
                self.sync_recorder.open_episode(addr, len(wakeups))
            self_clock = None
            for wakeup in wakeups:
                if wakeup.tid == tid:
                    self_clock = self._finish_acquire(
                        tid, wakeup.grant_time, wakeup.wait, op, addr,
                    )
                else:
                    self._wake(wakeup, Op.BARRIER, addr, heap)
            clock = self_clock
        elif op is Op.EVWAIT:
            if self.sync.event_wait(addr, tid, clock):
                clock = self._finish_acquire(tid, clock, 0, op, addr)
            else:
                return clock, True
        elif op is Op.EVSET:
            wakeups = self.sync.event_set(addr, tid, clock)
            stats.set_events += 1
            stats.release_access_cycles += lat
            stats.busy_cycles += 1
            state.instructions_executed += 1
            if self.recorder is not None:
                self.recorder.record(
                    tid, state.pc, int(op), _MC_RELEASE, addr
                )
            self._emit(tid, state.pc, state.pc + 1, _MC_RELEASE, addr, lat)
            if self.sync_recorder is not None:
                self.sync_recorder.note_release(tid, "event", addr)
            state.pc += 1
            clock += 1
            for wakeup in wakeups:
                self._wake(wakeup, Op.EVWAIT, addr, heap)
        else:  # EVCLEAR
            self.sync.event_clear(addr)
            stats.busy_cycles += 1
            state.instructions_executed += 1
            if self.recorder is not None:
                self.recorder.record(
                    tid, state.pc, int(op), _MC_RELEASE, addr
                )
            self._emit(tid, state.pc, state.pc + 1, _MC_RELEASE, addr, lat)
            if self.sync_recorder is not None:
                # A clear enables no acquire: ordinal only.
                self.sync_recorder.note_release(tid, None, addr)
            state.pc += 1
            clock += 1
        self._steps += 1
        return clock, False

    # -- the run loops --------------------------------------------------------

    def run(self) -> RunResult:
        """Execute all threads to completion; returns the annotated result."""
        try:
            if self.compiled:
                self._run_compiled()
            else:
                self._run_reference()
        finally:
            self._expand_logs()

        unfinished = [t.tid for t in self.threads if not t.halted]
        if unfinished:
            reasons = self.sync.blocked_threads()
            detail = ", ".join(
                f"t{tid}: {reasons.get(tid, 'not blocked on sync?')}"
                for tid in unfinished
            )
            raise DeadlockError(f"threads never finished — {detail}")

        run_stats = RunStats(
            cpus=self.cpu_stats,
            total_cycles=max(s.end_time for s in self.cpu_stats),
        )
        result = RunResult(
            config=self.config,
            traces=self.traces,
            stats=run_stats,
            memory=self.memory,
            memsys=self.memsys,
            sync=self.sync,
            sync_schedule=(
                None if self.sync_recorder is None
                else self.sync_recorder.schedule
            ),
        )
        if self.probe is not None:
            self.probe.publish_run(result)
        return result

    def _run_compiled(self) -> None:
        """Run-ahead engine: schedule shared instructions, batch the rest.

        Reproduces :meth:`_run_reference`'s schedule exactly at the
        granularity of shared instructions (rules (a)-(d) of the module
        docstring).  State between time points: ``E``, a bitmask of the
        threads running private code (a start every cycle up to their
        next shared instruction); ``p`` and ``last``, the latest time
        point processed and the thread that executed last at it; and a
        calendar (``cal``: time -> bitmask of tids, ``times``: heap of
        its keys) with one event per other runnable thread — its next
        shared start if it is in ``E``, else the start at which it
        rejoins ``E``.  The thread just run keeps the machine without
        touching the calendar while its next event is the earliest.
        Counters accumulate in per-thread lists and land in the
        :class:`CpuStats` objects once, at the end of the run; hits are
        tested inline, misses go through ``access_ht``.
        """
        config = self.config
        max_steps = config.max_instructions
        heappop, heappush = heapq.heappop, heapq.heappush
        access_ht = self.memsys.access_ht
        line_size, line_mask, cache_tables = self.memsys.hit_path()
        words = self.memory.words
        doubles = self.memory.doubles
        rec = self.recorder
        compiler = BlockCompiler(self.templates)

        # Per thread: registers, superblock and segment tables (by pc,
        # filled on first use), kinds, trace metadata, cache tags and
        # states, counters [private instructions, read hits, read misses,
        # read stall, write hits, write misses, write stall, conditional
        # branches], and the appends of its log's template ids,
        # addresses and stalls (None if untraced).
        ctxs = []
        for tid, state in enumerate(self.threads):
            prog = state.program
            log = self.logs[tid]
            ctxs.append((
                state.regs, [None] * len(prog), [None] * len(prog),
                prog.kinds, prog.trace_meta, *cache_tables[tid], [0] * 8,
                *((None,) * 3 if log is None else (
                    log.ids.append, log.addrs.append, log.stalls.append
                )),
            ))

        n_cpus = config.n_cpus
        pcs = [0] * n_cpus     # each thread's next shared pc
        nss = [0] * n_cpus     # ... and the cycle it starts at
        room = max_steps       # instructions left in the budget
        cal = {}
        E = (1 << n_cpus) - 1
        p = last = -1
        hold = None        # a waker's stale slice limit (rule d)
        todo = 0           # the rest of time point q's shared threads
        woken = []
        key = None         # the current thread's next event, not queued
        pc = 0
        block = None

        try:
            for tid in range(n_cpus):
                n = self._ahead(tid, ctxs[tid], 0, room, compiler, pcs)
                room -= n
                nss[tid] = n
                cal[n] = cal.get(n, 0) | 1 << tid
            times = list(cal)
            heapq.heapify(times)
            tid = q = -1
            while True:
                # -- the next event ----------------------------------
                if hold is not None:
                    q, key = key, None
                    evm = 0
                elif key is not None and not todo and (
                    not times or key < times[0]
                ):
                    q, key = key, None   # tid keeps the machine
                    evm = tb = 1 << tid
                else:
                    if key is not None:
                        if key not in cal:
                            heappush(times, key)
                        cal[key] = cal.get(key, 0) | 1 << tid
                        key = None
                    if todo:
                        low = todo & -todo
                        todo ^= low
                        tid = low.bit_length() - 1
                        evm = 0
                    elif times:
                        q = heappop(times)
                        evm = cal.pop(q)
                        tid = evm.bit_length() - 1
                        tb = 1 << tid
                    else:
                        break
                if evm:
                    # Who goes first at q (rule b): the owner — the last
                    # thread to run before q if it has a start at q.
                    if not E:
                        own = last if last >= 0 and evm >> last & 1 else -1
                    elif q == p + 1:
                        own = last if last >= 0 and E >> last & 1 else -1
                    else:
                        # Rule (c): over a stretch with E fixed, ownership
                        # alternates between E's two highest tids.
                        m1 = E.bit_length() - 1
                        m2 = (E ^ (1 << m1)).bit_length() - 1
                        own = m1
                        if m2 >= 0:
                            a = m2 if last == m1 else m1
                            own = a if (q - p) & 1 == 0 else m1 + m2 - a
                    if evm != tb or not E & tb:
                        # Threads rejoining E, several shared threads, or
                        # both: the owner first, the rest in tid order.
                        joins = evm & ~E
                        E |= evm
                        while joins:
                            low = joins & -joins
                            joins ^= low
                            v = low.bit_length() - 1
                            if nss[v] != q:  # its shared start is later
                                evm ^= low
                                if nss[v] not in cal:
                                    heappush(times, nss[v])
                                cal[nss[v]] = cal.get(nss[v], 0) | low
                        low = (1 << own if own >= 0 and evm >> own & 1
                               else evm & -evm)
                        todo = evm ^ low
                        tid = low.bit_length() - 1
                    # The last to run at q: the highest tid in E(q) but
                    # the owner, who runs first.
                    rest = E & ~(1 << own) if own >= 0 else E
                    last = rest.bit_length() - 1 if rest else own
                    p = q
                    if not evm:
                        continue

                # -- its shared instruction --------------------------
                (regs, blocks, segs, kinds, meta, tags, states, c,
                 put, put_addr, put_stall) = ctxs[tid]
                spc = pcs[tid]
                kind = kinds[spc]
                if kind < K_SYNC:
                    seg = segs[spc]
                    if seg is None:
                        seg = segs[spc] = compiler.block(
                            self.threads[tid].program, spc
                        )
                    block = seg
                    addr, (pc, n, nb, x) = seg(regs, words, doubles)
                    room -= 1
                    if room < 0:
                        raise StepLimitExceeded(
                            f"exceeded {max_steps} instructions"
                        )
                    line = addr // line_size
                    idx = line & line_mask
                    if kind == K_LOAD:
                        if tags[idx] == line and states[idx]:
                            c[1] += 1
                            stall = 0
                            nx = q + 1
                        else:
                            stall = access_ht(tid, addr, False, q)[1]
                            c[2] += 1
                            c[3] += stall
                            nx = q + 1 + stall
                    else:
                        if tags[idx] == line and states[idx] >= EXCLUSIVE:
                            states[idx] = MODIFIED
                            c[4] += 1
                            stall = 0
                        else:
                            stall = access_ht(tid, addr, True, q)[1]
                            c[5] += 1
                            c[6] += stall
                        nx = q + 1
                    if put is not None:
                        put(x)
                        put_addr(addr)
                        put_stall(stall)
                    if rec is not None:
                        op = meta[spc][0]
                        mc = _MC_READ if kind == K_LOAD else _MC_WRITE
                        wide = op != _OP_LW and op != _OP_SW
                        rec.record(
                            tid, spc, op, mc, addr, wide=wide,
                            value=doubles.get(addr, 0.0) if wide
                            else words.get(addr, 0),
                        )
                else:
                    state = self.threads[tid]
                    state.pc = pc = spc
                    self._steps = max_steps - room
                    nx, blocked = self._sync_step(tid, q, woken)
                    room = max_steps - self._steps
                    pc = state.pc
                    n = nb = 0
                    if woken:
                        # Rule (d): woken before the waker's slice limit,
                        # they wait until it has run to that limit.
                        limit = times[0] if times else _INF
                        if (hold is None and tid == last
                                and not E & ~(1 << tid)
                                and woken[0][0] < limit):
                            hold = limit
                        for k, v in woken:
                            nv = self._ahead(
                                v, ctxs[v], self.threads[v].pc, room,
                                compiler, pcs,
                            )
                            room -= nv
                            nss[v] = k + nv
                            if k not in cal:
                                heappush(times, k)
                            cal[k] = cal.get(k, 0) | 1 << v
                        woken.clear()
                    if blocked:
                        E &= ~(1 << tid)
                        if hold is not None:
                            hold = None
                            E = 0
                            last = -1
                        continue

                # -- run ahead to the next one (as ``_ahead`` does) ---
                while True:
                    block = blocks[pc]
                    if block is None:
                        if kinds[pc]:
                            break
                        block = blocks[pc] = compiler.block(
                            self.threads[tid].program, pc
                        )
                    pc, w, wb, x = block(regs)
                    n += w
                    nb += wb
                    if put is not None:
                        put(x)
                    if n > room:
                        pcs[tid] = pc
                        raise StepLimitExceeded(
                            f"exceeded {max_steps} instructions"
                        )
                pcs[tid] = pc
                c[0] += n
                c[7] += nb
                room -= n
                ns = nss[tid] = nx + n

                # -- and its next event ------------------------------
                if hold is not None:
                    if ns <= hold:
                        key = ns
                        continue
                    key = max(nx, hold + 1)
                    hold = None
                    E = 0
                    last = -1
                elif nx == q + 1:
                    key = ns
                else:
                    E &= ~(1 << tid)
                    key = nx
        except (MemoryError_, TypeError, IndexError, PcOutOfRange) as exc:
            self._fault(exc, tid, pc, block)
        finally:
            self._steps = max_steps - room
            for t, state in enumerate(self.threads):
                state.pc = pcs[t]
                (private, rhit, rmiss, rstall, whit, wmiss, wstall,
                 branches) = ctxs[t][7]
                busy = private + rhit + rmiss + whit + wmiss
                stats = self.cpu_stats[t]
                stats.busy_cycles += busy
                state.instructions_executed += busy
                stats.cond_branches += branches
                stats.reads += rhit + rmiss
                stats.writes += whit + wmiss
                stats.read_misses += rmiss
                stats.read_stall_cycles += rstall
                stats.write_misses += wmiss
                stats.write_stall_cycles += wstall
                cache_stats = self.memsys.caches[t].stats
                cache_stats.reads += rhit
                cache_stats.writes += whit

    def _ahead(self, tid: int, ctx, pc: int, room: int, compiler, pcs):
        """Run a thread's private code from ``pc`` and count it (outside
        the hot loop, which inlines the same walk); sets ``pcs[tid]`` to
        its next shared pc and returns the instructions run."""
        regs, blocks, _, kinds, _, _, _, c, put, _, _ = ctx
        n = nb = 0
        block = None
        try:
            while True:
                block = blocks[pc]
                if block is None:
                    if kinds[pc]:
                        pcs[tid] = pc
                        c[0] += n
                        c[7] += nb
                        return n
                    block = blocks[pc] = compiler.block(
                        self.threads[tid].program, pc
                    )
                pc, w, wb, x = block(regs)
                n += w
                nb += wb
                if put is not None:
                    put(x)
                if n > room:
                    pcs[tid] = pc
                    raise StepLimitExceeded(
                        f"exceeded {self.config.max_instructions} "
                        "instructions"
                    )
        except (TypeError, IndexError, PcOutOfRange) as exc:
            self._fault(exc, tid, pc, block)

    def _fault(self, exc, tid: int, pc: int, block=None):
        """Re-raise ``exc`` from thread ``tid`` at ``pc`` the way the
        reference engine words it; inside a compiled ``block`` the
        faulting instruction is found from the traceback's line."""
        prog = self.threads[tid].program
        tb = exc.__traceback__
        if isinstance(exc, PcOutOfRange):
            pc = exc.args[0]
        elif block is not None:
            while tb is not None:
                if tb.tb_frame.f_code.co_filename == BLOCK_FILENAME:
                    pc = block.line_pcs[tb.tb_lineno - 2]
                    break
                tb = tb.tb_next
        if isinstance(exc, MemoryError_):
            raise MemoryError_(f"{exc} (thread {tid}, pc {pc})") from None
        if not 0 <= pc < len(prog):
            raise ExecutionError(
                f"thread {tid}: pc {pc} out of range in {prog.name!r}"
            ) from None
        instr = prog.instructions[pc]
        raise ExecutionError(
            f"thread {tid}: fault at pc {pc} ({instr}): {exc}"
        ) from exc

    def _run_reference(self) -> None:
        """Oracle engine: one ``execute_instruction`` call per instruction."""
        config = self.config
        heap: list[tuple[int, int]] = [
            (0, tid) for tid in range(config.n_cpus)
        ]
        heapq.heapify(heap)
        memsys = self.memsys
        memory = self.memory

        while heap:
            clock, tid = heapq.heappop(heap)
            state = self.threads[tid]
            stats = self.cpu_stats[tid]
            program = state.program.instructions
            limit = heap[0][0] if heap else float("inf")
            blocked = False

            while clock <= limit:
                instr = program[state.pc]
                op = instr.op

                if op in _SYNC_OPS or op is Op.HALT:
                    clock, blocked = self._sync_step(tid, clock, heap)
                    if blocked:
                        break
                    continue

                pc = state.pc
                try:
                    result = execute_instruction(state, memory)
                except MemoryError_ as exc:
                    raise MemoryError_(
                        f"{exc} (thread {tid}, pc {pc})"
                    ) from None
                stats.busy_cycles += 1
                self._steps += 1
                cost = 1

                if result.addr >= 0:
                    access = memsys.access(
                        tid, result.addr, result.is_write, clock
                    )
                    if result.is_write:
                        if not access.hit:
                            stats.write_misses += 1
                            stats.write_stall_cycles += access.stall
                        stats.writes += 1
                        # Host write buffer + RC hide the write latency.
                        mem_class = MemClass.WRITE
                    else:
                        if not access.hit:
                            stats.read_misses += 1
                            stats.read_stall_cycles += access.stall
                            cost += access.stall  # host blocks on reads
                        stats.reads += 1
                        mem_class = MemClass.READ
                    self._emit(
                        tid, pc, result.next_pc, int(mem_class),
                        result.addr, access.stall,
                    )
                    if self.recorder is not None:
                        wide = op is Op.FLD or op is Op.FSD
                        value = (
                            memory.read_double(result.addr) if wide
                            else memory.read_word(result.addr)
                        )
                        self.recorder.record(
                            tid, pc, int(op), int(mem_class),
                            result.addr, value=value, wide=wide,
                        )
                else:
                    if op in _COND_BRANCHES:
                        stats.cond_branches += 1
                    self._emit(tid, pc, result.next_pc)

                clock += cost
                if self._steps > config.max_instructions:
                    raise StepLimitExceeded(
                        f"exceeded {config.max_instructions} instructions"
                    )

            if not blocked:
                heapq.heappush(heap, (clock, tid))


def run_workload(
    programs: list[Program],
    memory: SharedMemory,
    config: MultiprocessorConfig | None = None,
    compiled: bool = True,
    probe=None,
) -> RunResult:
    """Convenience wrapper: build an executor and run it."""
    return TangoExecutor(
        programs, config=config, memory=memory, compiled=compiled,
        probe=probe,
    ).run()
