"""Model-aware operational engine with per-processor store buffers.

The Tango executor in :mod:`repro.tango.executor` is *functionally
sequentially consistent*: one global store, accesses performed atomically
in virtual-time order.  Its recorded executions therefore satisfy every
model's axioms — which makes it a regression oracle, but useless for
demonstrating that relaxed models genuinely admit more behaviours.

:class:`RelaxedEngine` closes that gap.  It executes the same programs
against the same functional :class:`~repro.mem.memory.SharedMemory` and
:class:`~repro.sync.primitives.SyncManager`, but gives every processor a
FIFO *store buffer* whose visibility rules come straight from the
consistency model's ``requires`` matrix:

* an instruction of memory class ``cls`` may not issue while the buffer
  is non-empty and ``model.requires(WRITE, cls)`` holds — so SC drains
  before every access, PC lets reads (and acquires) slip past buffered
  writes, WO drains only at synchronization, and RC drains only at
  releases;
* buffered stores drain one at a time, in FIFO order when the model
  orders W->W (SC/PC) and oldest-per-location otherwise (WO/RC) — the
  per-location restriction is cache coherence, which every model keeps;
* a load first snoops its own buffer (store-to-load forwarding, youngest
  matching entry) before reading the global store;
* every buffered store draws a random *drain latency* (a variable miss
  penalty) of 0 to ``DRAIN_LATENCY_MAX`` steps: it becomes eligible to
  drain only after that many scheduler steps.  Without this,
  back-to-back stores become drainable nearly simultaneously and the
  tell-tale relaxed windows (message passing's flag-before-data) are
  vanishingly rare; with it, one line's miss can take much longer than
  another's, exactly the mechanism the paper's relaxed models exploit.

A seeded scheduler picks uniformly among all enabled actions (issue one
instruction on some processor, or drain one buffered store), so running
a litmus program across many seeds explores many legal interleavings and
drain timings.  Every execution is recorded through an
:class:`~repro.verify.recorder.ExecutionRecorder`; buffered stores claim
their program-order slot at issue and their coherence-order slot at
drain, which is exactly the split the axiomatic checker needs.

**Out-of-order issue** (``ooo=True``) models a dynamically scheduled
processor on top of the store buffers: each thread decodes ahead into a
window of up to ``OOO_WINDOW`` consecutive loads/stores (decode stops
at ALU, branch, synchronization, halt, or a register dependence on a
pending windowed load) and the scheduler may issue *any* window entry
whose issue is not ordered after an earlier unissued entry by the
model's ``requires`` matrix or by a same-address dependence.  Windowed
events claim their program-order slot at decode and resolve values at
issue, so under WO/RC the engine generates the load-load and
load-store reorderings (litmus ``lb`` (1,1), ``iriw`` (1,0,1,0)) that
in-order issue can never expose, while under SC/PC the ``requires``
gate degenerates the window to program order.

The window, the drain-latency bound and the step limit are constants,
not knobs.  A litmus program has a few accesses per thread, so a
four-entry window and a 16-step drain bound already reach every
reordering it can show: a violation, when there is one, has a witness
of bounded size (the bounded-witness argument of Qadeer's
SC-verification paper, PAPERS.md), and seeds, not wider bounds, are
what explore the schedules.
"""

from __future__ import annotations

import random

from ..consistency.models import ConsistencyModel, get_model
from ..isa import MemClass, Op, mem_class
from ..mem import SharedMemory
from ..sync import SyncManager
from ..tango.interp import ThreadState, execute_instruction
from .recorder import ExecutionRecorder

_READ = int(MemClass.READ)
_WRITE = int(MemClass.WRITE)
_ACQUIRE = int(MemClass.ACQUIRE)
_RELEASE = int(MemClass.RELEASE)
_BARRIER = int(MemClass.BARRIER)

#: Loads/stores a thread decodes ahead under ``ooo=True``.
OOO_WINDOW = 4
#: A buffered store's (and an OOO load's) random latency is 0..this.
DRAIN_LATENCY_MAX = 16
#: Scheduler steps before an execution counts as runaway.
MAX_STEPS = 200_000


class RelaxedExecutionError(Exception):
    """Deadlock or runaway execution inside the relaxed engine."""


class _BufferedStore:
    """One store sitting in a write buffer, awaiting drain."""

    __slots__ = ("event", "addr", "wide", "value", "ready_at")

    def __init__(self, event, addr, wide, value, ready_at) -> None:
        self.event = event
        self.addr = addr
        self.wide = wide
        self.value = value
        self.ready_at = ready_at

    @property
    def key(self):
        return (self.addr, self.wide)


class _WindowEntry:
    """One decoded-but-unissued load/store in an OOO decode window.

    ``ready_at`` is the step the entry becomes eligible to issue; loads
    draw a random issue latency at decode (a variable cache miss, the
    same mechanism as the buffered stores' drain latency) so a slow load
    can genuinely slip behind younger accesses of its own thread.
    """

    __slots__ = (
        "event", "is_store", "addr", "wide", "value", "rd", "ready_at"
    )

    def __init__(
        self, event, is_store, addr, wide, value, rd, ready_at
    ) -> None:
        self.event = event
        self.is_store = is_store
        self.addr = addr
        self.wide = wide
        self.value = value
        self.rd = rd
        self.ready_at = ready_at

    @property
    def key(self):
        return (self.addr, self.wide)

    @property
    def cls(self) -> int:
        return _WRITE if self.is_store else _READ


class RelaxedEngine:
    """Executes programs under a consistency model with store buffers."""

    def __init__(
        self,
        programs,
        model="SC",
        seed: int = 0,
        ooo: bool = False,
    ) -> None:
        if not isinstance(model, ConsistencyModel):
            model = get_model(model)
        self.model = model
        self.memory = SharedMemory()
        self.recorder = ExecutionRecorder()
        self.recorder.bind(len(programs))
        self._rng = random.Random(seed)
        self.states = [
            ThreadState(tid=tid, program=prog.seal())
            for tid, prog in enumerate(programs)
        ]
        self.sync = SyncManager(len(programs))
        self._buffers: list[list[_BufferedStore]] = [[] for _ in programs]
        #: tid -> ("lock"|"event"|"barrier", addr, pc) while blocked.
        self._blocked: dict[int, tuple[str, int, int]] = {}
        self.steps = 0
        # The issue gate per memory class: may this class issue while
        # stores are buffered?  NONE (ALU/branch) always may.
        self._gated = {
            int(c): model.requires(MemClass.WRITE, c)
            for c in (
                MemClass.READ, MemClass.WRITE, MemClass.ACQUIRE,
                MemClass.RELEASE, MemClass.BARRIER,
            )
        }
        self._gated[int(MemClass.NONE)] = False
        self._fifo_drain = model.requires(MemClass.WRITE, MemClass.WRITE)
        self.ooo = ooo
        #: per-thread decoded-but-unissued loads/stores (OOO mode only).
        self._windows: list[list[_WindowEntry]] = [[] for _ in programs]
        # Issue-order matrix between window entries (data classes only).
        self._order = {
            (c, d): model.requires(MemClass(c), MemClass(d))
            for c in (_READ, _WRITE)
            for d in (_READ, _WRITE)
        }

    # -- scheduling ----------------------------------------------------------

    def _issuable(self, tid: int) -> bool:
        state = self.states[tid]
        if state.halted or tid in self._blocked:
            return False
        if self._windows[tid]:
            # OOO: everything that is not a windowed load/store executes
            # in order, only after the decode window has fully issued.
            return False
        if not self._buffers[tid]:
            return True
        op = state.program.instructions[state.pc].op
        return not self._gated[int(mem_class(op))]

    # -- OOO decode window ---------------------------------------------------

    def _fill_window(self, tid: int) -> None:
        """Decode ahead into the window: consecutive loads/stores only.

        Decode stops at any non-data instruction and at a register
        dependence on a pending windowed load (RAW through a register,
        or WAW on its destination): addresses and store values are read
        from the register file at decode, so they must not depend on a
        value that has not issued yet.
        """
        state = self.states[tid]
        if state.halted or tid in self._blocked:
            return
        window = self._windows[tid]
        while len(window) < OOO_WINDOW:
            instr = state.program.instructions[state.pc]
            op = instr.op
            if op is Op.LW or op is Op.FLD:
                is_store, wide = False, op is Op.FLD
            elif op is Op.SW or op is Op.FSD:
                is_store, wide = True, op is Op.FSD
            else:
                return
            pending_rds = {
                e.rd for e in window
                if not e.is_store and e.rd is not None and e.rd != 0
            }
            srcs = (instr.rs1, instr.rs2) if is_store else (instr.rs1,)
            if any(r in pending_rds for r in srcs):
                return
            if not is_store and instr.rd in pending_rds:
                return
            addr = state.regs[instr.rs1] + instr.imm
            if is_store:
                event = self.recorder.begin(
                    tid, state.pc, int(op), _WRITE, addr,
                    value=state.regs[instr.rs2], wide=wide,
                )
                # A store's timing randomness is its drain latency; it
                # may enter the buffer immediately.
                entry = _WindowEntry(
                    event, True, addr, wide, state.regs[instr.rs2],
                    None, self.steps,
                )
            else:
                event = self.recorder.begin(
                    tid, state.pc, int(op), _READ, addr, wide=wide
                )
                entry = _WindowEntry(
                    event, False, addr, wide, None, instr.rd,
                    self.steps + self._rng.randint(0, DRAIN_LATENCY_MAX),
                )
            window.append(entry)
            state.pc += 1
            state.instructions_executed += 1

    def _window_candidates(self, tid: int) -> list[int]:
        """Window indices allowed to issue next, ignoring readiness.

        An entry may issue unless an earlier unissued entry is ordered
        before it by the model (``requires``), targets the same
        location, or — via the store-buffer gate — unless buffered
        stores must perform first under this model.
        """
        window = self._windows[tid]
        if not window:
            return []
        buffered = bool(self._buffers[tid])
        order = self._order
        out = []
        for i, entry in enumerate(window):
            if buffered and self._gated[entry.cls]:
                continue
            key = entry.key
            cls = entry.cls
            if all(
                not order[(earlier.cls, cls)] and earlier.key != key
                for earlier in window[:i]
            ):
                out.append(i)
        return out

    def _window_issuable(self, tid: int) -> list[int]:
        window = self._windows[tid]
        now = self.steps
        return [
            i for i in self._window_candidates(tid)
            if window[i].ready_at <= now
        ]

    def _issue(self, tid: int, idx: int) -> None:
        """Issue one window entry: perform a load / buffer a store."""
        entry = self._windows[tid].pop(idx)
        if entry.is_store:
            self._buffers[tid].append(
                _BufferedStore(
                    entry.event, entry.addr, entry.wide, entry.value,
                    self.steps + self._rng.randint(0, DRAIN_LATENCY_MAX),
                )
            )
            return
        forwarded = None
        for buffered in reversed(self._buffers[tid]):
            if buffered.key == entry.key:
                forwarded = buffered
                break
        if forwarded is not None:
            value = forwarded.value
            self.recorder.perform_read(
                entry.event, value, rf_event=forwarded.event
            )
        else:
            if entry.wide:
                value = self.memory.read_double(entry.addr)
            else:
                value = self.memory.read_word(entry.addr)
            self.recorder.perform_read(entry.event, value)
        if entry.rd is not None and entry.rd != 0:
            self.states[tid].regs[entry.rd] = value

    def _drain_candidates(self, tid: int) -> list[int]:
        """Buffer indices allowed to drain next, ignoring readiness."""
        buffer = self._buffers[tid]
        if not buffer:
            return []
        if self._fifo_drain:
            return [0]
        # Per-location FIFO (coherence): only the oldest store to each
        # location is a candidate.
        seen: set = set()
        indices = []
        for i, entry in enumerate(buffer):
            if entry.key not in seen:
                indices.append(i)
                seen.add(entry.key)
        return indices

    def _drainable(self, tid: int) -> list[int]:
        buffer = self._buffers[tid]
        now = self.steps
        return [
            i for i in self._drain_candidates(tid)
            if buffer[i].ready_at <= now
        ]

    def run(self):
        """Execute to completion; returns the recorded event log."""
        n = len(self.states)
        while True:
            if self.ooo:
                for tid in range(n):
                    self._fill_window(tid)
            if (
                all(s.halted for s in self.states)
                and not any(self._buffers)
                and not any(self._windows)
            ):
                break
            actions = [
                ("exec", tid, 0)
                for tid in range(n)
                if self._issuable(tid)
            ]
            if self.ooo:
                actions.extend(
                    ("issue", tid, idx)
                    for tid in range(n)
                    for idx in self._window_issuable(tid)
                )
            actions.extend(
                ("drain", tid, idx)
                for tid in range(n)
                for idx in self._drainable(tid)
            )
            if not actions:
                # No issuable instruction, ready window entry, or ready
                # drain.  If accesses are merely waiting out their issue/
                # drain latency, fast-forward to the earliest readiness;
                # otherwise it is a deadlock.
                pending = [
                    self._buffers[tid][i].ready_at
                    for tid in range(n)
                    for i in self._drain_candidates(tid)
                ]
                if self.ooo:
                    pending.extend(
                        self._windows[tid][i].ready_at
                        for tid in range(n)
                        for i in self._window_candidates(tid)
                    )
                if pending:
                    self.steps = max(self.steps, min(pending))
                    continue
                blocked = self.sync.blocked_threads()
                raise RelaxedExecutionError(
                    f"deadlock under {self.model.name}: "
                    f"blocked={blocked or self._blocked}"
                )
            if self.steps >= MAX_STEPS:
                raise RelaxedExecutionError(
                    f"exceeded {MAX_STEPS} steps under "
                    f"{self.model.name}"
                )
            kind, tid, idx = actions[self._rng.randrange(len(actions))]
            self.steps += 1
            if kind == "drain":
                self._drain(tid, idx)
            elif kind == "issue":
                self._issue(tid, idx)
            else:
                self._exec(tid)
        return self.recorder.log()

    # -- actions -------------------------------------------------------------

    def _drain(self, tid: int, idx: int) -> None:
        entry = self._buffers[tid].pop(idx)
        if entry.wide:
            self.memory.write_double(entry.addr, entry.value)
        else:
            self.memory.write_word(entry.addr, entry.value)
        self.recorder.complete(entry.event)

    def _exec(self, tid: int) -> None:
        state = self.states[tid]
        instr = state.program.instructions[state.pc]
        op = instr.op
        if op is Op.HALT:
            state.halted = True
            return
        if op is Op.LW or op is Op.FLD:
            self._load(state, instr, wide=op is Op.FLD)
            return
        if op is Op.SW or op is Op.FSD:
            self._store(state, instr, wide=op is Op.FSD)
            return
        cls = mem_class(op)
        if cls is not MemClass.NONE:
            self._sync_op(state, instr, op)
            return
        execute_instruction(state, self.memory)

    def _load(self, state: ThreadState, instr, wide: bool) -> None:
        addr = state.regs[instr.rs1] + instr.imm
        op = Op.FLD if wide else Op.LW
        key = (addr, wide)
        forwarded = None
        for entry in reversed(self._buffers[state.tid]):
            if entry.key == key:
                forwarded = entry
                break
        if forwarded is not None:
            value = forwarded.value
            self.recorder.record(
                state.tid, state.pc, int(op), _READ, addr,
                value=value, wide=wide, rf_event=forwarded.event,
            )
        else:
            if wide:
                value = self.memory.read_double(addr)
            else:
                value = self.memory.read_word(addr)
            self.recorder.record(
                state.tid, state.pc, int(op), _READ, addr,
                value=value, wide=wide,
            )
        if instr.rd is not None and instr.rd != 0:
            state.regs[instr.rd] = value
        state.pc += 1
        state.instructions_executed += 1

    def _store(self, state: ThreadState, instr, wide: bool) -> None:
        addr = state.regs[instr.rs1] + instr.imm
        value = state.regs[instr.rs2]
        op = Op.FSD if wide else Op.SW
        event = self.recorder.begin(
            state.tid, state.pc, int(op), _WRITE, addr,
            value=value, wide=wide,
        )
        self._buffers[state.tid].append(
            _BufferedStore(
                event, addr, wide, value,
                self.steps + self._rng.randint(0, DRAIN_LATENCY_MAX),
            )
        )
        state.pc += 1
        state.instructions_executed += 1

    def _sync_op(self, state: ThreadState, instr, op: Op) -> None:
        tid = state.tid
        addr = state.regs[instr.rs1]
        now = self.steps
        if op is Op.LOCK:
            if self.sync.acquire_lock(addr, tid, now):
                self._complete_sync(state, int(op), _ACQUIRE, addr)
            else:
                self._blocked[tid] = ("lock", addr, state.pc)
        elif op is Op.UNLOCK:
            wakeup = self.sync.release_lock(addr, tid, now)
            self._complete_sync(state, int(op), _RELEASE, addr)
            if wakeup is not None:
                self._wake(wakeup.tid, Op.LOCK, _ACQUIRE)
        elif op is Op.EVWAIT:
            if self.sync.event_wait(addr, tid, now):
                self._complete_sync(state, int(op), _ACQUIRE, addr)
            else:
                self._blocked[tid] = ("event", addr, state.pc)
        elif op is Op.EVSET:
            wakeups = self.sync.event_set(addr, tid, now)
            self._complete_sync(state, int(op), _RELEASE, addr)
            for wakeup in wakeups:
                self._wake(wakeup.tid, Op.EVWAIT, _ACQUIRE)
        elif op is Op.EVCLEAR:
            self.sync.event_clear(addr)
            self._complete_sync(state, int(op), _RELEASE, addr)
        elif op is Op.BARRIER:
            wakeups = self.sync.barrier_arrive(addr, tid, now)
            if wakeups is None:
                self._blocked[tid] = ("barrier", addr, state.pc)
            else:
                for wakeup in wakeups:
                    if wakeup.tid == tid:
                        self._complete_sync(
                            state, int(op), _BARRIER, addr
                        )
                    else:
                        self._wake(wakeup.tid, Op.BARRIER, _BARRIER)
        else:  # pragma: no cover - mem_class keeps this unreachable
            raise RelaxedExecutionError(f"unhandled sync op {op!r}")

    def _complete_sync(
        self, state: ThreadState, op: int, cls: int, addr: int
    ) -> None:
        self.recorder.record(state.tid, state.pc, op, cls, addr)
        state.pc += 1
        state.instructions_executed += 1

    def _wake(self, tid: int, op: Op, cls: int) -> None:
        kind, addr, pc = self._blocked.pop(tid)
        state = self.states[tid]
        self.recorder.record(tid, pc, int(op), cls, addr)
        state.pc = pc + 1
        state.instructions_executed += 1
