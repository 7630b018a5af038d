"""The static models (BASE, SSBR and SS), event-driven.

The in-order processors of the paper's §4.1:

* **BASE** — no overlap at all: each operation completes before the
  next one starts (the normalisation reference).
* **SSBR** and **SS** — one statically scheduled processor with a
  16-deep write buffer whose behaviour the consistency model governs:
  under SC the buffer must drain before a read may be serviced; under
  PC reads bypass pending writes but buffered writes still retire one
  at a time; under WO/RC buffered writes retire overlapped
  (:class:`WriteBuffer`).  The two differ only in where a read miss
  stalls: at issue (SSBR, blocking reads) or at the first *use* of its
  value (SS), where a 16-deep read buffer bounds the outstanding reads
  and, where Figure 1 orders a read before a later read (SC, PC),
  reads stay serialized.  :func:`ss_fast_stepper` runs both;
  ``blocking_reads`` picks SSBR.

Each retires one instruction per cycle plus stalls, so ``busy`` equals
the instruction count.  The loops are exact to a scalar row-by-row
formulation (kept as the test oracle) but skip what provably does not
move time, built on two observations about the in-order machines:

1. Only rows that touch memory can move simulated time by anything other
   than the unconditional ``t += 1; busy += 1`` — and while the write
   buffer is *clean* (every entry freed at or before the current time),
   even most memory rows are no-ops: a hit read checks a drained buffer,
   and a hit write pushes an entry that performs and frees instantly.
   The truly *sparse* events are misses, releases, and synchronization.

2. Between processed events, ``t`` advances exactly one cycle per row,
   so the simulated time of any skipped row is recoverable in closed
   form.  Skipped hit-writes are folded lazily: when the next real event
   arrives, the buffer state is reconstructed as if the last skipped
   write had just been pushed, which is exactly what the scalar model's
   lazy drain would have left behind.  Where reads serialize, the last
   skipped hit-read folds into ``last_read_perform`` the same way.

Whenever the clean-buffer invariant breaks — a write miss or a negative
synchronization wait leaves ``last_free > t`` — the loop drops into
*dense* mode and runs the exact scalar body over every memory row until
the buffer is clean again.

Under SS, rows that can stall on a pending register (operand use of an
outstanding load), reads inside a read-serialization window, and reads
that may find the read buffer full are discovered dynamically: each is
bounded by a ``perform - t`` window (t advances at least one cycle per
row), so candidate rows come from ``bisect`` over precomputed sorted
index lists and merge into the event stream through small heaps.  A
synchronization row that moves ``t`` backwards re-arms the windows.
Under SSBR a read miss moves ``t`` to its perform time, so none of
these windows ever opens.

All trace-derived indices (event rows, per-register use lists, last
write/read scans) depend only on the trace contents, so they are built
once and memoised on ``trace.fastpath_cache`` — a consistency-model
sweep over one trace pays for them once.  The memo lives as long as the
trace, so its columns follow one rule: a column whose values can exceed
256 (row numbers and event positions, addresses, waits) is a typed
``array('i')`` built straight from its numpy array, 4 bytes per element
(the trace's own width for addresses and waits) instead of an int
object each; a small-valued column (opcodes, classes,
units, register ids, stalls, flags) stays a list, whose elements are
CPython's cached small ints — 8 bytes per row already — and whose
subscripts the interpreter specialises in the hot loops; a 0/1 flag
column is ``bytes``.  A typed subscript builds an int object on every
read, so a wide column that a hot loop reads on every row is recast
as small values instead: the DS engine stores each producer row as its
distance back from the consumer, a list of nearly all cached small
ints (:mod:`repro.cpu.ds.event_engine`).  This engine reads its typed
columns only at processed events.

Each model is a resumable stepper (:mod:`repro.cpu.requests`): it
yields every miss as a :class:`~repro.cpu.requests.MemRequest`, every
acquire and barrier as a :class:`~repro.cpu.requests.SyncRequest` and
every release as a :class:`~repro.cpu.requests.ReleaseNotify`, at the
cycle the scalar model would — every synchronization row is a sparse
event, and every window is computed from the current ``t``, so a live
wait needs no state a replayed one does not.  Standalone replay
(:func:`repro.cpu.simulate`) and the co-simulation engine resume it the
same way.

Probed runs stay on this path: the depth histograms are commutative,
processed pushes and read issues observe inline, and a skipped clean
hit-write always leaves exactly one live entry, so all of them are one
weighted ``observe(1, n_skipped)`` at the end.  The scalar
formulations are the differential oracle — see
``tests/test_fastpath.py``.
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_left, bisect_right
from collections import deque

import numpy as np

from ..consistency import ConsistencyModel
from ..isa import MemClass
from ..tango import Trace
from .kernels import mem_event_rows, reg_use_rows
from .requests import MemRequest, ReleaseNotify, SyncRequest
from .results import ExecutionBreakdown

WRITE_BUFFER_DEPTH = 16
READ_BUFFER_DEPTH = 16

_MC_NONE = int(MemClass.NONE)
_MC_READ = int(MemClass.READ)
_MC_WRITE = int(MemClass.WRITE)
_MC_ACQUIRE = int(MemClass.ACQUIRE)
_MC_RELEASE = int(MemClass.RELEASE)
_MC_BARRIER = int(MemClass.BARRIER)


class WriteBuffer:
    """A FIFO write buffer with consistency-governed retirement.

    Entries are (perform_time, free_time, addr).  ``perform_time`` is when
    the write becomes visible; ``free_time`` is when the FIFO slot frees
    (entries free in order).  Under serializing models (SC, PC) a write
    may not begin its memory access until the previous write performed;
    under overlapping models (WO, RC) writes pipeline.
    """

    def __init__(self, model: ConsistencyModel,
                 depth: int = WRITE_BUFFER_DEPTH) -> None:
        self.model = model
        self.depth = depth
        self._entries: deque[tuple[int, int]] = deque()  # (free, addr)
        self._pending_addrs: dict[int, int] = {}
        self.last_perform = 0
        self.last_free = 0

    def _drain(self, now: int) -> None:
        while self._entries and self._entries[0][0] <= now:
            _, addr = self._entries.popleft()
            if addr >= 0:
                count = self._pending_addrs.get(addr, 0) - 1
                if count <= 0:
                    self._pending_addrs.pop(addr, None)
                else:
                    self._pending_addrs[addr] = count

    def push(self, now: int, stall: int, addr: int = -1,
             perform_floor: int = 0) -> tuple[int, int]:
        """Buffer a write issued at ``now``.

        ``perform_floor`` is the earliest the write may perform (used for
        releases that must wait for prior accesses).  Returns
        ``(new_now, full_stall)`` — the cycles the processor stalled
        because the buffer was full.
        """
        self._drain(now)
        full_stall = 0
        if len(self._entries) >= self.depth:
            wait_until = self._entries[0][0]
            full_stall = wait_until - now
            now = wait_until
            self._drain(now)
        if self.model.writes_overlap:
            perform = max(now, perform_floor) + stall
        else:
            perform = max(now, self.last_perform, perform_floor) + stall
        self.last_perform = max(self.last_perform, perform)
        free = max(perform, self.last_free)
        self.last_free = free
        self._entries.append((free, addr))
        if addr >= 0:
            self._pending_addrs[addr] = self._pending_addrs.get(addr, 0) + 1
        return now, full_stall

    def holds_addr(self, addr: int, now: int) -> bool:
        self._drain(now)
        return addr in self._pending_addrs

    def drain_time(self) -> int:
        """Time at which every buffered write has performed and freed."""
        return self.last_free if self._entries else 0


def _typed(values: np.ndarray) -> array:
    """``values`` as a compact ``array("i")``: row numbers, event
    positions, and the trace's addresses and waits, which its columns
    already hold as int32 (``repro.tango.trace.TRACE_COLUMNS``)."""
    col = array("i")
    col.frombytes(values.astype(np.int32, copy=False).data.cast("B"))
    return col


def _buffer_histogram(probe, name: str, capacity: int):
    """The occupancy histogram for ``name``, or None when unprobed."""
    if probe is None or not probe.metrics.enabled:
        return None
    from ..obs.metrics import occupancy_bounds

    return probe.metrics.histogram(name, occupancy_bounds(capacity))


class _TraceIndex:
    """Model-independent derived indices of one trace, computed once.

    Everything here is a function of the trace columns alone — event row
    numbers, sparse-event positions, last-write/last-read scans, sorted
    per-register use lists — so one instance serves every consistency
    model, network, and static model run over the same trace.
    """

    __slots__ = (
        "n", "ev_l", "n_ev", "cls_l", "stall_l", "wait_l", "addr_l",
        "rd_l", "rs1_l", "rs2_l", "sp_l", "n_sp", "write_pos_l",
        "read_posm_l", "read_rows_l", "read_pos_l", "pos_of_row",
        "users", "ds", "sync_ord", "n_stores",
    )

    def __init__(self, trace: Trace) -> None:
        #: Lazily attached repro.cpu.ds.event_engine._DSIndex.
        self.ds = None
        self.n = n = len(trace)
        cols = trace.np_columns()
        rd_np, rs1_np, rs2_np = cols[3], cols[4], cols[5]
        addr_np, stall_np, wait_np, mc_np = cols[6], cols[7], cols[8], cols[9]
        ev = mem_event_rows(mc_np)
        n_ev = len(ev)
        mc_ev = mc_np[ev]
        stall_ev = stall_np[ev]
        self.ev_l = _typed(ev)
        self.n_ev = n_ev
        self.cls_l = mc_ev.tolist()
        self.stall_l = stall_ev.tolist()
        self.wait_l = _typed(wait_np[ev])
        self.addr_l = _typed(addr_np[ev])
        self.rd_l = rd_np[ev].tolist()
        self.rs1_l = rs1_np.tolist()
        self.rs2_l = rs2_np.tolist()
        # Sparse events: anything that can observably change state while
        # the write buffer is clean — misses, releases, sync.
        self.sp_l = _typed(np.nonzero(
            (stall_ev > 0) | (mc_ev >= _MC_ACQUIRE)
        )[0])
        self.n_sp = len(self.sp_l)
        #: Event position -> ordinal among the synchronization-class
        #: rows, the key of the recorded sync schedule (sync rows only).
        self.sync_ord = {
            p: k for k, p in enumerate(
                np.nonzero(mc_ev >= _MC_ACQUIRE)[0].tolist()
            )
        }
        #: Rows that push the write buffer (writes and releases).
        self.n_stores = int(
            np.count_nonzero((mc_ev == _MC_WRITE) | (mc_ev == _MC_RELEASE))
        )
        positions = np.arange(n_ev)
        # Position of the last write / last read at or before each
        # position, for the lazy folds over skipped clean rows.
        self.write_pos_l = _typed(np.maximum.accumulate(
            np.where(mc_ev == _MC_WRITE, positions, -1)
        ))
        self.read_posm_l = _typed(np.maximum.accumulate(
            np.where(mc_ev == _MC_READ, positions, -1)
        ))
        read_pos = np.nonzero(mc_ev == _MC_READ)[0]
        self.read_pos_l = _typed(read_pos)
        self.read_rows_l = _typed(ev[read_pos])
        pos_of_row = np.full(n, -1, dtype=np.int64)
        pos_of_row[ev] = positions
        self.pos_of_row = _typed(pos_of_row)
        self.users = {
            reg: _typed(rows)
            for reg, rows in reg_use_rows(rs1_np, rs2_np).items()
        }


def _trace_index(trace: Trace) -> _TraceIndex:
    idx = trace.fastpath_cache
    if idx is None or idx.n != len(trace):
        idx = _TraceIndex(trace)
        trace.fastpath_cache = idx
    return idx


def base_fast_stepper(
    trace: Trace, label: str = "BASE", clamp_time: bool = False
):
    """BASE over its sparse events only, as a resumable stepper.

    One access at a time: each miss and each synchronization operation
    is requested serially at the exact cycle the serial processor
    reaches it (whoever answers may be stateful); every other row, hits
    included, only advances the clock by one.  With ``clamp_time`` set
    the clock never runs backwards on a negative sync wait (a wakeup
    granted before this processor's virtual time) — the network-replay
    behaviour; without it the accounting matches the closed-form
    fixed-penalty sums.  The sparse rows are one column scan per
    run, not the shared :class:`_TraceIndex`: a trace build computes its
    BASE breakdown and must not pay for (or keep) the other models'
    tables.
    """
    n = len(trace)
    cpu = trace.cpu
    sync = read = write = 0
    if n:
        cols = trace.np_columns()
        addr_np, stall_np, wait_np, mc_np = cols[6], cols[7], cols[8], cols[9]
        sparse = np.nonzero(
            (mc_np >= _MC_ACQUIRE) | ((mc_np > 0) & (stall_np > 0))
        )[0]
        t = 0
        prev = -1
        ordinal = 0
        for i, cls, stall, wait, addr in zip(
            sparse.tolist(), mc_np[sparse].tolist(),
            stall_np[sparse].tolist(), wait_np[sparse].tolist(),
            addr_np[sparse].tolist(),
        ):
            t += i - prev
            prev = i
            if cls == _MC_READ:  # sparse reads and writes are misses
                lat = yield MemRequest(addr, False, t, stall)
                read += lat
                t += lat
            elif cls == _MC_WRITE:
                lat = yield MemRequest(addr, True, t, stall)
                write += lat
                t += lat
            elif cls == _MC_RELEASE:
                write += stall
                t += stall
                yield ReleaseNotify(cpu, ordinal, t, addr)
                ordinal += 1
            else:  # acquire or barrier
                w = yield SyncRequest(cpu, ordinal, cls, t, wait, stall, addr)
                ordinal += 1
                sync += w + stall
                if not clamp_time or w + stall > 0:
                    t += w + stall
    return ExecutionBreakdown(
        label=label, busy=n, sync=sync, read=read, write=write,
        instructions=n,
    )


def _fold_skipped_writes(buf: WriteBuffer, tau: int, addr: int) -> None:
    """Reconstruct the buffer as the scalar model would have left it after
    a run of skipped clean hit-writes whose last one was to ``addr`` at
    time ``tau``: one live entry, ``last_perform == last_free == tau``.
    (The earlier skipped writes were already drained by that push.)"""
    buf.last_perform = tau
    buf.last_free = tau
    buf._entries.append((tau, addr))
    if addr >= 0:
        buf._pending_addrs[addr] = buf._pending_addrs.get(addr, 0) + 1


def ss_fast_stepper(
    trace: Trace,
    model: ConsistencyModel,
    label: str | None = None,
    clamp_time: bool = False,
    probe=None,
    blocking_reads: bool = False,
):
    """SS, or SSBR with ``blocking_reads``, over sparse and dynamically
    discovered events, as a resumable stepper.

    Suspends at every miss (the answer re-times it) and every acquire
    (the answer is the wait), and announces each release's perform time.
    ``clamp_time`` keeps the clock from running backwards on a negative
    sync wait — the behaviour required when a stateful network consumes
    the request times.  ``probe`` samples the write-buffer depth per
    push and, for SS, the read-buffer depth per outstanding read; it
    never alters timing.

    The two processors differ only in where a read miss stalls.  SS
    requests it at its *start* cycle — after read serialization where
    the model orders read before read — which may lie ahead of the
    processor's own clock, and stalls at the first use of its value.
    SSBR stalls at issue: ``perform - t`` is charged to ``read`` at
    once, so no read is ever outstanding, no register pending, and
    reads never serialize — not even after a negative sync wait moves
    ``t`` back behind the last read's perform time."""
    cpu = trace.cpu
    buf = WriteBuffer(model)
    wb_hist = _buffer_histogram(
        probe, "static.write_buffer_depth", WRITE_BUFFER_DEPTH
    )
    rb_hist = None
    if not blocking_reads:
        rb_hist = _buffer_histogram(
            probe, "static.read_buffer_depth", READ_BUFFER_DEPTH
        )
    pushes = 0  # pushes observed inline; the skipped rest observe 1
    n = len(trace)
    reg_ready: dict[int, int] = {}
    outstanding: deque[int] = deque()
    t = 0
    busy = n  # one busy cycle per retired row, unconditionally
    sync = read = write = 0
    last_read_perform = 0
    last_release_perform = 0
    serialize_reads = (
        model.requires(MemClass.READ, MemClass.READ) and not blocking_reads
    )
    bypass = model.reads_bypass_writes
    writes_overlap = model.writes_overlap
    req_rel_acq = model.requires(MemClass.RELEASE, MemClass.ACQUIRE)
    if n:
        idx = _trace_index(trace)
        ev_l, cls_l, stall_l = idx.ev_l, idx.cls_l, idx.stall_l
        wait_l, addr_l, rd_l = idx.wait_l, idx.addr_l, idx.rd_l
        rs1_l, rs2_l, sp_l = idx.rs1_l, idx.rs2_l, idx.sp_l
        write_pos_l, read_posm_l = idx.write_pos_l, idx.read_posm_l
        read_rows_l, read_pos_l = idx.read_rows_l, idx.read_pos_l
        pos_of_row, users = idx.pos_of_row, idx.users
        sync_ord = idx.sync_ord
        n_ev, n_sp = idx.n_ev, idx.n_sp
        # Non-memory rows that may stall on a pending register.
        dyn: list[int] = []
        # Event-array positions forced to run their full body: memory
        # rows with a possibly-pending operand, reads inside a read
        # serialization window, reads that may find the buffer full.
        forced: list[int] = []
        # Highest read row already pushed to ``forced`` by a window —
        # overlapping serialization windows re-arm only the new tail.
        forced_hi = -1
        # Registers with possibly-pending ready times (backjump re-arm).
        armed: dict[int, int] = {}

        def arm(reg: int, perform: int, row: int, horizon: int) -> None:
            # Only the FIRST use in (row, row+horizon] can block:
            # processing it advances t to at least ``perform``, after
            # which every later use of the register sees a ready value.
            # (A backward time jump re-arms, so the window re-opens.)
            armed[reg] = perform
            use = users.get(reg)
            if use is None:
                return
            lo = bisect_right(use, row)
            if lo >= len(use):
                return
            j = use[lo]
            if j > row + horizon:
                return
            pj = pos_of_row[j]
            if pj >= 0:
                heapq.heappush(forced, pj)
            else:
                heapq.heappush(dyn, j)

        def arm_reads(row: int, horizon: int) -> None:
            """Force full processing of read rows in (row, row+horizon]."""
            nonlocal forced_hi
            end = row + horizon
            if end <= forced_hi:
                return
            lo = bisect_right(read_rows_l, max(row, forced_hi))
            hi = bisect_right(read_rows_l, end)
            for fp in read_pos_l[lo:hi]:
                heapq.heappush(forced, fp)
            forced_hi = end

        # Every position before ``pos`` is consumed: its row is at or
        # before ``prev``, every later position's row is after it.
        pos = 0
        si = 0
        prev = -1

        while True:
            while dyn and dyn[0] <= prev:
                heapq.heappop(dyn)
            while forced and forced[0] < pos:
                heapq.heappop(forced)
            # ``last_free >= last_perform`` always, so this is the
            # dirty-buffer test: every memory row matters until it
            # drains.  On a clean buffer only sparse and forced rows do.
            if buf.last_free > t:
                p = pos
            else:
                while si < n_sp and sp_l[si] < pos:
                    si += 1
                p = sp_l[si] if si < n_sp else n_ev
                if forced and forced[0] < p:
                    p = forced[0]
            if dyn and (p >= n_ev or dyn[0] < ev_l[p]):
                # A non-memory row that may stall on a pending operand.
                i = heapq.heappop(dyn)
                q = bisect_left(ev_l, i, pos, p)
                p = -1
            elif p < n_ev:
                # A memory row (dense walk, sparse event, or forced row).
                i = ev_l[p]
                q = p
            else:
                break
            if q > pos:
                # Fold the skipped clean positions at linear time —
                # each advanced ``t`` exactly one cycle from ``(prev,
                # t)``: the buffer after their last hit-write and, when
                # reads serialize, the serialization point after their
                # last hit-read.
                lwp = write_pos_l[q - 1]
                if lwp >= pos:
                    _fold_skipped_writes(
                        buf, t + (ev_l[lwp] - prev), addr_l[lwp]
                    )
                if serialize_reads:
                    lrpp = read_posm_l[q - 1]
                    if lrpp >= pos:
                        tau = t + (ev_l[lrpp] - prev)
                        if tau > last_read_perform:
                            last_read_perform = tau
                pos = q
            t += i - prev
            prev = i
            if reg_ready:
                # Operand availability: only loads produce late values
                # on an in-order machine, so operand waits are read
                # stalls.
                avail = t
                r = rs1_l[i]
                if r >= 0:
                    v = reg_ready.get(r, 0)
                    if v > avail:
                        avail = v
                r = rs2_l[i]
                if r >= 0:
                    v = reg_ready.get(r, 0)
                    if v > avail:
                        avail = v
                if avail > t:
                    read += avail - t
                    t = avail
            if p < 0:
                continue
            pos = p + 1
            cls = cls_l[p]
            stall = stall_l[p]
            if cls == _MC_READ:
                if outstanding:
                    while outstanding and outstanding[0] <= t:
                        outstanding.popleft()
                    if len(outstanding) >= READ_BUFFER_DEPTH:
                        stall_until = outstanding[0]
                        read += stall_until - t
                        t = stall_until
                        while outstanding and outstanding[0] <= t:
                            outstanding.popleft()
                if not bypass:
                    drained = buf.drain_time()
                    if drained > t:
                        write += drained - t
                        t = drained
                start = t
                if serialize_reads and last_read_perform > t:
                    start = last_read_perform
                if stall and not buf.holds_addr(addr_l[p], t):
                    stall = yield MemRequest(addr_l[p], False, start, stall)
                    perform = start + stall
                else:
                    perform = start
                if perform > last_read_perform:
                    last_read_perform = perform
                if perform > t:
                    if blocking_reads:
                        read += perform - t
                        t = perform
                    else:
                        outstanding.append(perform)
                        if rb_hist is not None:
                            rb_hist.observe(len(outstanding))
                        rd = rd_l[p]
                        if rd >= 0:
                            reg_ready[rd] = perform
                            arm(rd, perform, i, perform - t)
                        if len(outstanding) >= READ_BUFFER_DEPTH:
                            arm_reads(i, max(outstanding) - t)
                        if serialize_reads:
                            arm_reads(i, last_read_perform - t)
            elif cls == _MC_WRITE or cls == _MC_RELEASE:
                floor = 0
                if cls == _MC_RELEASE and writes_overlap:
                    floor = max(
                        buf.last_perform,
                        max(outstanding) if outstanding else 0,
                    )
                if stall and cls == _MC_WRITE:
                    stall = yield MemRequest(addr_l[p], True, t, stall)
                t, full_stall = buf.push(
                    t, stall, addr_l[p], perform_floor=floor
                )
                write += full_stall
                if wb_hist is not None:
                    wb_hist.observe(len(buf._entries))
                    pushes += 1
                if cls == _MC_RELEASE:
                    last_release_perform = max(
                        last_release_perform, buf.last_perform
                    )
                    yield ReleaseNotify(
                        cpu, sync_ord[p], buf.last_perform, addr_l[p]
                    )
            else:  # acquire or barrier
                if cls == _MC_BARRIER or not bypass:
                    reads_done = max(outstanding) if outstanding else 0
                    if reads_done > t:
                        read += reads_done - t
                        t = reads_done
                    drained = buf.drain_time()
                    if drained > t:
                        write += drained - t
                        t = drained
                elif req_rel_acq and last_release_perform > t:
                    write += last_release_perform - t
                    t = last_release_perform
                elif serialize_reads and last_read_perform > t:
                    read += last_read_perform - t
                    t = last_read_perform
                w = yield SyncRequest(
                    cpu, sync_ord[p], cls, t, wait_l[p], stall, addr_l[p]
                )
                sync += w + stall
                if not clamp_time or w + stall > 0:
                    t += w + stall
                    if w + stall < 0:
                        # Time jumped backwards: monotone-t windows no
                        # longer bound later rows; re-arm everything
                        # still pending from here.
                        for reg in list(armed):
                            perform = armed[reg]
                            if (
                                perform <= t
                                or reg_ready.get(reg, 0) != perform
                            ):
                                del armed[reg]
                            else:
                                arm(reg, perform, i, perform - t)
                        if serialize_reads and last_read_perform > t:
                            arm_reads(i, last_read_perform - t)
                outstanding.clear()
        # Rows after the last processed event advance time one cycle
        # each; trailing clean hit-writes free before the end of trace,
        # so the final drain below sees them already retired.
        t += (n - 1) - prev
        if wb_hist is not None and idx.n_stores > pushes:
            wb_hist.observe(1, idx.n_stores - pushes)
    reads_done = max(outstanding) if outstanding else 0
    if reads_done > t:
        read += reads_done - t
        t = reads_done
    drained = buf.drain_time()
    if drained > t:
        write += drained - t
        t = drained
    return ExecutionBreakdown(
        label=label or f"{'SSBR' if blocking_reads else 'SS'}-{model.name}",
        busy=busy, sync=sync, read=read, write=write,
        instructions=n,
    )
