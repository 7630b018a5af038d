"""Statically scheduled processors: SSBR and SS (paper §4.1), row by row.

The scalar oracles of :mod:`repro.cpu.static_fast`'s
``ss_fast_stepper``, which runs both models in one loop (SSBR with
``blocking_reads``).  Here they stay two independent row-by-row
references sharing only the product's consistency-aware write buffer;
unlike the product they keep the buffer depths as parameters.

* **SSBR** — blocking reads.  The processor stalls for every read miss.
  Writes go to a 16-deep write buffer whose behaviour the consistency
  model governs: under SC the buffer must drain before a read may be
  serviced and writes retire serially; under PC reads bypass pending
  writes but buffered writes still retire one at a time (serialized miss
  latencies — the source of OCEAN's write-buffer-full stalls); under
  WO/RC buffered writes retire overlapped, so the buffer almost never
  fills.
* **SS** — non-blocking reads.  A read miss does not stall the processor;
  the stall is deferred to the first *use* of the return value
  (per-register ready times).  A 16-deep read buffer bounds outstanding
  reads.  Under SC and PC reads are still serialized with respect to
  previous reads, so only the read-to-use distance is hidden — which is
  why the paper finds SS barely improves on SSBR without compiler
  rescheduling.

Both models retire exactly one instruction per cycle plus stalls, so
``busy`` equals the instruction count and the attribution identity
``total == busy + sync + read + write`` is exact.
"""

from __future__ import annotations

from collections import deque

from repro.consistency import ConsistencyModel
from repro.cpu.requests import MemRequest, ReleaseNotify, SyncRequest, drive
from repro.cpu.results import ExecutionBreakdown
from repro.cpu.static_fast import (
    READ_BUFFER_DEPTH,
    WRITE_BUFFER_DEPTH,
    WriteBuffer,
    _buffer_histogram,
)
from repro.isa import MemClass
from repro.tango import Trace

_MC_NONE = int(MemClass.NONE)
_MC_READ = int(MemClass.READ)
_MC_WRITE = int(MemClass.WRITE)
_MC_RELEASE = int(MemClass.RELEASE)
_MC_BARRIER = int(MemClass.BARRIER)


def ssbr_stepper(
    trace: Trace,
    model: ConsistencyModel,
    label: str | None = None,
    write_buffer_depth: int = WRITE_BUFFER_DEPTH,
    clamp_time: bool = False,
    probe=None,
):
    """The SSBR timing loop as a resumable stepper.

    Suspends at every miss (the answer re-times it) and every acquire
    (the answer is the wait), and announces each release's perform time.
    ``clamp_time`` keeps the clock from running backwards on a negative
    sync wait — the behaviour required when a stateful network consumes
    the request times.  ``probe`` samples write-buffer depth per push;
    it never alters timing.
    """
    cpu = trace.cpu
    buf = WriteBuffer(model, write_buffer_depth)
    wb_hist = _buffer_histogram(
        probe, "static.write_buffer_depth", write_buffer_depth
    )
    t = 0
    busy = sync = read = write = 0
    last_release_perform = 0
    ordinal = 0
    for cls, stall, wait, addr in zip(
        trace.mem_class, trace.stall, trace.wait, trace.addr
    ):
        t += 1
        busy += 1
        if cls == _MC_NONE:
            continue
        if cls == _MC_READ:
            if not model.reads_bypass_writes:
                drained = buf.drain_time()
                if drained > t:
                    write += drained - t
                    t = drained
            if stall and not buf.holds_addr(addr, t):
                stall = yield MemRequest(addr, False, t, stall)
                read += stall
                t += stall
        elif cls == _MC_WRITE or cls == _MC_RELEASE:
            floor = 0
            if cls == _MC_RELEASE and model.name in ("WO", "RC"):
                # A release may not perform before prior accesses; reads
                # already completed (blocking), writes via the buffer's
                # serialization floor.
                floor = buf.last_perform
            if stall and cls == _MC_WRITE:
                stall = yield MemRequest(addr, True, t, stall)
            t, full_stall = buf.push(
                t, stall, addr, perform_floor=floor
            )
            write += full_stall
            if wb_hist is not None:
                wb_hist.observe(len(buf._entries))
            if cls == _MC_RELEASE:
                last_release_perform = max(
                    last_release_perform, buf.last_perform
                )
                # The buffered release performs at the buffer's (now
                # maximal) perform time, possibly in this cpu's future.
                yield ReleaseNotify(cpu, ordinal, buf.last_perform, addr)
                ordinal += 1
        else:  # acquire or barrier
            if cls == _MC_BARRIER or not model.reads_bypass_writes:
                drained = buf.drain_time()
                if drained > t:
                    write += drained - t
                    t = drained
            elif (
                model.requires(MemClass.RELEASE, MemClass.ACQUIRE)
                and last_release_perform > t
            ):
                # WO keeps sync accesses ordered among themselves; RCpc
                # lets an acquire bypass a pending release.
                write += last_release_perform - t
                t = last_release_perform
            w = yield SyncRequest(cpu, ordinal, cls, t, wait, stall, addr)
            ordinal += 1
            sync += w + stall
            # A negative wait (wakeup granted before this processor's
            # virtual time) is kept in the accounting, but under a
            # network the clock must not run backwards.
            if not clamp_time or w + stall > 0:
                t += w + stall
    # Final drain so configurations are comparable end-to-end.
    drained = buf.drain_time()
    if drained > t:
        write += drained - t
        t = drained
    return ExecutionBreakdown(
        label=label or f"SSBR-{model.name}",
        busy=busy, sync=sync, read=read, write=write,
        instructions=len(trace),
    )


def simulate_ssbr(
    trace: Trace,
    model: ConsistencyModel,
    label: str | None = None,
    write_buffer_depth: int = WRITE_BUFFER_DEPTH,
    network=None,
    probe=None,
) -> ExecutionBreakdown:
    """Run the SSBR (static scheduling, blocking reads) model.

    With ``network`` set, every miss (the trace's baked stall marks
    hit/miss) is re-timed through the interconnect at the cycle the
    access begins, so miss latency varies with load.  Drives
    :func:`ssbr_stepper` to completion.
    """
    stepper = ssbr_stepper(
        trace, model, label=label,
        write_buffer_depth=write_buffer_depth,
        clamp_time=network is not None, probe=probe,
    )
    return drive(stepper, network=network, cpu=trace.cpu)


def ss_stepper(
    trace: Trace,
    model: ConsistencyModel,
    label: str | None = None,
    write_buffer_depth: int = WRITE_BUFFER_DEPTH,
    read_buffer_depth: int = READ_BUFFER_DEPTH,
    clamp_time: bool = False,
    probe=None,
):
    """The SS timing loop as a resumable stepper (see
    :func:`ssbr_stepper` for the protocol).  A read miss is requested at
    its *start* cycle — after read serialization under SC/PC — which may
    lie ahead of the processor's own clock."""
    cpu = trace.cpu
    buf = WriteBuffer(model, write_buffer_depth)
    wb_hist = _buffer_histogram(
        probe, "static.write_buffer_depth", write_buffer_depth
    )
    rb_hist = _buffer_histogram(
        probe, "static.read_buffer_depth", read_buffer_depth
    )
    reg_ready: dict[int, int] = {}
    outstanding: deque[int] = deque()  # perform times of pending reads
    t = 0
    busy = sync = read = write = 0
    last_read_perform = 0
    last_release_perform = 0
    ordinal = 0
    serialize_reads = model.name in ("SC", "PC")

    def all_reads_done() -> int:
        return max(outstanding) if outstanding else 0

    for cls, stall, wait, addr, rs1, rs2, rd in zip(
        trace.mem_class, trace.stall, trace.wait, trace.addr,
        trace.rs1, trace.rs2, trace.rd,
    ):
        t += 1
        busy += 1
        # Operand availability: only loads produce late values on an
        # in-order machine, so operand waits are read stalls.
        avail = t
        if rs1 >= 0:
            avail = max(avail, reg_ready.get(rs1, 0))
        if rs2 >= 0:
            avail = max(avail, reg_ready.get(rs2, 0))
        if avail > t:
            read += avail - t
            t = avail
        if cls == _MC_NONE:
            continue
        if cls == _MC_READ:
            while outstanding and outstanding[0] <= t:
                outstanding.popleft()
            if len(outstanding) >= read_buffer_depth:
                stall_until = outstanding[0]
                read += stall_until - t
                t = stall_until
                while outstanding and outstanding[0] <= t:
                    outstanding.popleft()
            start = t
            if not model.reads_bypass_writes:
                start = max(start, buf.drain_time())
                if start > t:
                    write += start - t
                    t = start
            if serialize_reads and last_read_perform > start:
                # SC/PC: this read may not begin until the previous read
                # performed; the processor itself does not stall.
                start = last_read_perform
            if stall and not buf.holds_addr(addr, t):
                stall = yield MemRequest(addr, False, start, stall)
                perform = start + stall
            else:
                perform = start
            last_read_perform = max(last_read_perform, perform)
            if perform > t:
                outstanding.append(perform)
                if rb_hist is not None:
                    rb_hist.observe(len(outstanding))
                if rd >= 0:
                    reg_ready[rd] = perform
        elif cls == _MC_WRITE or cls == _MC_RELEASE:
            floor = 0
            if cls == _MC_RELEASE and model.name in ("WO", "RC"):
                floor = max(buf.last_perform, all_reads_done())
            if stall and cls == _MC_WRITE:
                stall = yield MemRequest(addr, True, t, stall)
            t, full_stall = buf.push(
                t, stall, addr, perform_floor=floor
            )
            write += full_stall
            if wb_hist is not None:
                wb_hist.observe(len(buf._entries))
            if cls == _MC_RELEASE:
                last_release_perform = max(
                    last_release_perform, buf.last_perform
                )
                yield ReleaseNotify(cpu, ordinal, buf.last_perform, addr)
                ordinal += 1
        else:  # acquire or barrier
            if cls == _MC_BARRIER or not model.reads_bypass_writes:
                reads_done = all_reads_done()
                if reads_done > t:
                    read += reads_done - t
                    t = reads_done
                drained = buf.drain_time()
                if drained > t:
                    write += drained - t
                    t = drained
            elif (
                model.requires(MemClass.RELEASE, MemClass.ACQUIRE)
                and last_release_perform > t
            ):
                write += last_release_perform - t
                t = last_release_perform
            elif serialize_reads and last_read_perform > t:
                read += last_read_perform - t
                t = last_read_perform
            w = yield SyncRequest(cpu, ordinal, cls, t, wait, stall, addr)
            ordinal += 1
            sync += w + stall
            # A negative wait (wakeup granted before this processor's
            # virtual time) is kept in the accounting, but under a
            # network the clock must not run backwards.
            if not clamp_time or w + stall > 0:
                t += w + stall
            outstanding.clear()
    reads_done = all_reads_done()
    if reads_done > t:
        read += reads_done - t
        t = reads_done
    drained = buf.drain_time()
    if drained > t:
        write += drained - t
        t = drained
    return ExecutionBreakdown(
        label=label or f"SS-{model.name}",
        busy=busy, sync=sync, read=read, write=write,
        instructions=len(trace),
    )


def simulate_ss(
    trace: Trace,
    model: ConsistencyModel,
    label: str | None = None,
    write_buffer_depth: int = WRITE_BUFFER_DEPTH,
    read_buffer_depth: int = READ_BUFFER_DEPTH,
    network=None,
    probe=None,
) -> ExecutionBreakdown:
    """Run the SS (static scheduling, non-blocking reads) model.

    ``network`` re-times each miss at the cycle its access begins, and
    ``probe`` samples write-/read-buffer depths (see
    :func:`simulate_ssbr`).  Drives :func:`ss_stepper` to completion.
    """
    stepper = ss_stepper(
        trace, model, label=label,
        write_buffer_depth=write_buffer_depth,
        read_buffer_depth=read_buffer_depth,
        clamp_time=network is not None, probe=probe,
    )
    return drive(stepper, network=network, cpu=trace.cpu)
