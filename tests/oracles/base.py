"""BASE — the fully serial in-order reference processor, row by row.

The scalar oracle of :func:`repro.cpu.static_fast.base_fast_stepper`.

The left-most column of every graph in the paper's Figure 3: an in-order
processor that completes each operation before initiating the next one.
There is no overlap of any kind, so execution time is simply the sum of
one cycle per instruction plus every memory stall and every
synchronization wait, and the breakdown attribution is exact by
construction.

The timing loop lives in :func:`base_stepper`, a resumable stepper
(:mod:`repro.cpu.requests`): it suspends at every miss and every
acquire, so the same model runs standalone (:func:`simulate_base`
drives it with the trace's baked latencies or a private network) and
under the co-simulation engine, where the answers come from the shared
fabric and from other processors' progress.
"""

from __future__ import annotations

from repro.cpu.requests import MemRequest, ReleaseNotify, SyncRequest, drive
from repro.cpu.results import ExecutionBreakdown
from repro.isa import MemClass
from repro.tango import Trace

_MC_READ = int(MemClass.READ)
_MC_WRITE = int(MemClass.WRITE)
_MC_ACQUIRE = int(MemClass.ACQUIRE)
_MC_RELEASE = int(MemClass.RELEASE)
_MC_BARRIER = int(MemClass.BARRIER)


def base_stepper(
    trace: Trace, label: str = "BASE", clamp_time: bool = False
):
    """The BASE timing loop as a resumable stepper.

    One access at a time: each miss is requested at the cycle the serial
    processor reaches it.  With ``clamp_time`` set the clock never runs
    backwards on a negative sync wait (a wakeup granted before this
    processor's virtual time) — the network-replay behaviour; without it
    the accounting matches the closed-form fixed-penalty sums.
    """
    cpu = trace.cpu
    sync = 0
    read = 0
    write = 0
    t = 0
    ordinal = 0
    for cls, stall, wait, addr in zip(
        trace.mem_class, trace.stall, trace.wait, trace.addr
    ):
        t += 1
        if cls == _MC_READ:
            if stall:
                lat = yield MemRequest(addr, False, t, stall)
                read += lat
                t += lat
        elif cls == _MC_WRITE:
            if stall:
                lat = yield MemRequest(addr, True, t, stall)
                write += lat
                t += lat
        elif cls == _MC_RELEASE:
            # Sync-variable access latency is not a coherence miss.
            write += stall
            t += stall
            yield ReleaseNotify(cpu, ordinal, t, addr)
            ordinal += 1
        elif cls == _MC_ACQUIRE or cls == _MC_BARRIER:
            w = yield SyncRequest(cpu, ordinal, cls, t, wait, stall, addr)
            ordinal += 1
            sync += w + stall
            # The trace can carry a negative wait; the accounting keeps
            # it, but a stateful network's clock must not run backwards.
            if not clamp_time or w + stall > 0:
                t += w + stall
    return ExecutionBreakdown(
        label=label,
        busy=len(trace),
        sync=sync,
        read=read,
        write=write,
        instructions=len(trace),
    )


def simulate_base(
    trace: Trace, label: str = "BASE", network=None
) -> ExecutionBreakdown:
    """Run the BASE model over a trace by driving its stepper.

    With a :class:`repro.net.ContentionNetwork` attached, each miss's
    latency is re-timed through the interconnect at the cycle the
    serial processor reaches it, instead of using the trace's baked
    stall (which then only marks hit/miss).
    """
    stepper = base_stepper(
        trace, label=label, clamp_time=network is not None
    )
    return drive(stepper, network=network, cpu=trace.cpu)
