"""Compiler-style read scheduling — the paper's named future work.

Sections 5 and 7 of the paper point at an alternative to out-of-order
hardware: *"compiler rescheduling may allow dynamic processors with small
windows or statically scheduled processors with non-blocking reads to
effectively hide read latency"* by moving loads away from the first use
of their value.

This module implements that idea as a trace transformation.  Within each
dynamic basic block (a run of instructions between control transfers —
the region a simple list scheduler can reorder), every load is hoisted as
far toward the top of the block as its dependences allow:

* it cannot move above an instruction that writes one of its source
  registers (true dependence on the address computation);
* it cannot move above an instruction that reads or writes its own
  destination register (anti/output dependence — a compiler has already
  allocated registers here);
* it cannot move above a store or synchronization operation to preserve
  the memory model visible to other processors (a conservative compiler
  barrier, matching what a correct scheduler for SC/PC must do; under RC
  a data store could be crossed, but staying conservative keeps one
  transformation valid for every model);
* the hoist distance is capped (``MAX_HOIST``), modelling the scheduler's
  limited scope.

The transformed trace is then run through the SS processor (static
scheduling, non-blocking reads): the load-to-use distance the compiler
created is exactly what SS converts into hidden latency.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa import MemClass, is_control
from ..tango import Trace, TraceRecord


@dataclass
class ScheduleStats:
    """What the pass did, for reporting and tests."""

    loads_seen: int = 0
    loads_moved: int = 0
    total_hoist: int = 0

    @property
    def average_hoist(self) -> float:
        return self.total_hoist / self.loads_moved if self.loads_moved \
            else 0.0


def _blocks(records: list[TraceRecord]):
    """Split the dynamic trace into scheduler regions.

    A region ends at any control transfer (taken or not: the compiler
    schedules within static basic blocks, and a branch instruction ends
    one), at synchronization, and at stores (conservative memory
    barrier).  The boundary instruction belongs to the region it ends.
    """
    start = 0
    for i, record in enumerate(records):
        cls = record.mem_class
        boundary = (
            is_control(record.op)
            or cls == MemClass.WRITE
            or cls in (MemClass.ACQUIRE, MemClass.RELEASE,
                       MemClass.BARRIER)
        )
        if boundary:
            yield start, i + 1
            start = i + 1
    if start < len(records):
        yield start, len(records)


#: The furthest a load moves up its region (instructions).
MAX_HOIST = 32


def schedule_reads_early(trace: Trace) -> tuple[Trace, ScheduleStats]:
    """Hoist loads toward their region tops; returns a new trace.

    The returned trace preserves per-region instruction multisets and all
    register dependences, so the functional execution is unchanged; only
    the *order* (and therefore the overlap available to a non-blocking
    processor) differs.
    """
    records = list(trace.records)
    stats = ScheduleStats()
    for start, end in _blocks(records):
        region = records[start:end]
        for i in range(len(region)):
            record = region[i]
            if record.mem_class != MemClass.READ:
                continue
            stats.loads_seen += 1
            srcs = {r for r in (record.rs1, record.rs2) if r > 0}
            dest = record.rd
            j = i
            while j > 0 and (i - j) < MAX_HOIST:
                above = region[j - 1]
                # Within a region only plain instructions and other loads
                # occur (stores/sync/branches end regions); loads may
                # cross each other -- the compiler defines program order.
                if above.rd > 0 and (
                    above.rd in srcs or above.rd == dest
                ):
                    break  # true or output dependence
                if dest > 0 and dest in (above.rs1, above.rs2):
                    break  # anti dependence
                j -= 1
            if j < i:
                region.insert(j, region.pop(i))
                stats.loads_moved += 1
                stats.total_hoist += i - j
        records[start:end] = region
    return Trace.from_records(records, cpu=trace.cpu), stats
