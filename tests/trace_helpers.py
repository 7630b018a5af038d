"""Builders for hand-crafted synthetic traces used by the CPU-model tests.

These make processor-timing tests precise: a trace is constructed
instruction by instruction with known stalls, and the expected cycle
counts can be derived by hand.
"""

from __future__ import annotations

from repro.consistency import RC, ConsistencyModel
from repro.cpu import ExecutionBreakdown, ProcessorConfig, simulate
from repro.isa import MemClass, Op
from repro.tango import Trace, TraceRecord


class TraceBuilder:
    """Builds a :class:`Trace` one synthetic record at a time."""

    def __init__(self) -> None:
        self.trace = Trace(cpu=0)
        self._pc = 0

    def _emit(self, **kwargs) -> TraceRecord:
        pc = kwargs.pop("pc", self._pc)
        next_pc = kwargs.pop("next_pc", pc + 1)
        record = TraceRecord(pc=pc, next_pc=next_pc, **kwargs)
        self.trace.append(record)
        self._pc = next_pc
        return record

    def alu(self, rd: int = -1, rs1: int = -1, rs2: int = -1):
        """One single-cycle integer instruction."""
        return self._emit(op=Op.ADD, rd=rd, rs1=rs1, rs2=rs2)

    def fp(self, rd: int = -1, rs1: int = -1, rs2: int = -1):
        return self._emit(op=Op.FADD, rd=rd, rs1=rs1, rs2=rs2)

    def load(self, rd: int = -1, addr: int = 0x1000, stall: int = 0,
             rs1: int = -1):
        return self._emit(
            op=Op.LW, rd=rd, rs1=rs1, addr=addr, stall=stall,
            mem_class=MemClass.READ,
        )

    def store(self, rs2: int = -1, addr: int = 0x1000, stall: int = 0,
              rs1: int = -1):
        return self._emit(
            op=Op.SW, rs1=rs1, rs2=rs2, addr=addr, stall=stall,
            mem_class=MemClass.WRITE,
        )

    def acquire(self, addr: int = 0x2000, stall: int = 50, wait: int = 0):
        return self._emit(
            op=Op.LOCK, rs1=1, addr=addr, stall=stall, wait=wait,
            mem_class=MemClass.ACQUIRE,
        )

    def release(self, addr: int = 0x2000, stall: int = 50):
        return self._emit(
            op=Op.UNLOCK, rs1=1, addr=addr, stall=stall,
            mem_class=MemClass.RELEASE,
        )

    def barrier(self, addr: int = 0x3000, stall: int = 50, wait: int = 0):
        return self._emit(
            op=Op.BARRIER, rs1=1, addr=addr, stall=stall, wait=wait,
            mem_class=MemClass.BARRIER,
        )

    def branch(self, taken: bool = False, target: int | None = None,
               rs1: int = -1, rs2: int = -1):
        pc = self._pc
        if taken:
            next_pc = target if target is not None else pc + 2
        else:
            next_pc = pc + 1
        return self._emit(
            op=Op.BNE, rs1=rs1, rs2=rs2, pc=pc, next_pc=next_pc
        )

    def build(self) -> Trace:
        return self.trace


def alu_block(tb: TraceBuilder, count: int) -> None:
    """Append ``count`` independent single-cycle instructions."""
    for _ in range(count):
        tb.alu()


def model_config(
    kind: str, model: ConsistencyModel = RC, **ds_fields
) -> ProcessorConfig:
    """One processor ``kind`` under ``model``; for DS, ``ds_fields`` are
    :class:`~repro.cpu.DSConfig` fields (``window=16``,
    ``prefetch=True``, ...), so ``ds_config()`` rebuilds exactly
    ``DSConfig(**ds_fields)``."""
    return ProcessorConfig(
        kind=kind, model=model.name,
        window=ds_fields.pop("window", 64),
        issue_width=ds_fields.pop("issue_width", 1),
        perfect_bp=ds_fields.pop("perfect_branch_prediction", False),
        ignore_deps=ds_fields.pop("ignore_data_dependences", False),
        ds=ds_fields,
    )


def run_model(
    trace: Trace, kind: str, model: ConsistencyModel = RC, **ds_fields
) -> ExecutionBreakdown:
    """:func:`repro.cpu.simulate` of :func:`model_config`'s processor."""
    return simulate(trace, model_config(kind, model, **ds_fields))
