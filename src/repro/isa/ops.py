"""Operation codes for the simulated RISC instruction set.

The instruction set is a small load/store RISC, deliberately shaped like the
MIPS-style ISA the original study traced: integer ALU ops, a shifter class,
floating point add/multiply/divide/convert classes, loads and stores, and
conditional branches.  On top of that it carries the ANL-macro style
synchronization operations (lock/unlock, barrier, event wait/set) that the
paper's applications use, so that the trace generator can annotate
synchronization stalls exactly the way Tango Lite did.

Each opcode is statically classified along the three axes every simulator in
this package cares about:

* its **functional-unit class** (:class:`FuClass`) — which reservation
  station / functional unit executes it in the dynamically scheduled core;
* its **memory class** (:class:`MemClass`) — whether the consistency model
  treats it as a read, a write, an acquire, a release, or a non-memory op;
* its **control flow** role (branch / jump / halt).
"""

from __future__ import annotations

import enum


class Op(enum.IntEnum):
    """Every operation the simulated machine can execute."""

    # Integer ALU --------------------------------------------------------
    ADD = enum.auto()
    SUB = enum.auto()
    MUL = enum.auto()
    DIV = enum.auto()
    REM = enum.auto()
    AND = enum.auto()
    OR = enum.auto()
    XOR = enum.auto()
    SLT = enum.auto()   # rd = 1 if rs1 < rs2 else 0
    SLE = enum.auto()
    SEQ = enum.auto()
    ADDI = enum.auto()
    MULI = enum.auto()
    ANDI = enum.auto()
    ORI = enum.auto()
    XORI = enum.auto()
    SLTI = enum.auto()

    # Shifter -------------------------------------------------------------
    SLL = enum.auto()
    SRL = enum.auto()
    SRA = enum.auto()
    SLLI = enum.auto()
    SRLI = enum.auto()
    SRAI = enum.auto()

    # Floating point ------------------------------------------------------
    FADD = enum.auto()
    FSUB = enum.auto()
    FNEG = enum.auto()
    FABS = enum.auto()
    FMOV = enum.auto()
    FMIN = enum.auto()
    FMAX = enum.auto()
    FLT = enum.auto()   # int rd = 1 if fs1 < fs2
    FLE = enum.auto()
    FEQ = enum.auto()
    FLI = enum.auto()   # load float immediate
    FMUL = enum.auto()
    FDIV = enum.auto()
    FSQRT = enum.auto()
    CVTIF = enum.auto()  # int -> fp
    CVTFI = enum.auto()  # fp -> int (truncate)

    # Memory --------------------------------------------------------------
    LW = enum.auto()    # load 4-byte integer word
    SW = enum.auto()    # store 4-byte integer word
    FLD = enum.auto()   # load 8-byte double
    FSD = enum.auto()   # store 8-byte double

    # Control flow ----------------------------------------------------------
    BEQ = enum.auto()
    BNE = enum.auto()
    BLT = enum.auto()
    BGE = enum.auto()
    BLE = enum.auto()
    BGT = enum.auto()
    J = enum.auto()
    JAL = enum.auto()
    JR = enum.auto()
    HALT = enum.auto()

    # Synchronization (ANL macro equivalents) -------------------------------
    LOCK = enum.auto()      # acquire mutual exclusion lock at address rs1
    UNLOCK = enum.auto()    # release lock at address rs1
    BARRIER = enum.auto()   # global barrier identified by address rs1
    EVWAIT = enum.auto()    # wait until event at address rs1 is set
    EVSET = enum.auto()     # set event at address rs1
    EVCLEAR = enum.auto()   # clear event at address rs1

    NOP = enum.auto()


class FuClass(enum.IntEnum):
    """Functional-unit class, one reservation station group per class.

    This mirrors Figure 2 of the paper (Johnson's processor): integer ALU,
    shifter, branch unit, load/store unit, plus the four floating point
    units (add, multiply, divide, convert) assumed to be on-chip.
    """

    INT_ALU = 0
    SHIFTER = 1
    BRANCH = 2
    LOAD_STORE = 3
    FP_ADD = 4
    FP_MUL = 5
    FP_DIV = 6
    FP_CVT = 7


class MemClass(enum.IntEnum):
    """How the consistency model classifies an operation.

    ``ACQUIRE`` operations are read-like synchronization (lock, event wait,
    the wait half of a barrier); ``RELEASE`` operations are write-like
    synchronization (unlock, event set).  A barrier is modelled as an
    acquire *and* a release, which is the strongest classification and the
    one release consistency requires.
    """

    NONE = 0
    READ = 1
    WRITE = 2
    ACQUIRE = 3
    RELEASE = 4
    BARRIER = 5


_INT_ALU_OPS = frozenset({
    Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.REM, Op.AND, Op.OR, Op.XOR,
    Op.SLT, Op.SLE, Op.SEQ, Op.ADDI, Op.MULI, Op.ANDI, Op.ORI, Op.XORI,
    Op.SLTI, Op.NOP,
})
_SHIFT_OPS = frozenset({Op.SLL, Op.SRL, Op.SRA, Op.SLLI, Op.SRLI, Op.SRAI})
_FP_ADD_OPS = frozenset({
    Op.FADD, Op.FSUB, Op.FNEG, Op.FABS, Op.FMOV, Op.FMIN, Op.FMAX,
    Op.FLT, Op.FLE, Op.FEQ, Op.FLI,
})
_FP_MUL_OPS = frozenset({Op.FMUL})
_FP_DIV_OPS = frozenset({Op.FDIV, Op.FSQRT})
_FP_CVT_OPS = frozenset({Op.CVTIF, Op.CVTFI})
_LOAD_OPS = frozenset({Op.LW, Op.FLD})
_STORE_OPS = frozenset({Op.SW, Op.FSD})
_COND_BRANCH_OPS = frozenset({Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BLE, Op.BGT})
_JUMP_OPS = frozenset({Op.J, Op.JAL, Op.JR})
_SYNC_OPS = frozenset({
    Op.LOCK, Op.UNLOCK, Op.BARRIER, Op.EVWAIT, Op.EVSET, Op.EVCLEAR,
})
_ACQUIRE_OPS = frozenset({Op.LOCK, Op.EVWAIT})
_RELEASE_OPS = frozenset({Op.UNLOCK, Op.EVSET, Op.EVCLEAR})


def fu_class(op: Op) -> FuClass:
    """Return the functional-unit class that executes ``op``.

    Synchronization operations go through the load/store unit: they are
    memory operations on synchronization variables, exactly as the ANL
    macros compile to loads and stores on a real machine.
    """
    if op in _INT_ALU_OPS:
        return FuClass.INT_ALU
    if op in _SHIFT_OPS:
        return FuClass.SHIFTER
    if op in _FP_ADD_OPS:
        return FuClass.FP_ADD
    if op in _FP_MUL_OPS:
        return FuClass.FP_MUL
    if op in _FP_DIV_OPS:
        return FuClass.FP_DIV
    if op in _FP_CVT_OPS:
        return FuClass.FP_CVT
    if op in _LOAD_OPS or op in _STORE_OPS or op in _SYNC_OPS:
        return FuClass.LOAD_STORE
    if op in _COND_BRANCH_OPS or op in _JUMP_OPS or op is Op.HALT:
        return FuClass.BRANCH
    raise ValueError(f"unclassified op {op!r}")


def mem_class(op: Op) -> MemClass:
    """Return the memory-consistency classification of ``op``."""
    if op in _LOAD_OPS:
        return MemClass.READ
    if op in _STORE_OPS:
        return MemClass.WRITE
    if op in _ACQUIRE_OPS:
        return MemClass.ACQUIRE
    if op in _RELEASE_OPS:
        return MemClass.RELEASE
    if op is Op.BARRIER:
        return MemClass.BARRIER
    return MemClass.NONE


def is_load(op: Op) -> bool:
    return op in _LOAD_OPS


def is_store(op: Op) -> bool:
    return op in _STORE_OPS


def is_mem(op: Op) -> bool:
    """True for plain data loads and stores (not synchronization)."""
    return op in _LOAD_OPS or op in _STORE_OPS


def is_sync(op: Op) -> bool:
    return op in _SYNC_OPS


def is_cond_branch(op: Op) -> bool:
    return op in _COND_BRANCH_OPS


def is_control(op: Op) -> bool:
    return op in _COND_BRANCH_OPS or op in _JUMP_OPS or op is Op.HALT


def mem_width(op: Op) -> int:
    """Access width in bytes for a load/store opcode."""
    if op in (Op.LW, Op.SW):
        return 4
    if op in (Op.FLD, Op.FSD):
        return 8
    raise ValueError(f"{op!r} is not a load/store")
