"""Compiled execution: generated Python for runs of private instructions.

The trace generator (:mod:`repro.tango.executor`) schedules a thread only
at its *shared* instructions — loads, stores, synchronization and
``HALT`` — and runs the *private* ones in between (ALU/FP, branches,
jumps: registers only, one cycle each) ahead in one go.  This module
supplies the code for that:

* :func:`compile_program`, run by :meth:`~repro.isa.program.Program.seal`,
  classifies every instruction (``kinds``) and records the static ``(op,
  rd, rs1, rs2)`` tuple stamped into its trace rows (``trace_meta``);
* :class:`BlockCompiler` generates, on first use in a run, one Python
  function per *superblock*: straight-line source over the register
  list that starts at a private pc, follows unconditional jumps, leaves
  at each conditional branch it takes and otherwise runs on to the next
  shared instruction.  A load or store compiles to a *segment*: the
  access itself (effective address, alignment check, the read or write
  of :class:`~repro.mem.memory.SharedMemory`'s ``words``/``doubles``
  dict) followed by the superblock after it, so the executor makes one
  call per shared access.  Code is compiled once per shape, its
  immediates bound per thread as default arguments, so threads that
  differ only in constants share it; the compiler, and every function
  it made, lives as long as its run.  Each exit of a block registers the
  static trace rows of the instructions it ran in the run's
  :class:`~repro.tango.trace.RowTemplates`, once, and carries the id, so
  a traced thread logs one int per block.

The reference semantics remain :func:`repro.tango.interp.execute_instruction`
(the ``compiled=False`` engine), and the generated code matches it
exactly: comparison results are int 1/0, a write to register 0 is
computed and discarded, and the same faults are raised (division by
zero, negative square root, misalignment).
"""

from __future__ import annotations

import math
from types import FunctionType

from ..mem.memory import MemoryError_
from .ops import MemClass, Op

K_PRIVATE = 0
K_LOAD = 1
K_STORE = 2
K_SYNC = 3
K_HALT = 4

#: Generated functions are compiled under this file name, so a fault's
#: traceback line can be mapped back to its instruction.
BLOCK_FILENAME = "<tango-block>"


class CompileError(Exception):
    """An instruction could not be translated (unclassified opcode)."""


class PcOutOfRange(Exception):
    """A ``JR`` jumped to a negative pc (carried in ``args[0]``)."""


def _trunc_div(a: int, b: int) -> int:
    # Mirrors repro.tango.interp._trunc_div (C-style truncating division).
    if b == 0:
        from ..tango.interp import ExecutionError
        raise ExecutionError("integer division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _trunc_rem(a: int, b: int) -> int:
    return a - b * _trunc_div(a, b)


def _fdiv(a, b):
    if b == 0.0:
        from ..tango.interp import ExecutionError
        raise ExecutionError("floating point division by zero")
    return a / b


def _fsqrt(a):
    if a < 0.0:
        from ..tango.interp import ExecutionError
        raise ExecutionError("sqrt of negative value")
    return math.sqrt(a)


def _misaligned(access: str, addr):
    return MemoryError_(f"misaligned {access} at {addr:#x}")


def _jr(target: int, exit_):
    """A ``JR`` exit: ``exit_`` with its next pc set (its template leaves
    the ``JR`` row's to the row after it)."""
    if target < 0:
        raise PcOutOfRange(target)
    _, n, branches, template = exit_
    return target, n, branches, template


#: Names the generated source may use.
_GLOBALS = {
    "_div": _trunc_div, "_rem": _trunc_rem, "_fdiv": _fdiv,
    "_fsqrt": _fsqrt, "_jr": _jr, "_misaligned": _misaligned,
}

# Private ALU/FP bodies as source templates over ``{a}``/``{b}`` (the
# source registers) and ``{i}`` (the immediate), written so result types
# match the reference interpreter exactly.
_EXPR = {
    Op.ADD: "{a} + {b}", Op.SUB: "{a} - {b}", Op.MUL: "{a} * {b}",
    Op.DIV: "_div({a}, {b})", Op.REM: "_rem({a}, {b})",
    Op.AND: "{a} & {b}", Op.OR: "{a} | {b}", Op.XOR: "{a} ^ {b}",
    Op.SLT: "1 if {a} < {b} else 0", Op.SLE: "1 if {a} <= {b} else 0",
    Op.SEQ: "1 if {a} == {b} else 0",
    Op.ADDI: "{a} + {i}", Op.MULI: "{a} * {i}", Op.ANDI: "{a} & {i}",
    Op.ORI: "{a} | {i}", Op.XORI: "{a} ^ {i}",
    Op.SLTI: "1 if {a} < {i} else 0",
    Op.SLL: "{a} << {b}", Op.SRL: "{a} >> {b}", Op.SRA: "{a} >> {b}",
    Op.SLLI: "{a} << {i}", Op.SRLI: "{a} >> {i}", Op.SRAI: "{a} >> {i}",
    Op.FADD: "{a} + {b}", Op.FSUB: "{a} - {b}", Op.FMUL: "{a} * {b}",
    Op.FDIV: "_fdiv({a}, {b})", Op.FSQRT: "_fsqrt({a})",
    Op.FNEG: "-{a}", Op.FABS: "abs({a})", Op.FMOV: "{a}",
    Op.FMIN: "min({a}, {b})", Op.FMAX: "max({a}, {b})",
    Op.FLT: "1 if {a} < {b} else 0", Op.FLE: "1 if {a} <= {b} else 0",
    Op.FEQ: "1 if {a} == {b} else 0",
    Op.FLI: "{i}", Op.CVTIF: "float({a})", Op.CVTFI: "int({a})",
}

_COND = {
    Op.BEQ: "==", Op.BNE: "!=", Op.BLT: "<", Op.BGE: ">=", Op.BLE: "<=",
    Op.BGT: ">",
}

#: Loads and stores: (kind, width, backing dict, default read value).
_ACCESS = {
    Op.LW: (K_LOAD, 4, "words", "0"), Op.FLD: (K_LOAD, 8, "doubles", "0.0"),
    Op.SW: (K_STORE, 4, "words", ""), Op.FSD: (K_STORE, 8, "doubles", ""),
}

_SYNC_OPS = frozenset({
    Op.LOCK, Op.UNLOCK, Op.BARRIER, Op.EVWAIT, Op.EVSET, Op.EVCLEAR,
})


def _reg(reg) -> str:
    """Source text of register ``reg`` (ids may be ``int`` subclasses)."""
    return f"r[{None if reg is None else int(reg)}]"


def _access_lines(instr, imm: str) -> list[str]:
    """Source of a load or store (offset ``imm``): address ``a``, the
    alignment check, the read or write."""
    kind, width, store, default = _ACCESS[instr.op]
    name = ("double " if width == 8 else "word ") + (
        "read" if kind == K_LOAD else "write"
    )
    lines = [
        f"a = {_reg(instr.rs1)} + {imm}",
        f"if a % {width}: raise _misaligned({name!r}, a)",
    ]
    if kind == K_STORE:
        lines.append(f"{store}[a] = {_reg(instr.rs2)}")
    elif instr.rd:
        lines.append(f"{_reg(instr.rd)} = {store}.get(a, {default})")
    return lines


def compile_program(program):
    """Classify a sealed program; returns ``(kinds, trace_meta)``.

    ``kinds[pc]`` is ``K_PRIVATE``/``K_LOAD``/``K_STORE``/``K_SYNC``/
    ``K_HALT`` and ``trace_meta[pc]`` the static ``(op, rd, rs1, rs2)``
    tuple (-1 for absent operands, matching
    :class:`repro.tango.trace.Trace`).
    """
    kinds, trace_meta = [], []
    for instr in program.instructions:
        op = instr.op
        if op in _ACCESS:
            kind = _ACCESS[op][0]
        elif op in _SYNC_OPS:
            kind = K_SYNC
        elif op is Op.HALT:
            kind = K_HALT
        elif op in _EXPR or op in _COND or op in (
            Op.NOP, Op.J, Op.JAL, Op.JR
        ):
            kind = K_PRIVATE
        else:
            raise CompileError(f"opcode {op.name} has no compiled semantics")
        kinds.append(kind)
        trace_meta.append((
            int(op),
            -1 if instr.rd is None else instr.rd,
            -1 if instr.rs1 is None else instr.rs1,
            -1 if instr.rs2 is None else instr.rs2,
        ))
    return kinds, trace_meta


class BlockCompiler:
    """Generates the private code of one run's programs.

    A superblock starts at a private pc and follows the program's
    fall-through path — through unconditional jumps and past conditional
    branches, each a side exit when taken — until it meets a shared
    instruction, a ``JR`` or a pc already on its path.  It compiles to
    ``fn(regs)`` returning its exit's tuple ``(next_pc, instructions,
    branches, template)``: the private instructions it executed, the
    conditional branches among them and the id of their trace rows'
    template in ``templates``.  A load or store compiles to a segment,
    ``fn(regs, words, doubles)`` returning ``(address, exit)`` for the
    superblock that follows it (possibly empty); its exits' templates
    start with the access's row, whose address and stall the executor
    logs.  ``fn.line_pcs[k]`` is the pc of line ``k + 2`` of the source,
    for fault messages.

    Threads whose code is the same at the same pcs share one function,
    and ones that differ only in immediates share its code object.
    """

    def __init__(self, templates) -> None:
        self._templates = templates
        self._shapes: dict[tuple, object] = {}
        self._blocks: dict[tuple, object] = {}

    def block(self, program, pc: int):
        """The superblock or segment of ``program`` that starts at
        ``pc``; only code no thread has run yet is generated."""
        instrs, kinds = program.instructions, program.kinds
        start, path, exits = pc, [], []
        segment = kinds[pc] != K_PRIVATE
        nxt = pc + segment
        while (nxt < len(instrs) and kinds[nxt] == K_PRIVATE
               and nxt not in path):
            pc = nxt
            op = instrs[pc].op
            path.append(pc)
            nxt = pc + 1
            if op in _COND:  # a side exit when taken
                exits.append((len(path), instrs[pc].target))
            elif op is Op.JR:
                exits.append((len(path), -1))  # the pc comes at run time
                break
            elif op is Op.J or op is Op.JAL:
                nxt = instrs[pc].target
        else:
            exits.append((len(path), nxt))
        code = [instrs[p] for p in [start] * segment + path]
        shape = (start, segment) + tuple(
            (i.op, i.rd, i.rs1, i.rs2, i.target, i.imm is None) for i in code
        )
        imms = tuple(i.imm for i in code if i.imm is not None)
        key = (shape,) + tuple(
            repr(v) if isinstance(v, float) else v for v in imms
        )
        fn = self._blocks.get(key)
        if fn is None:
            proto = self._shapes.get(shape)
            if proto is None:
                proto = self._shapes[shape] = self._generate(
                    start, code, path, len(exits)
                )
            fn = self._blocks[key] = FunctionType(
                proto.__code__, proto.__globals__, "block",
                tuple(self._exit(program, [start] * segment + path[:n], nxt)
                      for n, nxt in exits) + imms,
            )
            fn.line_pcs = proto.line_pcs
        return fn

    @staticmethod
    def _generate(start: int, code, path, n_exits: int):
        """Compile a block's code, its exits parameters ``_x0``... and its
        immediates ``_k0``..., both bound per thread."""
        lines, line_pcs = [], []
        args, out = "r", "{}"
        imms = (f"_k{k}" for k in range(len(code)))
        if len(code) > len(path):  # a segment: the access comes first
            imm = "None" if code[0].imm is None else next(imms)
            lines = _access_lines(code[0], imm)
            line_pcs = [start] * len(lines)
            args, out = "r, words, doubles", "(a, {})"
        x = 0  # the next exit's index
        for pc, instr in zip(path, code[len(code) - len(path):]):
            op = instr.op
            a, b = _reg(instr.rs1), _reg(instr.rs2)
            imm = "None" if instr.imm is None else next(imms)
            if op in _EXPR:
                expr = _EXPR[op].format(a=a, b=b, i=imm)
                lines.append(
                    f"{_reg(instr.rd)} = {expr}" if instr.rd else expr
                )
            elif op in _COND:
                lines.append(
                    f"if {a} {_COND[op]} {b}: return {out.format(f'_x{x}')}"
                )
                x += 1
            elif op is Op.JR:
                lines.append(f"return {out.format(f'_jr({a}, _x{x})')}")
            elif op is Op.JAL and instr.rd:
                lines.append(f"{_reg(instr.rd)} = {pc + 1}")
            else:  # NOP, J, JAL to register 0: no code
                continue
            line_pcs.append(pc)
        if x < n_exits:  # fell off the end rather than through a JR
            lines.append(f"return {out.format(f'_x{x}')}")
        params = [f"_x{j}" for j in range(n_exits)] + [
            f"_k{k}" for k in range(sum(i.imm is not None for i in code))
        ]
        source = "def block({}{}):\n    {}\n".format(
            args, "".join(f", {name}=None" for name in params),
            "\n    ".join(lines),
        )
        namespace = dict(_GLOBALS)
        exec(compile(source, BLOCK_FILENAME, "exec"), namespace)
        proto = namespace["block"]
        proto.line_pcs = line_pcs
        return proto

    def _exit(self, program, pcs, nxt: int):
        """The exit tuple of a block that ran ``pcs`` into ``nxt``, its
        rows registered as one template."""
        kinds, meta = program.kinds, program.trace_meta
        rows = [
            (op, pc, npc, rd, rs1, rs2, int(MemClass.NONE))
            for pc, npc, (op, rd, rs1, rs2) in zip(
                pcs, pcs[1:] + [nxt], map(meta.__getitem__, pcs)
            )
        ]
        segment = kinds[pcs[0]] != K_PRIVATE
        if segment:  # the access comes first
            mc = MemClass.READ if kinds[pcs[0]] == K_LOAD else MemClass.WRITE
            rows[0] = rows[0][:6] + (int(mc),)
        path = pcs[segment:]
        branches = sum(program.instructions[p].op in _COND for p in path)
        return nxt, len(path), branches, self._templates.add(rows)
