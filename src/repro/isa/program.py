"""Program container: a sealed list of instructions with resolved labels."""

from __future__ import annotations

from .compiled import compile_program
from .instruction import Instruction
from .ops import Op, is_control


class ProgramError(Exception):
    """Raised for malformed programs (duplicate/undefined labels, ...)."""


class Program:
    """An executable instruction sequence for one thread.

    A program is built by appending instructions and defining labels, then
    :meth:`seal`-ed, which resolves every symbolic label to an absolute
    instruction index and freezes the instruction list.  Only sealed
    programs can be executed.
    """

    def __init__(self, name: str = "program") -> None:
        self.name = name
        self.instructions: list[Instruction] = []
        self.labels: dict[str, int] = {}
        self._sealed = False
        # Compiled-execution artifacts, populated by seal() (see
        # repro.isa.compiled): per-pc kind (private, or which shared
        # operation) and the static (op, rd, rs1, rs2) tuple stamped into
        # traces.  The code itself is generated per run.
        self.kinds: list[int] | None = None
        self.trace_meta: list[tuple[int, int, int, int]] | None = None

    def __len__(self) -> int:
        return len(self.instructions)

    def append(self, instr: Instruction) -> int:
        """Append ``instr``; returns its instruction index."""
        if self._sealed:
            raise ProgramError(f"program {self.name!r} is sealed")
        self.instructions.append(instr)
        return len(self.instructions) - 1

    def define_label(self, label: str) -> None:
        """Bind ``label`` to the index of the next appended instruction."""
        if self._sealed:
            raise ProgramError(f"program {self.name!r} is sealed")
        if label in self.labels:
            raise ProgramError(f"duplicate label {label!r} in {self.name!r}")
        self.labels[label] = len(self.instructions)

    @property
    def sealed(self) -> bool:
        return self._sealed

    def seal(self) -> "Program":
        """Resolve labels, validate control flow, and freeze the program."""
        if self._sealed:
            return self
        if not self.instructions or self.instructions[-1].op is not Op.HALT:
            # Every thread program must terminate explicitly so the
            # executor can retire the thread.
            self.append(Instruction(Op.HALT))
        for idx, instr in enumerate(self.instructions):
            if instr.label is not None:
                if instr.label not in self.labels:
                    raise ProgramError(
                        f"undefined label {instr.label!r} at instruction "
                        f"{idx} of {self.name!r}"
                    )
                instr.target = self.labels[instr.label]
            elif is_control(instr.op) and instr.op not in (Op.JR, Op.HALT):
                raise ProgramError(
                    f"control instruction without target at {idx} "
                    f"of {self.name!r}: {instr}"
                )
            if instr.target is not None and not (
                0 <= instr.target <= len(self.instructions)
            ):
                raise ProgramError(
                    f"branch target out of range at {idx} of {self.name!r}"
                )
        self._sealed = True
        self.kinds, self.trace_meta = compile_program(self)
        return self

    def disassemble(self) -> str:
        """Textual listing, one instruction per line, labels inlined."""
        by_index: dict[int, list[str]] = {}
        for label, idx in self.labels.items():
            by_index.setdefault(idx, []).append(label)
        lines = []
        for idx, instr in enumerate(self.instructions):
            for label in by_index.get(idx, ()):
                lines.append(f"{label}:")
            lines.append(f"  {idx:5d}  {instr}")
        return "\n".join(lines)
