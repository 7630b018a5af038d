"""Simulated RISC instruction set: opcodes, registers, instructions, programs."""

from .instruction import Instruction
from .ops import (
    FuClass,
    MemClass,
    Op,
    fu_class,
    is_cond_branch,
    is_control,
    is_load,
    is_mem,
    is_store,
    is_sync,
    mem_class,
    mem_width,
)
from .program import Program, ProgramError
from .registers import (
    FP_BASE,
    NUM_FP_REGS,
    NUM_INT_REGS,
    NUM_REGS,
    RA,
    ZERO,
    fp_reg,
    int_reg,
    is_fp,
    reg_name,
)

__all__ = [
    "FP_BASE",
    "FuClass",
    "Instruction",
    "MemClass",
    "NUM_FP_REGS",
    "NUM_INT_REGS",
    "NUM_REGS",
    "Op",
    "Program",
    "ProgramError",
    "RA",
    "ZERO",
    "fp_reg",
    "fu_class",
    "int_reg",
    "is_cond_branch",
    "is_control",
    "is_fp",
    "is_load",
    "is_mem",
    "is_store",
    "is_sync",
    "mem_class",
    "mem_width",
    "reg_name",
]
