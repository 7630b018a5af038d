"""Multiprocessor trace generation (the Tango Lite equivalent)."""

from .executor import (
    DeadlockError,
    MultiprocessorConfig,
    RunResult,
    StepLimitExceeded,
    TangoExecutor,
)
from .interp import ExecutionError, StepResult, ThreadState, execute_instruction
from .stats import CpuStats, RunStats
from .trace import (
    TRACE_FORMAT_VERSION,
    Trace,
    TraceFormatError,
    TraceRecord,
)

__all__ = [
    "CpuStats",
    "DeadlockError",
    "ExecutionError",
    "MultiprocessorConfig",
    "RunResult",
    "RunStats",
    "StepLimitExceeded",
    "StepResult",
    "TRACE_FORMAT_VERSION",
    "TangoExecutor",
    "ThreadState",
    "Trace",
    "TraceFormatError",
    "TraceRecord",
    "execute_instruction",
]
