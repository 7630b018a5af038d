"""The dynamically scheduled (Johnson-style) out-of-order processor."""

from .btb import BranchTargetBuffer
from .event_engine import DSConfig, ds_fast_stepper

__all__ = [
    "BranchTargetBuffer",
    "DSConfig",
    "ds_fast_stepper",
]
