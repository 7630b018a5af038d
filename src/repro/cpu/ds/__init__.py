"""The dynamically scheduled (Johnson-style) out-of-order processor."""

from .btb import BranchTargetBuffer, predicted_correctly
from .engine import DSConfig, DSProcessor, simulate_ds
from .event_engine import ds_fast_stepper, simulate_ds_fast

__all__ = [
    "BranchTargetBuffer",
    "DSConfig",
    "DSProcessor",
    "ds_fast_stepper",
    "predicted_correctly",
    "simulate_ds",
    "simulate_ds_fast",
]
