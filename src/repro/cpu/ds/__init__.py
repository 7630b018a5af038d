"""The dynamically scheduled (Johnson-style) out-of-order processor."""

from .btb import BranchTargetBuffer, predicted_correctly
from .event_engine import DSConfig, ds_fast_stepper

__all__ = [
    "BranchTargetBuffer",
    "DSConfig",
    "ds_fast_stepper",
    "predicted_correctly",
]
