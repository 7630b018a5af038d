"""Memory-consistency verification: recorder, axiomatic checker, litmus.

Three layers (see ISSUE/ROADMAP and the paper's correctness concerns):

* :mod:`repro.verify.events` / :mod:`repro.verify.recorder` — the
  opt-in execution recorder threaded through the Tango executor and the
  coherence protocol;
* :mod:`repro.verify.checker` — the polynomial-time axiomatic checker
  that builds each model's happens-before graph and reports cycles;
* :mod:`repro.verify.relaxed` / :mod:`repro.verify.litmus` /
  :mod:`repro.verify.harness` — the model-aware store-buffer engine,
  the litmus-test catalog, and the app/litmus harnesses behind
  ``python -m repro verify``.
"""

from .checker import (
    CheckResult,
    Violation,
    check_execution,
)
from .events import EventLog, MemEvent
from .harness import (
    AppVerifyResult,
    tango_crosscheck,
    verify_app,
    verify_apps,
)
from .litmus import (
    ALL_MODELS,
    CATALOG,
    LitmusResult,
    LitmusTest,
    format_litmus_report,
    run_litmus,
    verify_litmus,
)
from .recorder import ExecutionRecorder
from .relaxed import RelaxedEngine, RelaxedExecutionError

__all__ = [
    "ALL_MODELS",
    "AppVerifyResult",
    "CATALOG",
    "CheckResult",
    "EventLog",
    "ExecutionRecorder",
    "LitmusResult",
    "LitmusTest",
    "MemEvent",
    "RelaxedEngine",
    "RelaxedExecutionError",
    "Violation",
    "check_execution",
    "format_litmus_report",
    "run_litmus",
    "tango_crosscheck",
    "verify_app",
    "verify_apps",
    "verify_litmus",
]
