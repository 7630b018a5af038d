"""Execution-driven co-simulation of all processors on one shared fabric.

The paper evaluates each processor model in isolation with a fixed miss
penalty; replaying one processor through a *fresh* network
(:func:`replay_solo`) adds its own queueing but nobody else's.  This
package closes the loop: every processor of the multiprocessor advances
against a **single shared** :mod:`repro.net` fabric with live directory
state, and each access's actual network latency — including queueing
behind the *other* processors' concurrent misses — feeds back into the
issuing CPU's timing.

The moving parts:

* :mod:`repro.cpu.requests` — every CPU model is a resumable stepper
  that suspends at each miss, acquire and release;
* :class:`CosimEngine` — the global scheduler interleaving all
  steppers' requests on the shared network in timestamp order, with
  cross-processor sync wait edges (live mode) resolved from the
  recorded :class:`repro.sync.SyncSchedule`;
* :func:`run_cosim` / :func:`replay_solo` — the high-level entry
  points.  The ``cosim`` CLI subcommand runs both (the shared fabric,
  then the traced processor solo); ``profile`` and the service's
  sweep jobs replay solo; the ``cosim`` batch job kind runs the
  shared fabric.
"""

from .engine import CosimEngine, CosimNode, CosimResult
from .report import format_cosim_report, run_cosim_app
from .run import build_node, replay_solo, run_cosim

__all__ = [
    "CosimEngine",
    "CosimNode",
    "CosimResult",
    "build_node",
    "format_cosim_report",
    "replay_solo",
    "run_cosim",
    "run_cosim_app",
]
