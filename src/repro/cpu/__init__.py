"""Trace-driven processor models: BASE, SSBR, SS, and DS.

The four architectures of the paper's §4.1, all consuming the annotated
traces produced by :mod:`repro.tango`:

* ``BASE`` — in-order, no overlap at all (the normalisation reference);
* ``SSBR`` — statically scheduled, blocking reads, 16-deep write buffer;
* ``SS`` — statically scheduled, non-blocking reads (stall at first use);
* ``DS`` — dynamically scheduled with a reorder-buffer window of 16-256.

Each model has one implementation: the event-driven resumable steppers
(:mod:`repro.cpu.requests`) of :mod:`repro.cpu.static_fast` —
:func:`base_fast_stepper`, and :func:`ss_fast_stepper` for SS and, with
blocking reads, SSBR — and :mod:`repro.cpu.ds.event_engine` —
:func:`ds_fast_stepper`.  :func:`make_stepper` maps a
:class:`ProcessorConfig` onto one of them, and :func:`simulate` is the
one standalone entry point that drives it to completion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..consistency import ConsistencyModel, get_model
from ..tango import Trace
from .ds import BranchTargetBuffer, DSConfig, ds_fast_stepper
from .requests import MemRequest, ReleaseNotify, SyncRequest, drive
from .scheduling import ScheduleStats, schedule_reads_early
from .results import ExecutionBreakdown
from .static_fast import WriteBuffer, base_fast_stepper, ss_fast_stepper


@dataclass
class ProcessorConfig:
    """Uniform description of one processor/consistency configuration.

    Attributes:
        kind: "base", "ssbr", "ss" or "ds".
        model: consistency model name ("SC", "PC", "WO", "RC"); ignored
            for "base".
        window: reorder-buffer size for the DS processor.
        issue_width: instructions decoded/retired per cycle (DS only).
        perfect_bp: perfect branch prediction (DS only, Figure 4).
        ignore_deps: ignore register data dependences (DS only, Figure 4).
        ds: extra knobs forwarded into :class:`DSConfig`.
    """

    kind: str = "ds"
    model: str = "RC"
    window: int = 64
    issue_width: int = 1
    perfect_bp: bool = False
    ignore_deps: bool = False
    ds: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Only DS reads these fields (the service canonicalises the
        # unused window of the static kinds to 0).
        if self.kind.lower() == "ds":
            self.ds_config()  # rejects a degenerate window/width/buffer

    def ds_config(self) -> DSConfig:
        """The :class:`DSConfig` this describes (kind "ds")."""
        return DSConfig(
            window=self.window,
            issue_width=self.issue_width,
            perfect_branch_prediction=self.perfect_bp,
            ignore_data_dependences=self.ignore_deps,
            **self.ds,
        )

    def label(self) -> str:
        if self.kind == "base":
            return "BASE"
        name = f"{self.kind.upper()}-{self.model.upper()}"
        if self.kind == "ds":
            name += f"-w{self.window}"
            if self.issue_width != 1:
                name += f"-i{self.issue_width}"
            if self.perfect_bp:
                name += "-pbp"
            if self.ignore_deps:
                name += "-nodep"
            if self.ds.get("prefetch"):
                name += "+pf"
            if self.ds.get("speculative_loads"):
                name += "+spec"
        return name


def make_stepper(
    trace: Trace,
    config: ProcessorConfig,
    coupled: bool = False,
    live_sync: bool = False,
    probe=None,
):
    """The configured processor model over ``trace`` as a stepper.

    The only kind dispatch: :func:`simulate` drives the result
    standalone, :mod:`repro.cosim` steps it against the shared fabric.
    ``coupled`` is each stepper's one coupling flag.  For the static
    models it is ``clamp_time``: a stateful network consumes the request
    times, so the clock must not run backwards on a negative sync wait.
    For the DS engine it says somebody else (a network, the
    co-simulation engine) emits spans from ``probe`` while the stepper
    is suspended, which rules out its deferred retire-span pass.
    ``live_sync`` is an input of the DS model only (every acquire then
    waits at the reorder-buffer head for its answer); the static models
    request every sync operation either way.
    """
    kind = config.kind.lower()
    label = config.label()
    if kind == "base":
        return base_fast_stepper(trace, label=label, clamp_time=coupled)
    if kind == "ssbr" or kind == "ss":
        return ss_fast_stepper(
            trace, get_model(config.model), label=label,
            clamp_time=coupled, probe=probe,
            blocking_reads=kind == "ssbr",
        )
    if kind != "ds":
        raise ValueError(f"unknown processor kind {config.kind!r}")
    return ds_fast_stepper(
        trace, get_model(config.model), config.ds_config(), label=label,
        probe=probe, coupled=coupled, live_sync=live_sync,
    )


def simulate(
    trace: Trace, config: ProcessorConfig, network=None, probe=None
) -> ExecutionBreakdown:
    """Run the configured processor model over ``trace``.

    ``network`` (a :class:`repro.net.ContentionNetwork`) re-times every
    miss through a contended interconnect at the cycle the model issues
    it; None keeps the trace's baked fixed-penalty stalls.  ``probe``
    (a :class:`repro.obs.Probe`) collects occupancy histograms, retire
    spans (DS), and the resulting breakdown; results are byte-identical
    with or without one.
    """
    stepper = make_stepper(
        trace, config, coupled=network is not None, probe=probe
    )
    breakdown = drive(stepper, network=network, cpu=trace.cpu)
    if probe is not None and probe.enabled:
        probe.publish_breakdown(breakdown)
    return breakdown


__all__ = [
    "BranchTargetBuffer",
    "ConsistencyModel",
    "DSConfig",
    "ExecutionBreakdown",
    "MemRequest",
    "ProcessorConfig",
    "ReleaseNotify",
    "ScheduleStats",
    "SyncRequest",
    "WriteBuffer",
    "drive",
    "make_stepper",
    "schedule_reads_early",
    "simulate",
]
