"""Trace-driven processor models: BASE, SSBR, SS, and DS.

The four architectures of the paper's §4.1, all consuming the annotated
traces produced by :mod:`repro.tango`:

* ``BASE`` — in-order, no overlap at all (the normalisation reference);
* ``SSBR`` — statically scheduled, blocking reads, 16-deep write buffer;
* ``SS`` — statically scheduled, non-blocking reads (stall at first use);
* ``DS`` — dynamically scheduled with a reorder-buffer window of 16-256.

Every model, scalar oracle or fast engine, is a resumable stepper
(:mod:`repro.cpu.requests`); :func:`make_stepper` is the one place that
maps a :class:`ProcessorConfig` onto an implementation.  Use
:func:`simulate` for a uniform standalone entry point, or call the
per-model functions directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..consistency import ConsistencyModel, get_model
from ..tango import Trace
from .base import base_stepper, simulate_base
from .ds import (
    BranchTargetBuffer,
    DSConfig,
    DSProcessor,
    ds_fast_stepper,
    simulate_ds,
    simulate_ds_fast,
)
from .multicontext import (
    MultiContextConfig,
    MultiContextProcessor,
    simulate_multicontext,
)
from .requests import MemRequest, ReleaseNotify, SyncRequest, drive
from .scheduling import ScheduleStats, schedule_reads_early
from .results import ExecutionBreakdown
from .static import (
    WriteBuffer,
    simulate_ss,
    simulate_ssbr,
    ss_stepper,
    ssbr_stepper,
)
from .static_fast import (
    base_fast_stepper,
    simulate_base_fast,
    simulate_ss_fast,
    simulate_ssbr_fast,
    ss_fast_stepper,
    ssbr_fast_stepper,
)


# Process-wide default for ProcessorConfig.engine, so one switch (the
# CLI's global --engine flag) retargets every config built afterwards.
# Configs are built before any process-pool fan-out and pickle the
# resolved value with them, so workers inherit the choice.
DEFAULT_ENGINE = "fast"


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
        engine: "fast" (default) runs the vectorized/event-driven
            engines of :mod:`repro.cpu.static_fast` and
            :mod:`repro.cpu.ds.event_engine`; "reference" runs the
            scalar oracles.  Results are byte-identical either way —
            the choice only affects throughput.
    """

    kind: str = "ds"
    model: str = "RC"
    window: int = 64
    issue_width: int = 1
    perfect_bp: bool = False
    ignore_deps: bool = False
    ds: dict = field(default_factory=dict)
    engine: str = field(default_factory=lambda: DEFAULT_ENGINE)

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
        return name


def make_stepper(
    trace: Trace,
    config: ProcessorConfig,
    coupled: bool = False,
    live_sync: bool = False,
    probe=None,
):
    """The configured processor model over ``trace`` as a stepper.

    The only kind x engine dispatch: :func:`simulate` drives the result
    standalone, :mod:`repro.cosim` steps it against the shared fabric.
    ``coupled`` is each stepper's one coupling flag.  For the static
    models it is ``clamp_time``: a stateful network consumes the request
    times, so the clock must not run backwards on a negative sync wait.
    For the DS fast engine it says somebody else (a network, the
    co-simulation engine) emits spans from ``probe`` while the stepper
    is suspended, which rules out its deferred retire-span pass.
    ``live_sync`` selects the scalar steppers whatever the engine —
    only they can suspend at a sync operation.
    """
    kind = config.kind.lower()
    engine = config.engine.lower()
    if engine not in ("fast", "reference"):
        raise ValueError(f"unknown engine {config.engine!r}")
    fast = engine == "fast" and not live_sync
    label = config.label()
    if kind == "base":
        stepper = base_fast_stepper if fast else base_stepper
        return stepper(trace, label=label, clamp_time=coupled)
    if kind == "ssbr" or kind == "ss":
        if kind == "ssbr":
            stepper = ssbr_fast_stepper if fast else ssbr_stepper
        else:
            stepper = ss_fast_stepper if fast else ss_stepper
        return stepper(
            trace, get_model(config.model), label=label,
            clamp_time=coupled, probe=probe,
        )
    if kind != "ds":
        raise ValueError(f"unknown processor kind {config.kind!r}")
    ds_kwargs = dict(config.ds)
    ds_kwargs.pop("network", None)  # the stepper's driver serves misses
    ds_config = DSConfig(
        window=config.window,
        issue_width=config.issue_width,
        perfect_branch_prediction=config.perfect_bp,
        ignore_data_dependences=config.ignore_deps,
        **ds_kwargs,
    )
    model = get_model(config.model)
    if fast:
        return ds_fast_stepper(
            trace, model, ds_config, label=label, probe=probe,
            coupled=coupled,
        )
    return DSProcessor(trace, model, ds_config, probe=probe).steps(
        label=label, live_sync=live_sync
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
    "DSProcessor",
    "ExecutionBreakdown",
    "MemRequest",
    "MultiContextConfig",
    "MultiContextProcessor",
    "ProcessorConfig",
    "ReleaseNotify",
    "ScheduleStats",
    "SyncRequest",
    "base_stepper",
    "drive",
    "make_stepper",
    "schedule_reads_early",
    "simulate_multicontext",
    "ss_stepper",
    "ssbr_stepper",
    "WriteBuffer",
    "simulate",
    "simulate_base",
    "simulate_base_fast",
    "simulate_ds",
    "simulate_ds_fast",
    "simulate_ss",
    "simulate_ss_fast",
    "simulate_ssbr",
    "simulate_ssbr_fast",
]
