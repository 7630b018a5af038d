"""E12 — boosting sequential consistency (paper §6, reference [8]).

The related-work section discusses two techniques (Gharachorloo, Gupta &
Hennessy, ICPP'91) that aggressively overlap accesses *without* violating
SC: non-binding prefetch of accesses delayed by consistency constraints,
and speculative execution of reads with rollback.  The paper leaves their
quantitative impact open ("remains to be fully studied"), so this
experiment studies it: the DS processor under SC, with prefetch, with
speculative loads, with both — alongside plain RC as the ceiling.
"""

from __future__ import annotations

from ..cpu import ExecutionBreakdown, ProcessorConfig
from .report import format_app_breakdowns
from .runner import Experiment

WINDOW = 64

def format_sc_boost(results: dict[str, list[ExecutionBreakdown]]) -> str:
    return format_app_breakdowns(
        results, "Boosting SC ([8]) — {APP} (percent of BASE)"
    )


#: BASE, then DS at window 64: SC plain and boosted (the labels name the
#: boosts, e.g. ``DS-SC-w64+pf+spec``), and RC.
EXPERIMENT = Experiment(
    (ProcessorConfig(kind="base"),) + tuple(
        ProcessorConfig(kind="ds", model=model, window=WINDOW, ds=extra)
        for model, extra in (
            ("SC", {}),
            ("SC", {"prefetch": True}),
            ("SC", {"speculative_loads": True}),
            ("SC", {"prefetch": True, "speculative_loads": True}),
            ("RC", {}),
        )
    ),
    format_sc_boost,
)
