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
from .runner import TraceStore, simulate_app_models

WINDOW = 64

#: (model, DS options, label suffix) of each DS bar after BASE.
_BOOSTS = (
    ("SC", {}, ""),
    ("SC", {"prefetch": True}, "+pf"),
    ("SC", {"speculative_loads": True}, "+spec"),
    ("SC", {"prefetch": True, "speculative_loads": True}, "+pf+spec"),
    ("RC", {}, ""),
)


def sc_boost_configs() -> list[ProcessorConfig]:
    return [ProcessorConfig(kind="base")] + [
        ProcessorConfig(kind="ds", model=model, window=WINDOW, ds=extra)
        for model, extra, _ in _BOOSTS
    ]


def run_sc_boost(
    store: TraceStore,
    apps: tuple[str, ...] | None = None,
    jobs: int = 1,
) -> dict[str, list[ExecutionBreakdown]]:
    results = simulate_app_models(
        store, sc_boost_configs(), apps=apps, jobs=jobs
    )
    for runs in results.values():
        for breakdown, (model, _, suffix) in zip(runs[1:], _BOOSTS):
            # Names the boost, not just the model.
            breakdown.label = f"DS-{model}-w{WINDOW}{suffix}"
    return results


def format_sc_boost(results: dict[str, list[ExecutionBreakdown]]) -> str:
    return format_app_breakdowns(
        results, "Boosting SC ([8]) — {APP} (percent of BASE)"
    )
