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

from ..cpu import ExecutionBreakdown, ProcessorConfig, simulate
from .report import format_breakdowns
from .runner import TraceStore, default_store


def run_sc_boost(
    store: TraceStore | None = None,
    window: int = 64,
    apps: tuple[str, ...] | None = None,
) -> dict[str, list[ExecutionBreakdown]]:
    store = store or default_store()
    result = {}
    for run in store.all_apps():
        if apps is not None and run.app not in apps:
            continue
        variants = [
            ("BASE", None, {}),
            (f"DS-SC-w{window}", "SC", {}),
            (f"DS-SC-w{window}+pf", "SC", {"prefetch": True}),
            (f"DS-SC-w{window}+spec", "SC", {"speculative_loads": True}),
            (f"DS-SC-w{window}+pf+spec", "SC",
             {"prefetch": True, "speculative_loads": True}),
            (f"DS-RC-w{window}", "RC", {}),
        ]
        runs = []
        for label, model, extra in variants:
            if model is None:
                runs.append(run.base)
                continue
            breakdown = simulate(run.trace, ProcessorConfig(
                kind="ds", model=model, window=window, ds=extra
            ))
            breakdown.label = label  # names the boost, not just the model
            runs.append(breakdown)
        result[run.app] = runs
    return result


def format_sc_boost(results: dict[str, list[ExecutionBreakdown]]) -> str:
    sections = []
    for app, runs in results.items():
        sections.append(
            format_breakdowns(
                f"Boosting SC ([8]) — {app.upper()} "
                f"(percent of BASE)",
                runs,
                runs[0],
            )
        )
    return "\n\n".join(sections)
