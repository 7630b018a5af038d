"""The paper's headline result (§7).

"Assuming a memory latency of 50 cycles, the average percentage of read
latency that was hidden across the five applications was 33% for window
size of 16, 63% for window size of 32, and 81% for window size of 64."

This experiment computes the same averages from our Figure 3 data: per
application, the fraction of the BASE processor's read-stall time that
the dynamically scheduled processor under RC eliminated, averaged across
applications.  Its configurations are Figure 3's BASE and DS-RC bars,
so a sweep that runs Figure 3 as well simulates nothing more for it.
"""

from __future__ import annotations

from ..cpu import ExecutionBreakdown
from .figure3 import WINDOW_SIZES, figure3_configs
from .report import format_table
from .runner import Experiment, TraceStore

PAPER_HIDDEN = {16: 0.33, 32: 0.63, 64: 0.81}


def _hidden(
    store: TraceStore, results: dict[str, list[ExecutionBreakdown]]
) -> dict[int, dict[str, float]]:
    """Fraction of read latency hidden, per window per app (+ 'avg')."""
    result: dict[int, dict[str, float]] = {w: {} for w in WINDOW_SIZES}
    for app, (base, *runs) in results.items():
        for window, ds in zip(WINDOW_SIZES, runs):
            result[window][app] = ds.read_latency_hidden_vs(base)
    for apps in result.values():
        apps["avg"] = sum(apps.values()) / len(apps)
    return result


def format_headline(result: dict[int, dict[str, float]]) -> str:
    windows = sorted(result)
    apps = [a for a in next(iter(result.values())) if a != "avg"]
    rows = []
    for window in windows:
        row = [window]
        row.extend(f"{100 * result[window][a]:.0f}%" for a in apps)
        row.append(f"{100 * result[window]['avg']:.0f}%")
        paper = PAPER_HIDDEN.get(window)
        row.append(f"{100 * paper:.0f}%" if paper is not None else "-")
        rows.append(row)
    return format_table(
        ["window"] + [a.upper() for a in apps] + ["avg", "paper avg"],
        rows,
        title="Read latency hidden by DS under RC (percent of BASE read stall)",
    )


EXPERIMENT = Experiment(
    tuple(
        c for c in figure3_configs()
        if c.kind == "base" or (c.kind == "ds" and c.model == "RC")
    ),
    format_headline,
    _hidden,
)
