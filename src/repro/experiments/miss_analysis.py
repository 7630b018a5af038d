"""§4.1.3 detail — read-miss issue delays and read-miss spacing.

The paper isolates data-dependence behaviour with two measurements on the
DS processor (window 64, perfect branch prediction):

* the delay of each read miss from decode (entering the reorder buffer)
  to memory issue — long delays indicate read misses whose address
  depends on a previous miss (LU/OCEAN: rarely above 10 cycles; MP3D:
  ~15% above 40; LOCUS: >20% above 40; PTHOR: ~50% above 50);
* the dynamic distance (in instructions) between consecutive read
  misses — if the spacing exceeds the window, small windows cannot
  overlap them (LU: ~90% of misses 20-30 apart; OCEAN: ~55% 16-20
  apart).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cpu import ExecutionBreakdown, ProcessorConfig
from .report import format_table
from .runner import Experiment, TraceStore


@dataclass
class MissAnalysis:
    app: str
    issue_delays: list[int]
    distances: list[int]

    def frac_delay_over(self, threshold: int) -> float:
        if not self.issue_delays:
            return 0.0
        late = sum(1 for d in self.issue_delays if d > threshold)
        return late / len(self.issue_delays)

    def median_distance(self) -> float:
        if not self.distances:
            return 0.0
        ordered = sorted(self.distances)
        return float(ordered[len(ordered) // 2])


#: DS under RC at window 64 with perfect branch prediction, recording
#: each read miss's decode-to-issue delay.
_CONFIG = ProcessorConfig(
    kind="ds", model="RC", window=64, perfect_bp=True,
    ds={"collect_miss_stats": True},
)


def _analyse(
    store: TraceStore, results: dict[str, list[ExecutionBreakdown]]
) -> list[MissAnalysis]:
    # The spacing is a property of the trace alone: every read miss is
    # decoded, in program order, whatever the timing.
    return [
        MissAnalysis(
            app=app,
            issue_delays=breakdown.extras["read_miss_issue_delays"],
            distances=np.diff(store.get(app).trace.read_miss_rows()).tolist(),
        )
        for app, (breakdown,) in results.items()
    ]


def format_miss_analysis(results: list[MissAnalysis]) -> str:
    rows = []
    for r in results:
        rows.append([
            r.app.upper(),
            len(r.issue_delays),
            f"{100 * r.frac_delay_over(10):.0f}%",
            f"{100 * r.frac_delay_over(40):.0f}%",
            f"{100 * r.frac_delay_over(50):.0f}%",
            f"{r.median_distance():.0f}",
        ])
    return format_table(
        ["program", "read misses", ">10cyc", ">40cyc", ">50cyc",
         "median miss spacing"],
        rows,
        title=(
            "Read-miss issue delay (decode->issue, DS-RC window 64, "
            "perfect BP) and dynamic spacing between read misses"
        ),
    )


EXPERIMENT = Experiment((_CONFIG,), format_miss_analysis, _analyse)
