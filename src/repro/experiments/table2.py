"""Table 2 — statistics on synchronization.

Per application: lock, unlock, wait-event, set-event and barrier counts
for a single processor, with per-thousand-instruction rates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .report import format_table
from .runner import Experiment, TraceStore


@dataclass
class Table2Row:
    app: str
    busy_cycles: int
    locks: int
    unlocks: int
    wait_events: int
    set_events: int
    barriers: int

    def rate(self, count: int) -> float:
        return 1000.0 * count / self.busy_cycles


def run_table2(store: TraceStore) -> list[Table2Row]:
    rows = []
    for run in store.all_apps():
        stats = run.stats.cpu(store.trace_cpu)
        rows.append(
            Table2Row(
                app=run.app,
                busy_cycles=stats.busy_cycles,
                locks=stats.locks,
                unlocks=stats.unlocks,
                wait_events=stats.wait_events,
                set_events=stats.set_events,
                barriers=stats.barriers,
            )
        )
    return rows


def format_table2(rows: list[Table2Row]) -> str:
    return format_table(
        ["program", "locks", "unlocks", "wait event", "set event",
         "barriers"],
        [
            [
                r.app.upper(),
                f"{r.locks} ({r.rate(r.locks):.2f})",
                f"{r.unlocks} ({r.rate(r.unlocks):.2f})",
                f"{r.wait_events} ({r.rate(r.wait_events):.2f})",
                f"{r.set_events} ({r.rate(r.set_events):.2f})",
                f"{r.barriers} ({r.rate(r.barriers):.2f})",
            ]
            for r in rows
        ],
        title=(
            "Table 2: synchronization references (one processor of 16; "
            "rates per 1000 instructions)"
        ),
    )


EXPERIMENT = Experiment((), format_table2, lambda store, _: run_table2(store))
