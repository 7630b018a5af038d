"""Table 1 — statistics on data references.

Per application, for a single processor of the 16-processor simulation:
busy cycles, reads, writes, read misses and write misses, with the
per-thousand-instruction rates the paper prints in parentheses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .report import format_table
from .runner import Experiment, TraceStore


@dataclass
class Table1Row:
    app: str
    busy_cycles: int
    reads: int
    writes: int
    read_misses: int
    write_misses: int

    @property
    def read_rate(self) -> float:
        return 1000.0 * self.reads / self.busy_cycles

    @property
    def write_rate(self) -> float:
        return 1000.0 * self.writes / self.busy_cycles

    @property
    def read_miss_rate(self) -> float:
        return 1000.0 * self.read_misses / self.busy_cycles

    @property
    def write_miss_rate(self) -> float:
        return 1000.0 * self.write_misses / self.busy_cycles


def run_table1(store: TraceStore) -> list[Table1Row]:
    rows = []
    for run in store.all_apps():
        stats = run.stats.cpu(store.trace_cpu)
        rows.append(
            Table1Row(
                app=run.app,
                busy_cycles=stats.busy_cycles,
                reads=stats.reads,
                writes=stats.writes,
                read_misses=stats.read_misses,
                write_misses=stats.write_misses,
            )
        )
    return rows


def format_table1(rows: list[Table1Row]) -> str:
    return format_table(
        ["program", "busy cycles", "reads", "(rate)", "writes", "(rate)",
         "read misses", "(rate)", "write misses", "(rate)"],
        [
            [
                r.app.upper(), r.busy_cycles,
                r.reads, f"({r.read_rate:.0f})",
                r.writes, f"({r.write_rate:.0f})",
                r.read_misses, f"({r.read_miss_rate:.1f})",
                r.write_misses, f"({r.write_miss_rate:.1f})",
            ]
            for r in rows
        ],
        title=(
            "Table 1: data references (one processor of 16; rates per "
            "1000 instructions)"
        ),
    )


EXPERIMENT = Experiment((), format_table1, lambda store, _: run_table1(store))
