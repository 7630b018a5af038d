"""E13 — compiler read scheduling (the paper's stated future work).

§5/§7: the overlap a relaxed model permits "can also be exploited by the
compiler for scheduling read misses to mask their latency on a statically
scheduled processor with non-blocking reads".  This experiment applies
the :mod:`repro.cpu.scheduling` hoisting pass to each trace and re-runs
the SS processor, comparing: SS on the original code, SS on the
rescheduled code, and the DS processor with a small window — the
hardware the compiler is trying to substitute for.
"""

from __future__ import annotations

from ..cpu import ExecutionBreakdown, ProcessorConfig, simulate
from ..cpu.scheduling import ScheduleStats, schedule_reads_early
from .report import format_breakdowns, format_table
from .runner import TraceStore


def run_compiler_sched(store: TraceStore) -> dict[str, dict]:
    result = {}
    for run in store.all_apps():
        rescheduled, stats = schedule_reads_early(run.trace)
        runs: list[ExecutionBreakdown] = [run.base]
        ss_orig = simulate(
            run.trace, ProcessorConfig(kind="ss", model="RC")
        )
        ss_orig.label = "SS-RC (original)"
        runs.append(ss_orig)
        ss_sched = simulate(
            rescheduled, ProcessorConfig(kind="ss", model="RC")
        )
        ss_sched.label = "SS-RC (scheduled)"
        runs.append(ss_sched)
        runs.append(
            simulate(
                run.trace,
                ProcessorConfig(kind="ds", model="RC", window=16),
            )
        )
        runs.append(
            simulate(
                run.trace,
                ProcessorConfig(kind="ds", model="RC", window=64),
            )
        )
        result[run.app] = {"runs": runs, "stats": stats}
    return result


def format_compiler_sched(result: dict[str, dict]) -> str:
    sections = []
    summary_rows = []
    for app, data in result.items():
        runs = data["runs"]
        stats: ScheduleStats = data["stats"]
        sections.append(
            format_breakdowns(
                f"Compiler read scheduling — {app.upper()} "
                f"(percent of BASE)",
                runs,
                runs[0],
            )
        )
        summary_rows.append([
            app.upper(),
            stats.loads_seen,
            stats.loads_moved,
            f"{stats.average_hoist:.1f}",
        ])
    sections.append(
        format_table(
            ["program", "loads", "hoisted", "avg hoist (instrs)"],
            summary_rows,
            title="Scheduling pass statistics",
        )
    )
    return "\n\n".join(sections)
