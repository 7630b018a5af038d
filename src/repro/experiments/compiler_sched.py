"""E13 — compiler read scheduling (the paper's stated future work).

§5/§7: the overlap a relaxed model permits "can also be exploited by the
compiler for scheduling read misses to mask their latency on a statically
scheduled processor with non-blocking reads".  This experiment applies
the :mod:`repro.cpu.scheduling` hoisting pass to each trace and re-runs
the SS processor, comparing: SS on the original code, SS on the
rescheduled code, and the DS processor with a small window — the
hardware the compiler is trying to substitute for.  Only the
rescheduled trace is simulated here; the runs on the original trace
come from the shared sweep.
"""

from __future__ import annotations

from dataclasses import replace

from ..cpu import ExecutionBreakdown, ProcessorConfig
from ..cpu.scheduling import ScheduleStats, schedule_reads_early
from . import runner
from .report import format_breakdowns, format_table
from .runner import Experiment, TraceStore

_SS = ProcessorConfig(kind="ss", model="RC")


def _schedule(
    store: TraceStore, results: dict[str, list[ExecutionBreakdown]]
) -> dict[str, dict]:
    result = {}
    for app, (ss_orig, ds16, ds64) in results.items():
        run = store.get(app)
        rescheduled, stats = schedule_reads_early(run.trace)
        # Through the runner's `simulate`, like every sweep.
        ss_sched = runner.simulate(rescheduled, _SS)
        runs = [
            run.base,
            replace(ss_orig, label="SS-RC (original)"),
            replace(ss_sched, label="SS-RC (scheduled)"),
            ds16,
            ds64,
        ]
        result[app] = {"runs": runs, "stats": stats}
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


EXPERIMENT = Experiment(
    (_SS,) + tuple(
        ProcessorConfig(kind="ds", model="RC", window=w) for w in (16, 64)
    ),
    format_compiler_sched,
    _schedule,
)
