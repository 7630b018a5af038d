"""§4.2 / technical-report extension: multiple instruction issue.

With a maximum of four instructions issued per cycle, computation speeds
up while memory latency stays at 50 cycles, so a larger window is needed:
the paper observes performance still climbing from window 64 to 128 under
RC, where single issue had levelled off at 64.
"""

from __future__ import annotations

from ..cpu import ExecutionBreakdown, ProcessorConfig
from .figure3 import WINDOW_SIZES
from .report import format_app_breakdowns
from .runner import Experiment

#: The paper's multiple-issue machine.
ISSUE_WIDTH = 4


def format_multi_issue(
    results: dict[str, list[ExecutionBreakdown]]
) -> str:
    return format_app_breakdowns(
        results,
        f"{ISSUE_WIDTH}-issue — {{APP}} "
        f"(DS under RC, percent of single-issue BASE)",
    )


EXPERIMENT = Experiment(
    (ProcessorConfig(kind="base"),) + tuple(
        ProcessorConfig(
            kind="ds", model="RC", window=window, issue_width=ISSUE_WIDTH
        )
        for window in WINDOW_SIZES
    ),
    format_multi_issue,
)
