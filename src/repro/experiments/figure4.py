"""Figure 4 — isolating branch prediction and data dependences (DS, RC).

For each application: BASE, then the DS processor under RC at windows
16-256 with *perfect branch prediction*, then the same windows with
perfect branch prediction *and data dependences ignored* (consistency
constraints are still respected, exactly as the paper's footnote 3
specifies).
"""

from __future__ import annotations

from ..cpu import ExecutionBreakdown, ProcessorConfig
from .figure3 import WINDOW_SIZES
from .report import format_app_breakdowns
from .runner import Experiment


def format_figure4(results: dict[str, list[ExecutionBreakdown]]) -> str:
    return format_app_breakdowns(
        results,
        "Figure 4 — {APP}: perfect branch prediction and ignored data "
        "dependences (DS under RC, percent of BASE)",
        bars=True,
    )


EXPERIMENT = Experiment(
    (ProcessorConfig(kind="base"),) + tuple(
        ProcessorConfig(
            kind="ds", model="RC", window=window, perfect_bp=True,
            ignore_deps=ignore_deps,
        )
        for ignore_deps in (False, True)
        for window in WINDOW_SIZES
    ),
    format_figure4,
)
