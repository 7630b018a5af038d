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
from .runner import TraceStore, simulate_app_models


def figure4_configs() -> list[ProcessorConfig]:
    configs: list[ProcessorConfig] = [ProcessorConfig(kind="base")]
    for window in WINDOW_SIZES:
        configs.append(
            ProcessorConfig(
                kind="ds", model="RC", window=window, perfect_bp=True
            )
        )
    for window in WINDOW_SIZES:
        configs.append(
            ProcessorConfig(
                kind="ds", model="RC", window=window,
                perfect_bp=True, ignore_deps=True,
            )
        )
    return configs


def run_figure4(
    store: TraceStore,
    apps: tuple[str, ...] | None = None,
    jobs: int = 1,
) -> dict[str, list[ExecutionBreakdown]]:
    return simulate_app_models(
        store, figure4_configs(), apps=apps, jobs=jobs
    )


def format_figure4(results: dict[str, list[ExecutionBreakdown]]) -> str:
    return format_app_breakdowns(
        results,
        "Figure 4 — {APP}: perfect branch prediction and ignored data "
        "dependences (DS under RC, percent of BASE)",
        bars=True,
    )
