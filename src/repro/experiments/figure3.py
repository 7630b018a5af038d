"""Figure 3 — execution time vs. processor model and consistency model.

For each application, the paper's Figure 3 plots normalised execution
time (breakdown: busy / sync / read / write) for:

* BASE — in-order, no overlap;
* SC:  SSBR, SS, DS with window 256;
* PC:  SSBR, SS, DS with window 256;
* RC:  SSBR, SS, DS with windows 16, 32, 64, 128, 256;

all at a 50-cycle miss penalty (the 100-cycle variant lives in
:mod:`repro.experiments.latency100`).
"""

from __future__ import annotations

from ..cpu import ExecutionBreakdown, ProcessorConfig
from .report import format_app_breakdowns
from .runner import Experiment, TraceStore, simulate_app_models

WINDOW_SIZES = (16, 32, 64, 128, 256)


def figure3_configs() -> list[ProcessorConfig]:
    configs: list[ProcessorConfig] = [ProcessorConfig(kind="base")]
    for model in ("SC", "PC"):
        configs.append(ProcessorConfig(kind="ssbr", model=model))
        configs.append(ProcessorConfig(kind="ss", model=model))
        configs.append(ProcessorConfig(kind="ds", model=model, window=256))
    configs.append(ProcessorConfig(kind="ssbr", model="RC"))
    configs.append(ProcessorConfig(kind="ss", model="RC"))
    for window in WINDOW_SIZES:
        configs.append(ProcessorConfig(kind="ds", model="RC", window=window))
    return configs


def run_figure3(
    store: TraceStore,
    apps: tuple[str, ...] | None = None,
    jobs: int = 1,
) -> dict[str, list[ExecutionBreakdown]]:
    return simulate_app_models(
        store, figure3_configs(), apps=apps, jobs=jobs
    )


def format_figure3(results: dict[str, list[ExecutionBreakdown]]) -> str:
    return format_app_breakdowns(
        results,
        "Figure 3 — {APP} (percent of BASE, 50-cycle miss)",
        bars=True,
    )


EXPERIMENT = Experiment(tuple(figure3_configs()), format_figure3)
