"""§4.2 / technical-report extension: 100-cycle memory latency.

The paper reports that with a 100-cycle miss penalty the trends match the
50-cycle results except that performance levels off at window 128 rather
than 64 (the window must exceed the latency to fully overlap it), and
that the *relative* gain from hiding latency is consistently larger.

This experiment replays traces generated with ``miss_penalty=100`` and
sweeps the DS/RC window sizes.
"""

from __future__ import annotations

from ..cpu import ExecutionBreakdown, ProcessorConfig
from .figure3 import WINDOW_SIZES
from .report import format_app_breakdowns
from .runner import Experiment


def format_latency100(
    results: dict[str, list[ExecutionBreakdown]]
) -> str:
    return format_app_breakdowns(
        results, "100-cycle latency — {APP} (DS under RC, percent of BASE)"
    )


EXPERIMENT = Experiment(
    (ProcessorConfig(kind="base"),) + tuple(
        ProcessorConfig(kind="ds", model="RC", window=window)
        for window in WINDOW_SIZES
    ),
    format_latency100,
    miss_penalty=100,
)
