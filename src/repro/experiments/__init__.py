"""Experiment harness: one module per table/figure of the paper.

See DESIGN.md's per-experiment index.  Each module exposes a ``run_*``
function that takes a :class:`TraceStore` and returns structured
results, and a ``format_*`` function rendering them as text.

Every model sweep (Figures 3 and 4, the headline, the 100-cycle,
multi-issue and SC-boost extensions, the miss analysis) replays its
processor configurations through :func:`simulate_app_models`, whose
``jobs`` fans it out over the supervised pool.
"""

from .compiler_sched import format_compiler_sched, run_compiler_sched
from .contexts import CONTEXT_COUNTS, format_contexts, run_contexts
from .figure1 import format_figure1, run_figure1
from .figure3 import figure3_configs, format_figure3, run_figure3
from .figure4 import figure4_configs, format_figure4, run_figure4
from .headline import PAPER_HIDDEN, format_headline, run_headline
from .latency100 import format_latency100, run_latency100
from .miss_analysis import format_miss_analysis, run_miss_analysis
from .multi_issue import format_multi_issue, run_multi_issue
from .report import (
    format_app_breakdowns,
    format_breakdowns,
    format_stacked_bars,
    format_table,
)
from .runner import (
    AppRun,
    TraceStore,
    generate_traces,
    simulate_app_models,
)
from .sc_boost import format_sc_boost, run_sc_boost
from .table1 import format_table1, run_table1
from .table2 import format_table2, run_table2
from .table3 import analyze_trace, format_table3, run_table3

__all__ = [
    "AppRun",
    "CONTEXT_COUNTS",
    "PAPER_HIDDEN",
    "TraceStore",
    "analyze_trace",
    "figure3_configs",
    "figure4_configs",
    "format_app_breakdowns",
    "format_breakdowns",
    "format_compiler_sched",
    "format_contexts",
    "format_figure1",
    "format_figure3",
    "format_figure4",
    "format_headline",
    "format_latency100",
    "format_miss_analysis",
    "format_sc_boost",
    "format_multi_issue",
    "format_stacked_bars",
    "format_table",
    "format_table1",
    "format_table2",
    "format_table3",
    "generate_traces",
    "simulate_app_models",
    "run_compiler_sched",
    "run_contexts",
    "run_figure1",
    "run_figure3",
    "run_figure4",
    "run_headline",
    "run_latency100",
    "run_miss_analysis",
    "run_sc_boost",
    "run_multi_issue",
    "run_table1",
    "run_table2",
    "run_table3",
]
