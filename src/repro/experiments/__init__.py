"""Experiment harness: one module per table/figure of the paper.

See DESIGN.md's per-experiment index.  Each module declares an
:class:`Experiment` — the processor configurations it replays over the
stored traces, a collect step turning their breakdowns (or the store
itself) into structured results, and a ``format_*`` function rendering
them as text.  :data:`EXPERIMENTS` lists them under their CLI names.

:func:`repro.experiments.runner.run_experiments` runs any set of them
as one sweep: the union of their config lists, each distinct config
once, through :func:`simulate_app_models`, whose ``jobs`` fans it out
over the supervised pool.
"""

from importlib import import_module

from .figure1 import format_figure1, run_figure1
from .figure3 import figure3_configs, format_figure3, run_figure3
from .headline import PAPER_HIDDEN
from .report import (
    format_app_breakdowns,
    format_breakdowns,
    format_stacked_bars,
    format_table,
)
from .runner import (
    AppRun,
    Experiment,
    TraceStore,
    generate_traces,
    simulate_app_models,
)
from .table1 import format_table1, run_table1
from .table2 import format_table2, run_table2
from .table3 import analyze_trace, format_table3, run_table3

#: Every experiment by its CLI subcommand (its module's name, ``-`` for
#: ``_``), in ``all``'s output order.
EXPERIMENTS: dict[str, Experiment] = {
    name: import_module(f".{name.replace('-', '_')}", __name__).EXPERIMENT
    for name in (
        "table1", "table2", "table3", "headline", "figure1", "figure3",
        "figure4", "multi-issue", "miss-analysis", "sc-boost",
        "compiler-sched", "latency100",
    )
}

__all__ = [
    "AppRun",
    "EXPERIMENTS",
    "Experiment",
    "PAPER_HIDDEN",
    "TraceStore",
    "analyze_trace",
    "figure3_configs",
    "format_app_breakdowns",
    "format_breakdowns",
    "format_figure1",
    "format_figure3",
    "format_stacked_bars",
    "format_table",
    "format_table1",
    "format_table2",
    "format_table3",
    "generate_traces",
    "simulate_app_models",
    "run_figure1",
    "run_figure3",
    "run_table1",
    "run_table2",
    "run_table3",
]
