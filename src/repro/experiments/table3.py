"""Table 3 — statistics on branch behaviour.

Per application: the fraction of instructions that are branches, the
average distance between branches, the BTB prediction accuracy (2048
entries, 4-way, 2-bit counters — the paper's configuration), and the
average distance between mispredictions.

Following the paper, "branches" here are the control-transfer
instructions whose outcome prediction matters: conditional branches and
indirect jumps.  Direct jumps always predict correctly.  The outcomes
are the DS processor's own: the misprediction column its engine caches
per trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cpu.ds.event_engine import _ds_index
from ..isa import Op, is_cond_branch
from ..tango import Trace
from .report import format_table
from .runner import Experiment, TraceStore

#: Opcode-indexed mask of the rows Table 3 counts as branches.
_IS_BRANCH = np.zeros(max(Op) + 1, dtype=bool)
for _op in Op:
    _IS_BRANCH[_op] = is_cond_branch(_op) or _op is Op.JR


@dataclass
class Table3Row:
    app: str
    instructions: int
    branches: int
    predicted: int

    @property
    def branch_pct(self) -> float:
        return 100.0 * self.branches / self.instructions

    @property
    def avg_distance(self) -> float:
        return self.instructions / self.branches if self.branches else 0.0

    @property
    def predicted_pct(self) -> float:
        return 100.0 * self.predicted / self.branches if self.branches else 0.0

    @property
    def avg_mispredict_distance(self) -> float:
        missed = self.branches - self.predicted
        return self.instructions / missed if missed else float("inf")


def analyze_trace(app: str, trace: Trace) -> Table3Row:
    branch = _IS_BRANCH[trace.np_columns()[0]]
    misp = np.frombuffer(_ds_index(trace).mispredicts(trace), dtype=bool)
    branches = int(branch.sum())
    return Table3Row(
        app=app,
        instructions=len(trace),
        branches=branches,
        predicted=branches - int((misp & branch).sum()),
    )


def run_table3(store: TraceStore) -> list[Table3Row]:
    return [analyze_trace(run.app, run.trace) for run in store.all_apps()]


def format_table3(rows: list[Table3Row]) -> str:
    return format_table(
        ["program", "% instrs", "avg dist", "% predicted", "avg mispred dist"],
        [
            [
                r.app.upper(),
                f"{r.branch_pct:.1f}%",
                f"{r.avg_distance:.1f}",
                f"{r.predicted_pct:.1f}%",
                f"{r.avg_mispredict_distance:.1f}",
            ]
            for r in rows
        ],
        title="Table 3: branch behaviour (2048-entry 4-way BTB)",
    )


EXPERIMENT = Experiment((), format_table3, lambda store, _: run_table3(store))
