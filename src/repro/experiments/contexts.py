"""E11 — multiple hardware contexts as the competing technique (§5).

The paper's discussion lists multiple-context processors among the
alternative latency-hiding techniques.  This experiment runs the
switch-on-miss multiple-context model over K traces of the same
application (processors 0..K-1 of one functional run, made by the
store's own verified run routine, supply the independent streams) and
reports the processor-efficiency curve (busy / total) versus K, next
to the single-context BASE and the DS window-64 result.
"""

from __future__ import annotations

from ..cpu import ExecutionBreakdown, ProcessorConfig
from ..cpu.multicontext import simulate_multicontext
from .report import format_table
from .runner import Experiment, TraceStore

CONTEXT_COUNTS = (1, 2, 4, 8)


def _efficiencies(
    store: TraceStore, results: dict[str, list[ExecutionBreakdown]]
) -> dict[str, dict]:
    """Per app: efficiency by context count, plus DS-w64 efficiency.

    The context counts are those of :data:`CONTEXT_COUNTS` the machine
    has processors for: K contexts need K traced processors.
    """
    counts = tuple(k for k in CONTEXT_COUNTS if k <= store.n_procs)
    result: dict[str, dict] = {}
    for app, (ds,) in results.items():
        run = store.get(app)
        # Not cached: only this experiment reads these traces, and the
        # store's all-processor run would hold every processor's.
        _, mp = store._execute(app, tuple(range(max(counts))))
        traces = [mp.trace(cpu) for cpu in range(max(counts))]
        efficiency = {}
        for k in counts:
            breakdown = simulate_multicontext(traces[:k])
            efficiency[k] = breakdown.busy / breakdown.total
        result[app] = {
            "efficiency": efficiency,
            "ds_efficiency": ds.busy / ds.total,
            "base_efficiency": run.base.busy / run.base.total,
        }
    return result


def format_contexts(result: dict[str, dict]) -> str:
    counts = sorted({
        k for data in result.values() for k in data["efficiency"]
    })
    rows = []
    for app, data in result.items():
        row = [app.upper()]
        row.append(f"{100 * data['base_efficiency']:.0f}%")
        for k in counts:
            row.append(f"{100 * data['efficiency'][k]:.0f}%")
        row.append(f"{100 * data['ds_efficiency']:.0f}%")
        rows.append(row)
    return format_table(
        ["program", "BASE"]
        + [f"MC k={k}" for k in counts]
        + ["DS-RC w64"],
        rows,
        title=(
            "Processor efficiency (busy/total): multiple contexts "
            "(switch-on-miss) vs. dynamic scheduling"
        ),
    )


EXPERIMENT = Experiment(
    (ProcessorConfig(kind="ds", model="RC", window=64),),
    format_contexts,
    _efficiencies,
)
