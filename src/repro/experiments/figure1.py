"""Figure 1 — ordering restrictions of the four consistency models.

The paper's Figure 1 is conceptual: for a canonical sequence of accesses
it draws which must complete before which under SC, PC, WO and RC.  This
experiment makes the figure executable: for the same canonical sequence
it reports the (transitively reduced) ordering edges each model imposes
and the idealised overlapped completion time — demonstrating the strict
SC > PC > WO > RC relaxation order.
"""

from __future__ import annotations

from ..consistency import (
    MODELS,
    earliest_completion_times,
    ordering_edges,
    reduced_edges,
    total_time,
)
from ..isa import MemClass
from .report import format_table
from .runner import Experiment

#: The access sequence sketched by the paper's Figure 1: data accesses,
#: an acquire, more data accesses, a release, then trailing accesses.
CANONICAL_OPS = [
    MemClass.READ,
    MemClass.WRITE,
    MemClass.ACQUIRE,
    MemClass.READ,
    MemClass.WRITE,
    MemClass.RELEASE,
    MemClass.READ,
    MemClass.WRITE,
]

#: Every access costs one memory latency in the idealised machine.
CANONICAL_LATENCIES = [50] * len(CANONICAL_OPS)


def run_figure1() -> dict[str, dict]:
    """Per model: reduced ordering edges and idealised makespan."""
    result = {}
    for name, model in MODELS.items():
        edges = reduced_edges(model, CANONICAL_OPS)
        times = earliest_completion_times(
            model, CANONICAL_OPS, CANONICAL_LATENCIES
        )
        result[name] = {
            "edges": sorted(edges),
            "constraints": len(ordering_edges(model, CANONICAL_OPS)),
            "times": times,
            "makespan": total_time(
                model, CANONICAL_OPS, CANONICAL_LATENCIES
            ),
        }
    return result


def format_figure1(result: dict[str, dict]) -> str:
    ops = ", ".join(
        f"{i}:{op.name.lower()}" for i, op in enumerate(CANONICAL_OPS)
    )
    rows = [
        [name, data["constraints"], len(data["edges"]), data["makespan"]]
        for name, data in result.items()
    ]
    table = format_table(
        ["model", "constraints", "drawn arrows",
         "idealised makespan (cycles)"],
        rows,
        title=f"Figure 1: ordering restrictions over [{ops}]",
    )
    detail = []
    for name, data in result.items():
        arrows = " ".join(f"{i}->{j}" for i, j in data["edges"])
        detail.append(f"  {name}: {arrows}")
    return table + "\n" + "\n".join(detail)


EXPERIMENT = Experiment((), format_figure1, lambda store, _: run_figure1())
