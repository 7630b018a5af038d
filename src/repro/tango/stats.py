"""Per-processor statistics collected during multiprocessor execution.

These counters are what Tables 1 and 2 of the paper report: data-reference
counts and miss counts, synchronization operation counts, and the derived
per-thousand-instruction rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CpuStats:
    """Counters for one simulated processor."""

    cpu: int = 0

    #: Retired instructions == useful processor cycles ("busy cycles").
    busy_cycles: int = 0

    # Data references (synchronization accesses are counted separately).
    reads: int = 0
    writes: int = 0
    read_misses: int = 0
    write_misses: int = 0

    # Synchronization operation counts (Table 2).
    locks: int = 0
    unlocks: int = 0
    wait_events: int = 0
    set_events: int = 0
    barriers: int = 0

    # Stall-cycle totals observed on the trace-generating (in-order,
    # blocking-read, RC-write-buffered) host processor.
    read_stall_cycles: int = 0
    write_stall_cycles: int = 0

    # Synchronization latency, split per the paper's analysis:
    # contention/imbalance wait vs. the sync variable access latency.
    acquire_wait_cycles: int = 0
    acquire_access_cycles: int = 0
    release_access_cycles: int = 0

    # Branch counts (Table 3 prediction numbers come from a BTB model run
    # over the trace afterwards).
    cond_branches: int = 0

    #: Final virtual clock of the thread.
    end_time: int = 0


@dataclass
class RunStats:
    """Statistics of one full multiprocessor run."""

    cpus: list[CpuStats] = field(default_factory=list)
    total_cycles: int = 0

    def total_instructions(self) -> int:
        return sum(c.busy_cycles for c in self.cpus)

    def cpu(self, n: int) -> CpuStats:
        return self.cpus[n]
