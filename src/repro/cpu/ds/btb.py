"""Branch target buffer with 2-bit counters (paper §3.1).

The paper's processor uses a 2048-entry, 4-way set-associative branch
target buffer [Lee & Smith] for dynamic branch prediction.  Each entry
holds the branch pc, its most recent target, and a 2-bit saturating
counter.  A conditional branch that misses in the BTB is predicted
not-taken; an indirect jump that misses is a misprediction by definition
(its target is unknown at decode).  Replacement is LRU within a set.

The dynamically scheduled processor replays it over a whole trace once
(:func:`repro.cpu.kernels.control_mispredicts`); Table 3 reports the
same outcome column.
"""

from __future__ import annotations

from ...isa import Op, is_cond_branch


class BtbEntry:
    __slots__ = ("pc", "target", "counter")

    def __init__(self, pc: int, target: int, counter: int) -> None:
        self.pc = pc
        self.target = target
        self.counter = counter


class BranchTargetBuffer:
    """2048-entry 4-way BTB with 2-bit saturating counters."""

    ENTRIES = 2048
    ASSOC = 4
    SETS = ENTRIES // ASSOC

    def __init__(self) -> None:
        # Each set is a list ordered MRU-first.
        self._sets: list[list[BtbEntry]] = [
            [] for _ in range(self.SETS)
        ]

    def _lookup(self, pc: int) -> BtbEntry | None:
        ways = self._sets[pc % self.SETS]
        for entry in ways:
            if entry.pc == pc:
                return entry
        return None

    def predict(self, op: Op, pc: int, fallthrough: int) -> int:
        """Predicted next pc for the control instruction at ``pc``."""
        entry = self._lookup(pc)
        if is_cond_branch(op):
            if entry is not None and entry.counter >= 2:
                return entry.target
            return fallthrough
        if op is Op.JR:
            if entry is not None:
                return entry.target
            return -1  # unknown target: necessarily mispredicted
        # Direct jumps (J/JAL) have their target in the instruction.
        return -2  # sentinel meaning "always correct"

    def update(self, op: Op, pc: int, taken: bool, target: int) -> None:
        """Record the actual outcome of the branch at ``pc``."""
        ways = self._sets[pc % self.SETS]
        entry = self._lookup(pc)
        if entry is None:
            if not taken and is_cond_branch(op):
                # Not-taken branches are not allocated; the default
                # prediction already covers them.
                return
            entry = BtbEntry(pc, target, 2 if taken else 1)
            ways.insert(0, entry)
            if len(ways) > self.ASSOC:
                ways.pop()
            return
        if is_cond_branch(op):
            if taken:
                entry.counter = min(3, entry.counter + 1)
                entry.target = target
            else:
                entry.counter = max(0, entry.counter - 1)
        else:
            entry.target = target
        # LRU bump.
        ways.remove(entry)
        ways.insert(0, entry)

