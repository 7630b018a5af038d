"""Direct-mapped write-back cache with MESI coherence state.

This models the per-processor data caches of the paper's multiprocessor:
direct mapped, write back, 16-byte lines, kept coherent by an
invalidation-based protocol (see :mod:`repro.mem.coherence`).  The cache
tracks tags and MESI state only; functional data lives in the global
:class:`~repro.mem.memory.SharedMemory`.

The EXCLUSIVE state matters for fidelity: a processor that read-misses on
private data and then writes it (the dominant pattern in LU's column
updates) must not pay a second, spurious ownership miss, or write-miss
counts come out far above what the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

INVALID = 0
SHARED = 1
EXCLUSIVE = 2
MODIFIED = 3

_STATE_NAMES = {INVALID: "I", SHARED: "S", EXCLUSIVE: "E", MODIFIED: "M"}


@dataclass
class CacheStats:
    """Per-cache access and coherence-event counters."""

    reads: int = 0
    writes: int = 0
    read_misses: int = 0
    write_misses: int = 0
    upgrades: int = 0
    writebacks: int = 0
    invalidations_received: int = 0
    downgrades_received: int = 0
    evictions: int = 0

    #: Counter fields, in declaration order (merge/publish iterate this).
    FIELDS = (
        "reads", "writes", "read_misses", "write_misses", "upgrades",
        "writebacks", "invalidations_received", "downgrades_received",
        "evictions",
    )

    def merge(self, other: "CacheStats") -> None:
        for fld in self.FIELDS:
            setattr(self, fld, getattr(self, fld) + getattr(other, fld))

    def publish(self, metrics, prefix: str = "cache") -> None:
        """Push every counter into a metrics registry as ``prefix.field``."""
        for fld in self.FIELDS:
            metrics.counter(f"{prefix}.{fld}").inc(getattr(self, fld))


@dataclass
class Cache:
    """Tag/state array of one direct-mapped write-back cache.

    Attributes:
        size: capacity in bytes.
        line_size: line size in bytes (the paper uses 16).
    """

    size: int = 64 * 1024
    line_size: int = 16
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if self.size % self.line_size:
            raise ValueError("cache size must be a multiple of the line size")
        self.num_lines = self.size // self.line_size
        if self.num_lines & (self.num_lines - 1):
            raise ValueError("number of lines must be a power of two")
        # Per-set: the full line address currently cached (or -1).
        self._line_addr = [-1] * self.num_lines
        self._state = [INVALID] * self.num_lines
        # Optional ``tap(line, dirty)`` fired on each replacement —
        # installed by CoherentMemorySystem.attach_listener().
        self.evict_tap = None

    # -- geometry ---------------------------------------------------------

    def line_of(self, addr: int) -> int:
        """Line (block) address containing byte address ``addr``."""
        return addr // self.line_size

    def index_of(self, line: int) -> int:
        return line % self.num_lines

    # -- lookups ----------------------------------------------------------

    def state_of(self, addr: int) -> int:
        """MESI state of the line holding ``addr`` (INVALID if absent)."""
        line = self.line_of(addr)
        idx = self.index_of(line)
        if self._line_addr[idx] == line:
            return self._state[idx]
        return INVALID

    def holds(self, addr: int) -> bool:
        return self.state_of(addr) != INVALID

    # -- fill (driven by the coherence controller) -------------------------
    # Every other transition (upgrade, invalidate, downgrade) is written
    # into the tag/state arrays by the controller itself, which keeps the
    # per-line sharer masks in step with them.

    def install(self, addr: int, state: int) -> int | None:
        """Fill the line holding ``addr`` in ``state``.

        Returns the line address of a dirty victim that must be written
        back, or ``None``.
        """
        line = self.line_of(addr)
        idx = self.index_of(line)
        victim = None
        if self._line_addr[idx] not in (-1, line):
            self.stats.evictions += 1
            dirty = self._state[idx] == MODIFIED
            if dirty:
                victim = self._line_addr[idx]
                self.stats.writebacks += 1
            if self.evict_tap is not None:
                self.evict_tap(self._line_addr[idx], dirty)
        self._line_addr[idx] = line
        self._state[idx] = state
        return victim

    def describe(self, addr: int) -> str:  # pragma: no cover - debugging aid
        return _STATE_NAMES[self.state_of(addr)]
