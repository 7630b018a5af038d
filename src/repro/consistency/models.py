"""Memory consistency models: SC, PC, WO, RC.

A consistency model, for the purposes of every processor simulator in this
package, is a *pairwise ordering predicate* over the memory-operation
classes of :class:`~repro.isa.MemClass`:

    ``requires(earlier, later)`` — may the ``later`` access not be issued
    until the ``earlier`` access (which precedes it in program order) has
    performed?

This is exactly the information Figure 1 of the paper conveys:

* **SC** orders every access after every previous access.
* **PC** lets a read bypass previous writes, but reads are serialized
  after previous reads, and writes after everything.
* **WO** orders accesses only around synchronization points: a sync
  operation waits for everything before it and gates everything after it;
  ordinary data accesses in between overlap freely.
* **RC** splits synchronization into *acquires* (read-like: lock, event
  wait, barrier entry) and *releases* (write-like: unlock, event set,
  barrier exit).  Only an acquire gates the accesses after it, and only a
  release waits for the accesses before it.  Synchronization accesses
  obey processor consistency among themselves, so a later acquire may
  bypass an earlier release (the RCpc flavour).

The predicate is deliberately conservative/straightforward — the paper's
own words: "straightforward implementations of the four consistency
models".
"""

from __future__ import annotations

from ..isa import MemClass

_CLASSES = (
    MemClass.READ,
    MemClass.WRITE,
    MemClass.ACQUIRE,
    MemClass.RELEASE,
    MemClass.BARRIER,
)

_SYNC = frozenset({MemClass.ACQUIRE, MemClass.RELEASE, MemClass.BARRIER})


class ConsistencyModel:
    """Base class; subclasses define :meth:`_requires` and capabilities."""

    #: Short name used in tables and experiment output ("SC", "RC", ...).
    name: str = "?"

    #: May a read be serviced while writes are pending in the write
    #: buffer?  Drives the static-processor write-buffer model.
    reads_bypass_writes: bool = False

    #: May multiple buffered writes be outstanding (pipelined retire)?
    #: False forces one-at-a-time serialized write misses.
    writes_overlap: bool = False

    def __init__(self) -> None:
        self._matrix = {
            (earlier, later): self._requires(earlier, later)
            for earlier in _CLASSES
            for later in _CLASSES
        }

    def _requires(self, earlier: MemClass, later: MemClass) -> bool:
        raise NotImplementedError

    def requires(self, earlier: MemClass, later: MemClass) -> bool:
        """True if ``later`` must wait until ``earlier`` has performed."""
        return self._matrix[(earlier, later)]

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


def _read_like(cls: MemClass) -> bool:
    return cls in (MemClass.READ, MemClass.ACQUIRE, MemClass.BARRIER)


def _write_like(cls: MemClass) -> bool:
    return cls in (MemClass.WRITE, MemClass.RELEASE, MemClass.BARRIER)


class SequentialConsistency(ConsistencyModel):
    """Lamport's SC: accesses perform strictly in program order."""

    name = "SC"
    reads_bypass_writes = False
    writes_overlap = False

    def _requires(self, earlier: MemClass, later: MemClass) -> bool:
        return True


class ProcessorConsistency(ConsistencyModel):
    """Goodman's PC: reads may bypass previous writes, nothing else relaxes.

    Synchronization operations are treated by their access type: acquires
    are reads, releases are writes (PC has no special sync knowledge).
    """

    name = "PC"
    reads_bypass_writes = True
    writes_overlap = False

    def _requires(self, earlier: MemClass, later: MemClass) -> bool:
        if _write_like(earlier) and _read_like(later) and not (
            earlier is MemClass.BARRIER or later is MemClass.BARRIER
        ):
            # The one relaxation: a later read may bypass an earlier write.
            # (A barrier is both read- and write-like, so it never
            # participates in the relaxation.)
            return False
        return True


class WeakOrdering(ConsistencyModel):
    """Dubois et al.'s weak ordering: consistency at sync points only."""

    name = "WO"
    reads_bypass_writes = True
    writes_overlap = True

    def _requires(self, earlier: MemClass, later: MemClass) -> bool:
        return earlier in _SYNC or later in _SYNC


class ReleaseConsistency(ConsistencyModel):
    """RC (RCpc): acquire gates what follows; release awaits what precedes.

    Special (synchronization) accesses obey *processor consistency* among
    themselves, per the definition in Gharachorloo et al. [ISCA'90] that
    this paper builds on: a later acquire (read-like) may bypass an
    earlier release (write-like), which is what lets lock-dense codes
    pipeline unlock/lock sequences.
    """

    name = "RC"
    reads_bypass_writes = True
    writes_overlap = True

    def _requires(self, earlier: MemClass, later: MemClass) -> bool:
        if earlier in _SYNC and later in _SYNC:
            # Processor consistency among specials: only the
            # release -> acquire (write -> read) pair relaxes.
            return not (
                earlier is MemClass.RELEASE and later is MemClass.ACQUIRE
            )
        if earlier in (MemClass.ACQUIRE, MemClass.BARRIER):
            return True
        if later in (MemClass.RELEASE, MemClass.BARRIER):
            return True
        return False


SC = SequentialConsistency()
PC = ProcessorConsistency()
WO = WeakOrdering()
RC = ReleaseConsistency()

MODELS: dict[str, ConsistencyModel] = {m.name: m for m in (SC, PC, WO, RC)}


def get_model(name: str) -> ConsistencyModel:
    """Look up a model by name (case insensitive)."""
    try:
        return MODELS[name.upper()]
    except KeyError:
        raise ValueError(
            f"unknown consistency model {name!r}; "
            f"choose from {sorted(MODELS)}"
        ) from None
