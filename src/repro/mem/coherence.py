"""Invalidation-based cache coherence across the multiprocessor.

This is the memory-system model of the paper's §3.2: per-processor
direct-mapped write-back caches kept coherent with an invalidation
protocol (MESI), a 1-cycle hit time, and a *fixed* miss penalty —
queueing and contention in the interconnect and at the memory modules
are not modelled, exactly as in the paper.  A contended network re-times
the misses later, when a processor model replays the trace
(:mod:`repro.net`, :mod:`repro.cosim`).

Write misses include ownership upgrades (a write to a SHARED line must
invalidate remote copies and therefore pays the full miss penalty), which
is what makes write misses outnumber read misses in OCEAN-style
read-modify-write stencil codes.

Beside the caches, the controller keeps a presence mask per line, like
the presence bits of a DASH-style directory: bit ``c`` of
``_sharers[line]`` is set exactly when cache ``c`` holds the line in a
valid state, and lines no cache holds have no entry.  A miss visits only
the caches its line's mask names instead of scanning all P: a write miss
invalidates them in ascending CPU order, and a read miss downgrades a
remote copy only when it is the line's sole one, since an EXCLUSIVE or
MODIFIED copy never coexists with another.  Only the miss paths change
the mask: a read miss adds the requester, a write miss or an upgrade
leaves the requester alone, and a fill that evicts a valid victim clears
the victim line's bit.  Hits never touch it — a hit changes no holder
(the silent EXCLUSIVE -> MODIFIED on a write keeps the copy valid), which
is what lets the trace generator test hits inline against the tag/state
arrays of :meth:`CoherentMemorySystem.hit_path`.
``tests/oracles/coherence.py`` keeps the scanning controller as the
differential oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cache import Cache, CacheStats, EXCLUSIVE, INVALID, MODIFIED, SHARED


def _make_evict_tap(listener, cpu: int):
    """Closure a cache calls when it evicts a line (carries the cpu id)."""

    def tap(line: int, dirty: bool) -> None:
        listener.coherence_event("evict", cpu, line, dirty)

    return tap


@dataclass(slots=True)
class AccessResult:
    """Outcome of one data access.

    Attributes:
        hit: whether the access hit in the local cache.
        stall: extra cycles beyond the 1-cycle pipeline occupancy
            (0 on a hit, the miss penalty on a miss).
    """

    hit: bool
    stall: int


class CoherentMemorySystem:
    """The set of per-processor caches plus the shared backing store model.

    All latency numbers are in processor cycles.  The system is purely a
    timing/accounting model: functional values live in
    :class:`~repro.mem.memory.SharedMemory` and never pass through here.
    """

    def __init__(
        self,
        n_cpus: int,
        cache_size: int = 64 * 1024,
        line_size: int = 16,
        miss_penalty: int = 50,
    ) -> None:
        if n_cpus < 1:
            raise ValueError("need at least one processor")
        self.n_cpus = n_cpus
        self.line_size = line_size
        self.miss_penalty = miss_penalty
        self.caches = [
            Cache(size=cache_size, line_size=line_size) for _ in range(n_cpus)
        ]
        # All caches share one geometry; precompute it so the hot lookup
        # avoids two method calls and two divisions per access.
        self._line_mask = self.caches[0].num_lines - 1
        #: line -> bitmask of the CPUs holding it valid (module docstring).
        self._sharers: dict[int, int] = {}
        self._listener = None
        #: optional repro.obs.Probe (miss-latency histograms + coherence
        #: counters); None keeps every miss path free of probe branches.
        self._obs = None

    def attach_probe(self, probe) -> None:
        """Register an observability probe (see :mod:`repro.obs`).

        Purely observational: taps fire on miss paths only and never
        alter timing, so simulation results are byte-identical with or
        without a probe attached.
        """
        self._obs = probe if probe is not None and probe.enabled else None

    def attach_listener(self, listener) -> None:
        """Register a protocol-event listener (consistency verification).

        The listener's ``coherence_event(kind, cpu, line, extra)`` is
        called on every install / upgrade / invalidate / downgrade /
        evict.  Events fire on miss paths only, so cache hits stay as
        cheap as without a listener.
        """
        self._listener = listener
        for cpu, cache in enumerate(self.caches):
            cache.evict_tap = _make_evict_tap(listener, cpu)

    # -- the single entry point used by the executor -------------------------

    def access(
        self, cpu: int, addr: int, is_write: bool, now: int = 0
    ) -> AccessResult:
        """Perform the timing/coherence side of one data access."""
        hit, stall = self.access_ht(cpu, addr, is_write, now)
        return AccessResult(hit=hit, stall=stall)

    def access_ht(self, cpu: int, addr: int, is_write: bool, now: int = 0):
        """Like :meth:`access` but returns a plain ``(hit, stall)`` tuple.

        This is the executor's fast path: no result object is allocated
        and the cache lookup is inlined (hits are ~90% of accesses).
        ``now`` is the requester's current cycle, passed on to the
        probe's miss tap.
        """
        cache = self.caches[cpu]
        line = addr // self.line_size
        idx = line & self._line_mask
        state = cache._state[idx] if cache._line_addr[idx] == line else INVALID
        stats = cache.stats
        if is_write:
            stats.writes += 1
            if state == MODIFIED:
                return True, 0
            if state == EXCLUSIVE:
                # Silent E -> M transition: the copy is already exclusive.
                cache._state[idx] = MODIFIED
                return True, 0
            # SHARED needs an ownership upgrade; INVALID needs a full fill.
            # Both invalidate every remote copy and pay the miss penalty,
            # and leave the requester the line's only holder.
            sharers = self._sharers
            others = sharers.get(line, 0) & ~(1 << cpu)
            if others:
                self._invalidate(others, line, idx)
            if state == SHARED:
                stats.upgrades += 1
                cache._state[idx] = MODIFIED
                if self._listener is not None:
                    self._listener.coherence_event("upgrade", cpu, line, None)
                if self._obs is not None:
                    self._obs.on_coherence("upgrade", cpu, line, None)
            else:
                self._fill(cpu, addr, line, idx, MODIFIED)
            sharers[line] = 1 << cpu
            stats.write_misses += 1
            stall = self.miss_penalty
            if self._obs is not None:
                self._obs.on_miss(cpu, True, stall, now)
            return False, stall
        stats.reads += 1
        if state != INVALID:
            return True, 0
        # Read miss: a remote owner is downgraded to SHARED (a dirty one
        # is written back); the line installs SHARED if anyone else holds
        # it, EXCLUSIVE otherwise.  The requester's copy is INVALID, so
        # its own bit is not in the mask, and only a sole holder can own
        # the line: two or more holders all hold it SHARED.
        sharers = self._sharers
        others = sharers.get(line, 0)
        if others and not others & (others - 1):
            self._downgrade(others.bit_length() - 1, line, idx)
        self._fill(cpu, addr, line, idx, SHARED if others else EXCLUSIVE)
        sharers[line] = others | 1 << cpu
        stats.read_misses += 1
        stall = self.miss_penalty
        if self._obs is not None:
            self._obs.on_miss(cpu, False, stall, now)
        return False, stall

    def hit_path(self):
        """``(line_size, line_mask, [(tags, states), ...])``, one per cpu.

        For callers that test hits inline (the trace generator's compiled
        engine) and call :meth:`access_ht` only on a miss.  A hit taken
        that way must still do what :meth:`access_ht` does on one: count
        into the cache's ``stats.reads`` / ``stats.writes``, and turn an
        EXCLUSIVE line MODIFIED on a write.  It must change no other tag
        or state: the sharer masks are kept on misses only.
        """
        return self.line_size, self._line_mask, [
            (cache._line_addr, cache._state) for cache in self.caches
        ]

    def would_hit(self, cpu: int, addr: int, is_write: bool) -> bool:
        """Non-mutating lookup: would this access hit right now?"""
        state = self.caches[cpu].state_of(addr)
        if is_write:
            return state in (MODIFIED, EXCLUSIVE)
        return state != INVALID

    # -- protocol helpers ---------------------------------------------------

    def _fill(self, cpu: int, addr: int, line: int, idx: int, state: int):
        """Install ``line`` in ``cpu``'s cache; a valid victim in its set
        loses ``cpu``'s bit (and its mask entry, once empty)."""
        cache = self.caches[cpu]
        victim = cache._line_addr[idx]
        if victim != line and cache._state[idx] != INVALID:
            sharers = self._sharers
            left = sharers[victim] & ~(1 << cpu)
            if left:
                sharers[victim] = left
            else:
                del sharers[victim]
        cache.install(addr, state)
        if self._listener is not None:
            self._listener.coherence_event("install", cpu, line, state)
        if self._obs is not None:
            self._obs.on_coherence("install", cpu, line, state)

    def _invalidate(self, holders: int, line: int, idx: int) -> None:
        """Invalidate the copies of ``line`` in the caches of ``holders``
        (a mask of CPUs), lowest CPU first."""
        caches = self.caches
        while holders:
            low = holders & -holders
            holders ^= low
            other = low.bit_length() - 1
            cache = caches[other]
            dirty = cache._state[idx] == MODIFIED
            if dirty:
                cache.stats.writebacks += 1
            cache._state[idx] = INVALID
            cache.stats.invalidations_received += 1
            if self._listener is not None:
                self._listener.coherence_event(
                    "invalidate", other, line, dirty
                )
            if self._obs is not None:
                self._obs.on_coherence("invalidate", other, line, dirty)

    def _downgrade(self, owner: int, line: int, idx: int) -> None:
        """Downgrade ``owner``'s copy of ``line`` to SHARED if it is
        EXCLUSIVE or MODIFIED; a MODIFIED one is written back."""
        cache = self.caches[owner]
        state = cache._state[idx]
        if state == SHARED:
            return
        dirty = state == MODIFIED
        cache._state[idx] = SHARED
        stats = cache.stats
        stats.downgrades_received += 1
        if dirty:
            stats.writebacks += 1
        if self._listener is not None:
            self._listener.coherence_event("downgrade", owner, line, dirty)
        if self._obs is not None:
            self._obs.on_coherence("downgrade", owner, line, dirty)

    # -- invariants and reporting ---------------------------------------------

    def check_coherence_invariant(self, addr: int) -> None:
        """Assert single-writer / multiple-reader for the line of ``addr``.

        Used by tests and debug runs: at most one cache may hold the line
        MODIFIED or EXCLUSIVE, and if one does, no other cache may hold it
        at all.
        """
        holders = [
            (i, c.state_of(addr))
            for i, c in enumerate(self.caches)
            if c.holds(addr)
        ]
        owners = [i for i, s in holders if s in (MODIFIED, EXCLUSIVE)]
        if len(owners) > 1:
            raise AssertionError(
                f"multiple owned copies of line {addr:#x}: {holders}"
            )
        if owners and len(holders) > 1:
            raise AssertionError(
                f"owned copy coexists with other copies of {addr:#x}: "
                f"{holders}"
            )

    def total_stats(self) -> CacheStats:
        """Aggregate counters across all caches."""
        total = CacheStats()
        for cache in self.caches:
            total.merge(cache.stats)
        return total
