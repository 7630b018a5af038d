"""Invalidation-based cache coherence across the multiprocessor.

This is the memory-system model of the paper's §3.2: per-processor
direct-mapped write-back caches kept coherent with an invalidation
protocol (MSI), a 1-cycle hit time, and a *fixed* miss penalty — queueing
and contention in the interconnect and at the memory modules are not
modelled, exactly as in the paper.

That fixed penalty is now the degenerate "ideal" network backend.  When
a :class:`~repro.net.ContentionNetwork` is attached, miss latency is
instead computed per transaction — request to the line's directory home
node, directory occupancy, invalidation/intervention fan-out, data
return — so it varies with interconnect and directory load.  The ideal
backend (``network=None``) remains the default and its code path is
byte-for-byte the original one.

Write misses include ownership upgrades (a write to a SHARED line must
invalidate remote copies and therefore pays the full miss penalty), which
is what makes write misses outnumber read misses in OCEAN-style
read-modify-write stencil codes.
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
        network=None,
    ) -> None:
        if n_cpus < 1:
            raise ValueError("need at least one processor")
        self.n_cpus = n_cpus
        self.line_size = line_size
        self.miss_penalty = miss_penalty
        #: optional repro.net.ContentionNetwork; None = fixed penalty
        self.network = network
        self.caches = [
            Cache(size=cache_size, line_size=line_size) for _ in range(n_cpus)
        ]
        # All caches share one geometry; precompute it so the hot lookup
        # avoids two method calls and two divisions per access.
        self._line_mask = self.caches[0].num_lines - 1
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
        ``now`` is the requester's current cycle; the ideal backend
        ignores it, the network backend uses it to place the miss's
        messages in time so overlapping misses contend.
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
            # Both invalidate every remote copy and pay the miss penalty.
            sharers = self._invalidate_others(cpu, addr)
            if state == SHARED:
                stats.upgrades += 1
                cache._state[idx] = MODIFIED
                if self._listener is not None:
                    self._listener.coherence_event("upgrade", cpu, line, None)
                if self._obs is not None:
                    self._obs.on_coherence("upgrade", cpu, line, None)
            else:
                cache.install(addr, MODIFIED)
                if self._listener is not None:
                    self._listener.coherence_event(
                        "install", cpu, line, MODIFIED
                    )
                if self._obs is not None:
                    self._obs.on_coherence("install", cpu, line, MODIFIED)
            stats.write_misses += 1
            if self.network is None:
                stall = self.miss_penalty
            else:
                stall = self.network.write_miss(
                    cpu, line, sharers, now, upgrade=state == SHARED
                )
            if self._obs is not None:
                self._obs.on_miss(cpu, True, stall, now)
            return False, stall
        stats.reads += 1
        if state != INVALID:
            return True, 0
        # Read miss: remote copies are downgraded to SHARED (a dirty one
        # is written back); the line installs SHARED if anyone else holds
        # it, EXCLUSIVE otherwise.
        shared, owner = self._downgrade_others(cpu, addr)
        new_state = SHARED if shared else EXCLUSIVE
        cache.install(addr, new_state)
        if self._listener is not None:
            self._listener.coherence_event("install", cpu, line, new_state)
        if self._obs is not None:
            self._obs.on_coherence("install", cpu, line, new_state)
        stats.read_misses += 1
        if self.network is None:
            stall = self.miss_penalty
        else:
            stall = self.network.read_miss(cpu, line, owner, now)
        if self._obs is not None:
            self._obs.on_miss(cpu, False, stall, now)
        return False, stall

    def hit_path(self):
        """``(line_size, line_mask, [(tags, states), ...])``, one per cpu.

        For callers that test hits inline (the trace generator's compiled
        engine) and call :meth:`access_ht` only on a miss.  A hit taken
        that way must still do what :meth:`access_ht` does on one: count
        into the cache's ``stats.reads`` / ``stats.writes``, and turn an
        EXCLUSIVE line MODIFIED on a write.
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

    def _invalidate_others(self, cpu: int, addr: int) -> tuple[int, ...]:
        """Invalidate remote copies; returns the cpus that held one."""
        line = addr // self.line_size
        idx = line & self._line_mask
        sharers = []
        for other, cache in enumerate(self.caches):
            if other != cpu and cache._line_addr[idx] == line:
                state = cache._state[idx]
                if state != INVALID:
                    if state == MODIFIED:
                        cache.stats.writebacks += 1
                    cache._state[idx] = INVALID
                    cache.stats.invalidations_received += 1
                    sharers.append(other)
                    if self._listener is not None:
                        self._listener.coherence_event(
                            "invalidate", other, line, state == MODIFIED
                        )
                    if self._obs is not None:
                        self._obs.on_coherence(
                            "invalidate", other, line, state == MODIFIED
                        )
        return tuple(sharers)

    def _downgrade_others(self, cpu: int, addr: int):
        """Downgrade remote copies to SHARED.

        Returns ``(shared, owner)``: whether any remote copy existed,
        and the cpu that held the line MODIFIED (the intervention
        target that supplies data cache-to-cache) or None when memory
        at the home node sources the fill.
        """
        line = addr // self.line_size
        idx = line & self._line_mask
        shared = False
        owner = None
        for other, cache in enumerate(self.caches):
            if other != cpu and cache._line_addr[idx] == line:
                state = cache._state[idx]
                if state == MODIFIED:
                    shared = True
                    owner = other
                    cache._state[idx] = SHARED
                    stats = cache.stats
                    stats.downgrades_received += 1
                    stats.writebacks += 1
                    if self._listener is not None:
                        self._listener.coherence_event(
                            "downgrade", other, line, True
                        )
                    if self._obs is not None:
                        self._obs.on_coherence("downgrade", other, line, True)
                elif state == EXCLUSIVE:
                    shared = True
                    cache._state[idx] = SHARED
                    cache.stats.downgrades_received += 1
                    if self._listener is not None:
                        self._listener.coherence_event(
                            "downgrade", other, line, False
                        )
                    if self._obs is not None:
                        self._obs.on_coherence(
                            "downgrade", other, line, False
                        )
                elif state == SHARED:
                    shared = True
        return shared, owner

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
