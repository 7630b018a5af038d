"""The scanning coherence controller — the oracle of the sharer masks.

:class:`ReferenceMemorySystem` is :class:`repro.mem.CoherentMemorySystem`
with the miss paths it had before the product kept a presence mask per
line: every read miss and every write miss looks at all P caches and
acts on those whose tag matches.  It keeps no mask, so it cannot be
wrong the way a stale mask is; a differential test drives both with the
same accesses and compares hits, stalls, counters, tag/state arrays and
the listener's and probe's event sequences.  The constructor, the probe
and listener hooks, ``hit_path`` and the reporting methods are
inherited: only the protocol differs.
"""

from __future__ import annotations

from repro.mem import (
    EXCLUSIVE,
    INVALID,
    MODIFIED,
    SHARED,
    CoherentMemorySystem,
)


class ReferenceMemorySystem(CoherentMemorySystem):
    """MESI over the caches by scanning all of them on every miss."""

    def access_ht(self, cpu: int, addr: int, is_write: bool, now: int = 0):
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
                cache._state[idx] = MODIFIED
                return True, 0
            self._invalidate_others(cpu, addr)
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
            stall = self.miss_penalty
            if self._obs is not None:
                self._obs.on_miss(cpu, True, stall, now)
            return False, stall
        stats.reads += 1
        if state != INVALID:
            return True, 0
        shared = self._downgrade_others(cpu, addr)
        new_state = SHARED if shared else EXCLUSIVE
        cache.install(addr, new_state)
        if self._listener is not None:
            self._listener.coherence_event("install", cpu, line, new_state)
        if self._obs is not None:
            self._obs.on_coherence("install", cpu, line, new_state)
        stats.read_misses += 1
        stall = self.miss_penalty
        if self._obs is not None:
            self._obs.on_miss(cpu, False, stall, now)
        return False, stall

    def _invalidate_others(self, cpu: int, addr: int) -> None:
        """Invalidate remote copies."""
        line = addr // self.line_size
        idx = line & self._line_mask
        for other, cache in enumerate(self.caches):
            if other != cpu and cache._line_addr[idx] == line:
                state = cache._state[idx]
                if state != INVALID:
                    if state == MODIFIED:
                        cache.stats.writebacks += 1
                    cache._state[idx] = INVALID
                    cache.stats.invalidations_received += 1
                    if self._listener is not None:
                        self._listener.coherence_event(
                            "invalidate", other, line, state == MODIFIED
                        )
                    if self._obs is not None:
                        self._obs.on_coherence(
                            "invalidate", other, line, state == MODIFIED
                        )

    def _downgrade_others(self, cpu: int, addr: int) -> bool:
        """Downgrade remote copies to SHARED; returns whether any remote
        copy existed."""
        line = addr // self.line_size
        idx = line & self._line_mask
        shared = False
        for other, cache in enumerate(self.caches):
            if other != cpu and cache._line_addr[idx] == line:
                state = cache._state[idx]
                if state == MODIFIED:
                    shared = True
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
        return shared
