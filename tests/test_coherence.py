"""Tests for the multi-cache invalidation protocol."""

import pytest
from hypothesis import given, settings, strategies as st
from oracles.coherence import ReferenceMemorySystem

from repro import MultiprocessorConfig, TangoExecutor, build_app
from repro.apps import APP_NAMES
from repro.mem import (
    CoherentMemorySystem,
    EXCLUSIVE,
    INVALID,
    MODIFIED,
    SHARED,
)
from repro.tango import executor
from repro.verify import ExecutionRecorder


def make_system(n=4, penalty=50):
    return CoherentMemorySystem(n_cpus=n, cache_size=256, miss_penalty=penalty)


class TestReadPaths:
    def test_cold_read_misses_installs_exclusive(self):
        s = make_system()
        r = s.access(0, 0x40, is_write=False)
        assert not r.hit and r.stall == 50
        assert s.caches[0].state_of(0x40) == EXCLUSIVE

    def test_second_read_hits(self):
        s = make_system()
        s.access(0, 0x40, is_write=False)
        r = s.access(0, 0x44, is_write=False)  # same line
        assert r.hit and r.stall == 0

    def test_remote_read_downgrades_to_shared(self):
        s = make_system()
        s.access(0, 0x40, is_write=False)
        r = s.access(1, 0x40, is_write=False)
        assert not r.hit
        assert s.caches[0].state_of(0x40) == SHARED
        assert s.caches[1].state_of(0x40) == SHARED

    def test_read_of_remote_dirty_writes_back(self):
        s = make_system()
        s.access(0, 0x40, is_write=True)
        assert s.caches[0].state_of(0x40) == MODIFIED
        s.access(1, 0x40, is_write=False)
        assert s.caches[0].state_of(0x40) == SHARED
        assert s.caches[0].stats.writebacks == 1


class TestWritePaths:
    def test_cold_write_misses_installs_modified(self):
        s = make_system()
        r = s.access(0, 0x40, is_write=True)
        assert not r.hit and r.stall == 50
        assert s.caches[0].state_of(0x40) == MODIFIED

    def test_write_to_modified_hits(self):
        s = make_system()
        s.access(0, 0x40, is_write=True)
        r = s.access(0, 0x44, is_write=True)
        assert r.hit

    def test_write_to_exclusive_is_silent_upgrade(self):
        s = make_system()
        s.access(0, 0x40, is_write=False)   # E
        r = s.access(0, 0x40, is_write=True)
        assert r.hit and r.stall == 0
        assert s.caches[0].state_of(0x40) == MODIFIED
        assert s.caches[0].stats.write_misses == 0

    def test_write_to_shared_pays_upgrade_miss(self):
        s = make_system()
        s.access(0, 0x40, is_write=False)
        s.access(1, 0x40, is_write=False)   # both SHARED now
        r = s.access(0, 0x40, is_write=True)
        assert not r.hit and r.stall == 50
        assert s.caches[0].stats.upgrades == 1
        assert s.caches[0].stats.write_misses == 1
        assert s.caches[1].state_of(0x40) == INVALID

    def test_write_invalidates_all_remote_copies(self):
        s = make_system()
        for cpu in range(4):
            s.access(cpu, 0x40, is_write=False)
        s.access(0, 0x40, is_write=True)
        for cpu in range(1, 4):
            assert s.caches[cpu].state_of(0x40) == INVALID

    def test_write_miss_to_remote_dirty(self):
        s = make_system()
        s.access(0, 0x40, is_write=True)
        s.access(1, 0x40, is_write=True)
        assert s.caches[0].state_of(0x40) == INVALID
        assert s.caches[1].state_of(0x40) == MODIFIED


class TestStatsAndInvariants:
    def test_would_hit_is_non_mutating(self):
        s = make_system()
        assert not s.would_hit(0, 0x40, is_write=False)
        s.access(0, 0x40, is_write=False)
        assert s.would_hit(0, 0x40, is_write=False)
        assert s.would_hit(0, 0x40, is_write=True)  # E counts for writes

    def test_total_stats_aggregates(self):
        s = make_system()
        s.access(0, 0x40, is_write=False)
        s.access(1, 0x80, is_write=True)
        total = s.total_stats()
        assert total.reads == 1
        assert total.writes == 1
        assert total.read_misses == 1
        assert total.write_misses == 1

    def test_invariant_checker_detects_clean_state(self):
        s = make_system()
        s.access(0, 0x40, is_write=True)
        s.check_coherence_invariant(0x40)
        s.access(1, 0x40, is_write=False)
        s.check_coherence_invariant(0x40)


@settings(max_examples=150, deadline=None)
@given(st.lists(
    st.tuples(
        st.integers(0, 3),            # cpu
        st.integers(0, 63),           # line number
        st.booleans(),                # is_write
    ),
    max_size=120,
))
def test_property_single_writer_multiple_reader(ops):
    """After any access sequence: at most one owned (E/M) copy per line,
    and an owned copy never coexists with other copies."""
    s = make_system()
    touched = set()
    for cpu, line, is_write in ops:
        addr = line * 16
        s.access(cpu, addr, is_write)
        touched.add(addr)
    for addr in touched:
        s.check_coherence_invariant(addr)


@settings(max_examples=100, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 31), st.booleans()),
    max_size=100,
))
def test_property_hit_stall_is_zero_miss_stall_is_penalty(ops):
    s = make_system(penalty=37)
    for cpu, line, is_write in ops:
        r = s.access(cpu, line * 16, is_write)
        assert r.stall == (0 if r.hit else 37)


class _Recorder:
    """A listener and an enabled probe that log every call in order."""

    enabled = True

    def __init__(self):
        self.events = []

    def coherence_event(self, kind, cpu, line, extra):
        self.events.append(("listener", kind, cpu, line, extra))

    def on_coherence(self, kind, cpu, line, extra):
        self.events.append(("probe", kind, cpu, line, extra))

    def on_miss(self, cpu, is_write, stall, now):
        self.events.append(("miss", cpu, is_write, stall, now))


def _holders(system):
    """line -> mask of the caches holding it valid, from the arrays."""
    held = {}
    for cpu, cache in enumerate(system.caches):
        for line, state in zip(cache._line_addr, cache._state):
            if state != INVALID:
                held[line] = held.get(line, 0) | 1 << cpu
    return held


@st.composite
def _access_streams(draw):
    n_cpus = draw(st.integers(2, 16))
    accesses = st.tuples(
        st.integers(0, n_cpus - 1),
        st.integers(0, 16 * 16 - 1),  # 16 lines over a 4-line cache
        st.booleans(),
    )
    return n_cpus, draw(st.lists(accesses, max_size=200))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_access_streams())
def test_sharer_masks_match_the_scanning_oracle(stream):
    """The presence-mask controller and the scanning oracle agree on
    every access, counter, tag, state and event, and every mask names
    exactly the caches holding its line."""
    n_cpus, accesses = stream
    systems, logs = [], []
    for cls in (CoherentMemorySystem, ReferenceMemorySystem):
        system = cls(n_cpus=n_cpus, cache_size=64, miss_penalty=50)
        log = _Recorder()
        system.attach_listener(log)
        system.attach_probe(log)
        systems.append(system)
        logs.append(log)
    product, oracle = systems
    for now, (cpu, addr, is_write) in enumerate(accesses):
        assert product.access_ht(cpu, addr, is_write, now) == (
            oracle.access_ht(cpu, addr, is_write, now)
        )
        assert product._sharers == _holders(product)
        for mine, theirs in zip(product.caches, oracle.caches):
            assert mine.stats == theirs.stats
            assert mine._line_addr == theirs._line_addr
            assert mine._state == theirs._state
    assert logs[0].events == logs[1].events


def _run_traced(app, preset, n_procs):
    """Run ``app`` with every CPU traced and a recorder attached."""
    workload = build_app(app, n_procs=n_procs, preset=preset)
    recorder = ExecutionRecorder()
    config = MultiprocessorConfig(
        n_cpus=n_procs, trace_cpus=tuple(range(n_procs))
    )
    result = TangoExecutor(
        workload.programs, config, memory=workload.memory, recorder=recorder
    ).run()
    log = recorder.log()
    return (
        result.traces,
        result.stats,
        [cache.stats for cache in result.memsys.caches],
        log.coherence,
        log.events,
    )


@pytest.mark.parametrize("app", APP_NAMES)
def test_trace_generator_same_under_scanning_oracle(app, monkeypatch):
    """Every trace, the RunStats, the per-cache counters and the recorded
    coherence log come out the same when the trace generator's memory
    system is the scanning oracle."""
    product = _run_traced(app, "tiny", 4)
    monkeypatch.setattr(
        executor, "CoherentMemorySystem", ReferenceMemorySystem
    )
    assert _run_traced(app, "tiny", 4) == product
