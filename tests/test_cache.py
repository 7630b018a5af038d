"""Tests for the direct-mapped MESI cache (single-cache behaviour)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem import Cache, EXCLUSIVE, INVALID, MODIFIED, SHARED


def make_cache(size=256, line=16):
    return Cache(size=size, line_size=line)


class TestGeometry:
    def test_line_and_index(self):
        c = make_cache(size=256, line=16)  # 16 lines
        assert c.line_of(0) == 0
        assert c.line_of(15) == 0
        assert c.line_of(16) == 1
        assert c.index_of(c.line_of(16 * 16)) == 0  # wraps

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            Cache(size=100, line_size=16)

    def test_non_power_of_two_lines_rejected(self):
        with pytest.raises(ValueError):
            Cache(size=48, line_size=16)


class TestStates:
    def test_initially_invalid(self):
        c = make_cache()
        assert c.state_of(0x40) == INVALID
        assert not c.holds(0x40)

    def test_install_shared(self):
        c = make_cache()
        c.install(0x40, SHARED)
        assert c.state_of(0x40) == SHARED
        assert c.state_of(0x44) == SHARED  # same line

    def test_install_conflicting_line_evicts(self):
        c = make_cache(size=256)  # 16 lines; 0x0 and 0x100 conflict
        c.install(0x0, SHARED)
        victim = c.install(0x100, SHARED)
        assert victim is None  # clean victim: no writeback
        assert c.state_of(0x0) == INVALID
        assert c.stats.evictions == 1

    def test_dirty_eviction_writes_back(self):
        c = make_cache(size=256)
        c.install(0x0, MODIFIED)
        victim = c.install(0x100, SHARED)
        assert victim == 0  # line address of the dirty victim
        assert c.stats.writebacks == 1


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 1023), st.sampled_from([SHARED, EXCLUSIVE,
                                                     MODIFIED])),
    max_size=50,
))
def test_property_state_always_matches_last_install(ops):
    """After any install sequence, a line is either absent or in the last
    state installed for the line currently occupying its set."""
    c = make_cache(size=256)
    last_for_index = {}
    for addr, state in ops:
        c.install(addr, state)
        last_for_index[c.index_of(c.line_of(addr))] = (c.line_of(addr),
                                                       state)
    for index, (line, state) in last_for_index.items():
        addr = line * c.line_size
        assert c.state_of(addr) == state


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 2047), min_size=1, max_size=100))
def test_property_writeback_only_on_dirty_eviction(addrs):
    """Writebacks never exceed the number of MODIFIED installs."""
    c = make_cache(size=256)
    modified_installs = 0
    for i, addr in enumerate(addrs):
        state = MODIFIED if i % 2 else SHARED
        if state == MODIFIED:
            modified_installs += 1
        c.install(addr, state)
    assert c.stats.writebacks <= modified_installs
