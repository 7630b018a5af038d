"""Property-based tests over randomly generated traces.

A random-but-wellformed trace generator drives every processor model and
checks the invariants that must hold for *any* workload: attribution sums,
model orderings, window monotonicity, and the busy==instructions identity.
"""

from hypothesis import given, settings, strategies as st

from repro.consistency import MODELS
from repro.cpu import ProcessorConfig, make_stepper, simulate
from repro.isa import MemClass, Op
from repro.tango import Trace, TraceRecord


def _run(trace, kind, model="RC", **kw):
    return simulate(trace, ProcessorConfig(kind=kind, model=model, **kw))


@st.composite
def traces(draw, max_len=60):
    """A random trace with plausible structure."""
    n = draw(st.integers(1, max_len))
    records = []
    pc = 0
    lock_held = False
    for _ in range(n):
        kind = draw(st.sampled_from(
            ["alu", "alu", "alu", "load", "load", "store", "branch",
             "sync"]
        ))
        if kind == "alu":
            rd = draw(st.integers(1, 8))
            rs1 = draw(st.integers(0, 8))
            records.append(TraceRecord(
                op=Op.ADD, pc=pc, next_pc=pc + 1, rd=rd, rs1=rs1,
            ))
        elif kind == "load":
            stall = draw(st.sampled_from([0, 0, 50]))
            records.append(TraceRecord(
                op=Op.LW, pc=pc, next_pc=pc + 1,
                rd=draw(st.integers(1, 8)),
                rs1=draw(st.integers(0, 8)),
                addr=draw(st.integers(0, 63)) * 16,
                stall=stall, mem_class=MemClass.READ,
            ))
        elif kind == "store":
            stall = draw(st.sampled_from([0, 50]))
            records.append(TraceRecord(
                op=Op.SW, pc=pc, next_pc=pc + 1,
                rs1=draw(st.integers(0, 8)),
                rs2=draw(st.integers(0, 8)),
                addr=draw(st.integers(0, 63)) * 16,
                stall=stall, mem_class=MemClass.WRITE,
            ))
        elif kind == "branch":
            taken = draw(st.booleans())
            records.append(TraceRecord(
                op=Op.BNE, pc=pc,
                next_pc=draw(st.integers(0, 40)) if taken else pc + 1,
                rs1=draw(st.integers(0, 8)),
            ))
        else:
            if lock_held:
                records.append(TraceRecord(
                    op=Op.UNLOCK, pc=pc, next_pc=pc + 1, addr=0x8000,
                    stall=50, mem_class=MemClass.RELEASE,
                ))
                lock_held = False
            else:
                records.append(TraceRecord(
                    op=Op.LOCK, pc=pc, next_pc=pc + 1, addr=0x8000,
                    stall=50, wait=draw(st.sampled_from([0, 0, 30])),
                    mem_class=MemClass.ACQUIRE,
                ))
                lock_held = True
        pc = records[-1].next_pc
    trace = Trace(cpu=0)
    for r in records:
        trace.append(r)
    return trace


@settings(max_examples=60, deadline=None, derandomize=True)
@given(traces())
def test_attribution_sums_for_every_model(trace):
    for kind in ("base", "ssbr", "ss", "ds"):
        for model in ("SC", "PC", "WO", "RC"):
            r = simulate(
                trace,
                ProcessorConfig(kind=kind, model=model, window=32),
            )
            assert r.total == r.busy + r.sync + r.read + r.write + r.other
            assert r.busy == len(trace)
            if kind == "base":
                break  # BASE ignores the model


@settings(max_examples=40, deadline=None, derandomize=True)
@given(traces())
def test_base_is_upper_bound_for_static_models(trace):
    base = _run(trace, "base")
    for model in MODELS:
        assert _run(trace, "ssbr", model).total <= base.total + 2
        assert _run(trace, "ss", model).total <= base.total + 2


@settings(max_examples=30, deadline=None, derandomize=True)
@given(traces())
def test_ds_window_monotonicity(trace):
    prev = None
    for window in (16, 64, 256):
        total = _run(trace, "ds", window=window).total
        if prev is not None:
            # Allow a sliver of scheduling noise.
            assert total <= prev + 3
        prev = total


@settings(max_examples=30, deadline=None, derandomize=True)
@given(traces())
def test_ds_rc_never_slower_than_ds_sc(trace):
    sc = _run(trace, "ds", "SC", window=64)
    rc = _run(trace, "ds", "RC", window=64)
    assert rc.total <= sc.total + 3


_PBP_AND_NODEP = [
    ProcessorConfig(kind="ds", window=32, perfect_bp=True, ignore_deps=nodep)
    for nodep in (False, True)
]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(traces())
def test_perfect_bp_and_nodep_never_slower(trace):
    normal = _run(trace, "ds", window=32)
    pbp, nodep = (simulate(trace, config) for config in _PBP_AND_NODEP)
    assert pbp.total <= normal.total + 3
    # Dropping dependences is not monotone on a single oldest-first
    # memory port (a list-scheduling anomaly, pinned below): a load it
    # makes ready early takes a port slot ahead of a younger operation
    # on the critical path, and the shifted operation can then meet
    # older stores at the port it used to miss.  Every memory operation
    # holds the port for one cycle, so one cycle each is what the
    # arbitration allows; anything beyond that is a regression.
    port_ops = sum(cls != MemClass.NONE for cls in trace.mem_class)
    assert nodep.total <= pbp.total + 3 + port_ops


def test_nodep_port_anomaly():
    """The minimised counterexample to "ignoring dependences is never
    slower" (found by a seed sweep: 2 of 40 seeds x 300 traces exceeded
    the old +3 slack; 12 000 more traces topped out at +6).  With
    dependences the two hit-loads wait for the misses they read from,
    so the second miss issues at 53 and the first re-acquire at 54.
    Without them both hit-loads are ready at once and are older: the
    miss slips to 54 and the acquire to 56, performs at 107 instead of
    105 — exactly when the two retired stores, older again, claim the
    port — and the last acquire, serialized behind it, issues at 109
    instead of 105.  Four port slots lost, none recovered."""
    lock = dict(op=Op.LOCK, addr=0x8000, stall=50,
                mem_class=MemClass.ACQUIRE)
    miss = dict(op=Op.LW, rd=2, rs1=0, addr=0, stall=50,
                mem_class=MemClass.READ)
    hit = dict(op=Op.LW, rd=1, rs1=2, addr=0, mem_class=MemClass.READ)
    rows = [
        lock, miss, hit, miss,
        dict(op=Op.SW, rs1=0, rs2=0, addr=0, mem_class=MemClass.WRITE),
        dict(op=Op.UNLOCK, addr=0x8000, stall=50,
             mem_class=MemClass.RELEASE),
        hit, lock, dict(lock, wait=30),
    ]
    trace = Trace(cpu=0)
    for pc, row in enumerate(rows):
        trace.append(TraceRecord(pc=pc, next_pc=pc + 1, **row))

    def miss_issue_times(config):
        stepper, times = make_stepper(trace, config), []
        try:
            request = next(stepper)
            while True:
                times.append(request.time)
                request = stepper.send(request.stall)
        except StopIteration as stop:
            return times, stop.value.total

    pbp, nodep = map(miss_issue_times, _PBP_AND_NODEP)
    assert pbp == ([52, 53], 187)
    assert nodep == ([52, 54], 191)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(traces())
def test_ds_beats_or_matches_base(trace):
    base = _run(trace, "base")
    ds = _run(trace, "ds", window=256)
    # +small slack: pipeline-fill and port quantization.
    assert ds.total <= base.total + len(trace) // 4 + 5


@settings(max_examples=30, deadline=None, derandomize=True)
@given(traces())
def test_wider_issue_never_slower(trace):
    one = _run(trace, "ds", window=64, issue_width=1)
    four = _run(trace, "ds", window=64, issue_width=4)
    # Wider issue is not strictly monotone cycle-for-cycle: a 4-wide
    # front end reaches mispredicted branches and store-buffer limits
    # sooner, which can cost a few cycles around each such episode.
    # Allow that quantization slack; a real regression dwarfs it.
    assert four.total <= one.total + len(trace) // 8 + 4
