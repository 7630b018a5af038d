"""The dynamically scheduled processor (paper §3.1, after Johnson),
event-driven.

A cycle-level, trace-driven model of the paper's out-of-order core: a
reorder buffer (the 16–256-entry "lookahead window") that decodes and
retires in program order; register renaming through it, so only true
dependences delay issue; one single-cycle functional unit per class
with out-of-order issue within each; a 2048-entry 4-way BTB with 2-bit
counters and speculative execution past predicted branches (a
misprediction stalls fetch until the branch executes); a lockup-free
cache behind one memory port; and a store buffer with read bypassing
and forwarding, whose stores issue only after retiring and only when
the consistency model allows.  The consistency model enters once: a
memory operation may begin its access only when every earlier
operation whose class the model orders before it has *performed*.
Each cycle is busy when an instruction retires, and otherwise charged
to the reorder-buffer head's blocking reason (read, sync, write, or
the rare "other" bubble).

The loop is exact to a per-entry, per-cycle formulation (kept as the
test oracle), built on the same split as :mod:`repro.cpu.static_fast`:
everything that depends only on the *trace contents* is precomputed in
batch, and the cycle loop runs on flat per-row state instead of heap
objects.

* **Decode-side kernels.**  Decode order equals trace order regardless
  of timing, so the three stateful per-decode computations of a
  per-entry model collapse into batch passes done once per trace: the
  full branch-prediction outcome column
  (:func:`repro.cpu.kernels.control_mispredicts` replays the BTB), the
  producer row of each source operand
  (:func:`repro.cpu.kernels.producer_rows` replaces the ``last_writer``
  dict), and per-row FU class / store-like / contended-acquire tables.

* **Flat state.**  The reorder-buffer entry *is* its row number: the
  ROB collapses to two integers (head row, fetch row), and all mutable
  per-entry fields (``complete_time``, ``ready_time``, ``performed``,
  ``issued``, pending-source counts) become row-indexed lists and
  bytearrays.  No ``_Entry`` is ever allocated.  A row holds cycle
  numbers only while it is in flight: at retire its completion and
  ready cycles become the cached int ``0`` (exact, since a retired row
  completed at or before now, and every later read asks only "unknown
  or in the future?"), except a store's ready cycle, which the
  prefetch adjustment reads when the store issues from the buffer and
  which is cleared then; a row's dependent list is dropped once it has
  woken them.  The trace-derived tables follow
  :mod:`repro.cpu.static_fast`'s column rule: addresses and waits,
  whose values exceed 256, are typed ``array`` columns, 4 bytes per
  row (the trace's own width) for as long as the trace lives;
  small-valued columns (opcodes, units, classes, stalls) stay lists of
  cached small ints, 8 bytes per row and a specialised subscript, and
  the 0/1 flags (mispredictions, head-waiting acquires) are ``bytes``.
  Decode never subscripts the misprediction column: mispredictions are
  sparse, so it compares the row with the next mispredicted one, found
  with ``bytes.find`` as each is decoded.  A row's ready cycle is
  written at decode only if something can read it: a row queued for a
  unit or the port, or a store, whose buffered issue the prefetch
  adjustment times from it; a preset op and a streak-proven hit load
  never queue.  Each source's producer is stored as its distance back
  from the consumer (0 for none), nearly always a cached small int, so
  every decode reads the two columns as lists without one int object
  per row.  Decode cycles are kept only when a tracer or
  ``collect_miss_stats`` reads them.

* **Cheap events.**  Single-cycle completions — FU results, cache-hit
  loads, clean store performs; the overwhelming majority of events —
  are always due exactly one cycle after issue, so they ride a plain
  list swapped each cycle instead of the event heap; the heap only
  carries miss latencies and acquire head-waits.  Processing order of
  same-cycle completions does not affect any outcome (flags and
  wake-ups commute), so the split is exact.  A completion known at
  most one cycle ahead is written when it becomes known (at an FU
  issue, a hit issue, or a preset decode): a consumer decoded before
  it lands is then ready at the same cycle its wake-up would have
  made it, without a dependence link, and an FU result with nobody
  linked to it never enters the due list at all.

* **An O(1) memory port.**  Ready loads and acquires wait in one
  index-ordered heap per memory class, beside the per-unit FU heaps,
  all behind one nonempty bitmask.  The port takes the oldest
  admissible of the oldest unissued buffered store (it has retired, so
  it is older than every load) and the ready ops; admissibility — no
  older op the model orders first is unperformed — is monotone in the
  row within a class, and every queued op is ready, so only the head of
  each class heap can win.  Admissibility itself is one deque head: the
  unperformed memory rows are kept once per distinct blocker set of
  the model (one set under SC), so the oldest blocker of a class is a
  single lazy-cleaned head.

* **The streak.**  While no event is due, every ready heap is empty
  and fetch runs, a cycle is committed as "perform last cycle's
  one-cycle access, issue the op that claimed the port, decode one
  provable op, retire the head" without the phase machinery.  Provable
  are preset non-memory ops (operands ready by t+1, unit idle and no
  older op of the unit able to wake first: issue at t+1, complete at
  t+2), cache-hit loads (no older blocker unperformed, no dep-deferred
  load or acquire that could wake first, no store that could take the
  port at t+1 — forwarding from a buffered store costs the same single
  cycle — so they issue at t+1 and complete at t+2) and stores (no port
  until they retire; a clean one retiring into a non-full buffer with
  no older blocker issues at t+1 ahead of every load).  A proven access
  claims the port for the next cycle; the claim is honoured by the
  streak and the general loop alike.  Misses, mispredictions, acquires
  at the head, dependent decodes, a full window or buffer and queued
  port work fall back to the general loop, which re-enters the streak
  on the next cycle.

Everything observable is preserved cycle for cycle: the breakdown
(busy/sync/read/write/other and the cycle count in ``extras``), the
order and fields of every request the engine yields — a
:class:`~repro.cpu.requests.MemRequest` at each miss the memory port
issues and, under live sync, a :class:`~repro.cpu.requests.SyncRequest`
per cycle an acquire waits at the reorder-buffer head and a
:class:`~repro.cpu.requests.ReleaseNotify` as each release performs (it
is a resumable stepper, driven standalone by :func:`repro.cpu.simulate`
or stepped by the co-simulation engine) — probe histograms and retire
spans (with lane handles cached instead of re-looked-up per
retirement), and the read-miss issue delays of
``DSConfig.collect_miss_stats`` (returned in ``extras``).  The
per-cycle formulation is the differential oracle — see
``tests/test_fastpath.py``.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from ...consistency import ConsistencyModel
from ...isa import FuClass, MemClass, Op, fu_class
from ...tango import Trace
from ..kernels import _N_OPS, _OP_MEMBER, control_mispredicts, producer_rows
from ..requests import MemRequest, ReleaseNotify, SyncRequest
from ..results import ExecutionBreakdown
from ..static_fast import _trace_index, _typed
from .btb import BranchTargetBuffer

_MC_READ = 1
_MC_WRITE = 2
_MC_ACQUIRE = 3
_MC_RELEASE = 4

_MEM_CLASSES = tuple(int(cls) for cls in (
    MemClass.READ,
    MemClass.WRITE,
    MemClass.ACQUIRE,
    MemClass.RELEASE,
    MemClass.BARRIER,
))

_ACQ = (int(MemClass.ACQUIRE), int(MemClass.BARRIER))
_STORE_LIKE = (int(MemClass.WRITE), int(MemClass.RELEASE))

# Opcode-indexed functional-unit table (``_OP_MEMBER`` is the kernels').
_FU_VAL = [0] * _N_OPS
for _op in Op:
    _FU_VAL[_op] = fu_class(_op).value
_FU_LOAD_STORE = FuClass.LOAD_STORE.value

#: Head-indexed lists (the store buffer, the reorder buffer) consume
#: entries by advancing an index; the dead prefix is physically freed
#: only once it outgrows both this floor and the live suffix, keeping
#: the amortised cost O(1) per entry.
_COMPACT_FLOOR = 64


def _compact(buf: list, head: int) -> int:
    """Free ``buf``'s consumed prefix when it dominates; returns the new
    head index.  Purely memory management: simulated results are
    identical at any threshold (pinned by ``tests/test_cpu_ds.py``)."""
    if head > _COMPACT_FLOOR and head > len(buf) - head:
        del buf[:head]
        return 0
    return head


@dataclass
class DSConfig:
    """Configuration of the dynamically scheduled processor."""

    #: Reorder-buffer entries; the store buffer has as many (the paper
    #: notes the DS processor uses a larger write buffer than the static
    #: processors' 16 entries).
    window: int = 64
    issue_width: int = 1
    perfect_branch_prediction: bool = False
    ignore_data_dependences: bool = False
    #: Collect per-read-miss issue-delay samples (§4.1.3 analysis).
    collect_miss_stats: bool = False
    #: [8]-style non-binding prefetch: a memory operation whose issue is
    #: delayed by consistency constraints starts fetching its line as
    #: soon as its address is known; by actual issue time, part (or all)
    #: of the miss latency has already elapsed.
    prefetch: bool = False
    #: [8]-style speculative load execution: loads issue regardless of
    #: consistency constraints (rollback on a detected violation is
    #: assumed rare and free, as in the reference); stores and
    #: synchronization stay constrained, and retirement order still
    #: provides the memory model's guarantees.
    speculative_loads: bool = False

    def __post_init__(self) -> None:
        # A zero-entry window or port never retires anything: the cycle
        # loop would spin forever instead of failing.
        for name in ("window", "issue_width"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")


_N_CLS = max(_MEM_CLASSES) + 1
_N_FU = max(_FU_VAL) + 1
_FU_NP = np.array(_FU_VAL, dtype=np.int64)
_OP_NAME = [op.name if op is not None else "" for op in _OP_MEMBER]
_HUGE = 1 << 60


class _DSIndex:
    """Trace-derived tables for the DS fast path, computed once.

    Attached to the shared per-trace cache
    (:class:`repro.cpu.static_fast._TraceIndex`), so one instance serves
    every consistency model, window size, and network over the same
    trace, and Table 3 reads its branch-prediction outcome column.
    """

    __slots__ = (
        "n", "op_l", "fu_l", "cls_l", "stall_l", "wait_l", "addr_l",
        "dist1_l", "dist2_l", "store_like_l", "acq_l", "acq_wait_l",
        "sync_ord", "_misp",
    )

    def __init__(self, trace: Trace) -> None:
        self.n = len(trace)
        cols = trace.np_columns()
        op_np, rd_np, rs1_np, rs2_np = cols[0], cols[3], cols[4], cols[5]
        addr_np, stall_np, wait_np, mc_np = (
            cols[6], cols[7], cols[8], cols[9],
        )
        self.op_l = op_np.tolist()
        self.fu_l = _FU_NP[op_np].tolist()
        self.cls_l = mc_np.tolist()
        self.stall_l = stall_np.tolist()
        self.wait_l = _typed(wait_np)
        self.addr_l = _typed(addr_np)
        # Each source's producer as a distance back from its consumer,
        # 0 for none (a producer is always an earlier row).  Nearly every
        # distance is at most 256, so the lists hold cached small ints,
        # and they stay lists: every decode reads both, and a typed
        # subscript builds an int object on each read.  Distances are
        # exact, never capped, since ``DSConfig.window`` has no upper
        # bound.
        rows = np.arange(self.n, dtype=np.int64)
        self.dist1_l, self.dist2_l = (
            np.where(prod >= 0, rows - prod, 0).tolist()
            for prod in producer_rows(rd_np, rs1_np, rs2_np)
        )
        store_like = np.zeros(_N_CLS, dtype=bool)
        store_like[list(_STORE_LIKE)] = True
        acq = np.zeros(_N_CLS, dtype=bool)
        acq[list(_ACQ)] = True
        self.store_like_l = store_like[mc_np].tolist()
        # Rows that wait at the reorder-buffer head: under replayed sync
        # the contended acquires, under live sync every acquire.  Both
        # are 0/1 byte masks, like the misprediction column.
        is_acq = acq[mc_np]
        self.acq_l = is_acq.tobytes()
        self.acq_wait_l = (is_acq & (wait_np > 0)).tobytes()
        #: Row -> ordinal among the synchronization-class rows, the key
        #: of the recorded sync schedule (sparse: sync rows only).
        self.sync_ord = {
            row: k for k, row in enumerate(
                np.nonzero(mc_np >= _MC_ACQUIRE)[0].tolist()
            )
        }
        self._misp = None

    def mispredicts(self, trace: Trace) -> bytes:
        """Full-length misprediction column of the paper's BTB, one 0/1
        byte per row."""
        if self._misp is None:
            cols = trace.np_columns()
            self._misp = control_mispredicts(
                cols[0], cols[1], cols[2], BranchTargetBuffer(),
            ).tobytes()
        return self._misp


def _ds_index(trace: Trace) -> _DSIndex:
    shared = _trace_index(trace)
    idx = shared.ds
    if idx is None or idx.n != len(trace):
        idx = _DSIndex(trace)
        shared.ds = idx
    return idx


def ds_fast_stepper(
    trace: Trace,
    model: ConsistencyModel,
    config: DSConfig | None = None,
    label: str | None = None,
    probe=None,
    coupled: bool = False,
    live_sync: bool = False,
):
    """The DS timing loop as a resumable stepper.

    Suspends at every miss the memory port issues (the answer re-times
    it).  ``coupled`` says somebody else — a network with the probe attached,
    the co-simulation engine — emits spans from the same probe while
    this stepper is suspended, so retire spans must be emitted as rows
    retire rather than in one pass at the end.  With ``live_sync`` every
    acquire waits at the reorder-buffer head for an answered
    :class:`~repro.cpu.requests.SyncRequest` (a negative answer means
    "unresolved, ask again next cycle": the store buffer keeps
    draining meanwhile) and each release announces its perform time,
    instead of using the trace's baked waits.
    """
    cfg = config or DSConfig()
    idx = _ds_index(trace)
    n = idx.n
    window = cfg.window
    store_depth = window
    iw = cfg.issue_width
    ignore_deps = cfg.ignore_data_dependences
    speculative = cfg.speculative_loads
    prefetch = cfg.prefetch
    net_cpu = trace.cpu

    op_l = idx.op_l
    fu_l = idx.fu_l
    cls_l = idx.cls_l
    stall_l = idx.stall_l
    wait_l = idx.wait_l
    addr_l = idx.addr_l
    dist1_l = idx.dist1_l
    dist2_l = idx.dist2_l
    store_like_l = idx.store_like_l
    head_wait_l = idx.acq_l if live_sync else idx.acq_wait_l
    sync_ord = idx.sync_ord
    miss_delays = [] if cfg.collect_miss_stats else None
    misp_l = (
        b"" if cfg.perfect_branch_prediction else idx.mispredicts(trace)
    )
    # The next mispredicted row (n: none left), advanced as each one
    # decodes.
    next_misp = misp_l.find(1)
    if next_misp < 0:
        next_misp = n

    # Observability, with the per-retire track()/f-string lookups
    # hoisted into a lane-handle cache.
    probe = probe if probe is not None and probe.enabled else None
    rob_hist = sb_hist = None
    tracer = None
    span_cat = None
    lanes = None
    retire_t = None
    if probe is not None:
        if probe.metrics.enabled:
            from ...obs.metrics import occupancy_bounds

            rob_hist = probe.metrics.histogram(
                "ds.rob_occupancy", occupancy_bounds(window)
            )
            sb_hist = probe.metrics.histogram(
                "ds.store_buffer_depth", occupancy_bounds(store_depth)
            )
            # Histogram state is commutative (bucket counts/sum/max), so
            # the hot loop bumps flat per-occupancy weight arrays and the
            # instruments are flushed once after the run — same snapshot,
            # no per-cycle bisect/method-call cost.
            rob_occ = [0] * (window + 2)
            sb_occ = [0] * (store_depth + 2)
        tracer = probe.tracer
        if tracer is not None:
            from ...obs.tracer import CAT_CPU, CAT_MEM, CAT_SYNC

            span_cat = [CAT_CPU] * _N_CLS
            for cls in _MEM_CLASSES:
                span_cat[cls] = CAT_SYNC if cls in _ACQ or (
                    cls == 4  # RELEASE
                ) else CAT_MEM
            lanes = [None] * window
            proc_name = f"ds-cpu{net_cpu}"
            track = tracer.track
            events_append = tracer.events.append
            # With nobody else sharing the tracer, retire spans are the
            # only events and the only span-budget consumers, and every
            # row retires in program order — so the hot loop just stores
            # each row's retire cycle and the span dicts are built in
            # one pass at the end.  A network or the co-simulation
            # engine interleaves miss spans and budget consumption
            # mid-run, so spans stay inline then.
            if not coupled:
                retire_t = array("q", [0]) * n
    spans_dropped = 0

    # Unperformed memory rows, one idx-ordered deque per distinct set of
    # classes the model orders before some class (SC has one set, PC,
    # WO and RC two).  A row joins every set holding its class, and
    # perform() drops performed rows from the heads, so the head of
    # blocking_q[c] is the oldest row a class-c access must wait for.
    by_set: dict[tuple[int, ...], deque[int]] = {}
    blocking_q = [deque()] * _N_CLS       # class 0: a queue nobody joins
    for cls in _MEM_CLASSES:
        blocking_q[cls] = by_set.setdefault(tuple(
            earlier for earlier in _MEM_CLASSES
            if model.requires(earlier, cls)
        ), deque())
    joins = [()] * _N_CLS
    for cls in _MEM_CLASSES:
        joins[cls] = tuple(dq for s, dq in by_set.items() if cls in s)

    # ---- flat per-row state --------------------------------------------
    complete_t = [-1] * n
    ready_t = [-1] * n
    # Decode cycles, kept only for what reads them: spans, miss delays.
    # Written once per row and read only by those, so a typed array,
    # like retire_t: no int object per row.
    decode_t = None
    if tracer is not None or miss_delays is not None:
        decode_t = array("q", [0]) * n
    performed = bytearray(n)
    issued = bytearray(n)
    pending = bytearray(n)
    has_deps = bytearray(n)              # gate for the dependent lists
    deps_l: list = [None] * n            # producer row -> dependent rows
    hw_start: dict[int, int] = {}        # contended acquires only

    t = 0
    fetch_i = 0
    rob_head = 0                          # ROB = rows [rob_head, fetch_i)
    fetch_stalled = -1
    events: list[tuple[int, int]] = []    # heap: misses / head-waits only
    due_next: list[int] = []              # completions due next cycle
    # Ready rows: one min-heap per functional unit (index fu) and one
    # per memory class waiting for the port (index _N_FU + class).  Bit
    # k of ready_mask is set iff ready_heaps[k] is nonempty, so the
    # port's bits are exactly those above fu_bits.
    ready_heaps = tuple([] for _ in range(_N_FU + _N_CLS))
    ready_mask = 0
    fu_bits = (1 << _N_FU) - 1
    # Preset bookkeeping: a decoded non-memory op whose operands are
    # ready by t+1, whose class has no ready or dep-deferred older op,
    # and whose prediction was correct provably issues at t+1 and
    # completes at t+2; its completion time is written at decode and it
    # never touches the ready heaps or the event queues.  The phantom
    # issue still consumes the class's t+1 slot (fu_taken_gen), and
    # dep-deferred ops per unit are counted (fu_pending, the port's
    # loads and acquires included) to disable the proof while an older
    # op could wake in between.  The streak extends the proof to the
    # memory port: a hit load proven at decode, or a clean store proven
    # at retire, claims the port for cycle port_gen.
    fu_pending = [0] * _N_FU
    fu_taken_gen = [-1] * _N_FU
    port_gen = -1
    port_row = -1
    store_buffer: list[int] = []
    store_head = 0
    sb_tail = 0                           # == len(store_buffer)
    store_scan = 0                        # first unissued slot
    pending_stores: dict[int, deque[int]] = {}

    busy = sync = read = write = other = 0
    ev_t = _HUGE                          # events[0][0], cached

    # The helpers bind their state through default arguments, not a
    # closure: a closure would turn every captured name into a cell
    # variable and tax each access in the cycle loop below.
    def perform(
        i: int, performed=performed, joins=joins, cls_l=cls_l,
        store_like_l=store_like_l, pending_stores=pending_stores,
        addr_l=addr_l,
    ) -> None:
        """Memory row ``i`` performs.  Every queue it sits in drops its
        performed head rows, so a queue head is always unperformed: the
        oldest blocker of an access, or the oldest store an access to
        that address may forward from, is one index away."""
        performed[i] = 1
        for dq in joins[cls_l[i]]:
            while dq and performed[dq[0]]:
                dq.popleft()
        if store_like_l[i]:
            a = addr_l[i]
            dq = pending_stores.get(a)
            if dq:
                while dq and performed[dq[0]]:
                    dq.popleft()
                if not dq:
                    del pending_stores[a]

    def blocked(
        own: str, h: int, issued=issued, blocking_q=blocking_q, cls_l=cls_l,
    ) -> str:
        if issued[h]:
            return own
        dq = blocking_q[cls_l[h]]
        if not dq or dq[0] >= h:
            return own
        best_cls = cls_l[dq[0]]
        if best_cls in _STORE_LIKE:
            return "write"
        if best_cls in _ACQ:
            return "sync"
        return "read"

    def wake_deps(
        i: int, wt: int,
        has_deps=has_deps, deps_l=deps_l, pending=pending,
        ready_t=ready_t, complete_t=complete_t, store_like_l=store_like_l,
        fu_l=fu_l, cls_l=cls_l, fu_pending=fu_pending,
        ready_heaps=ready_heaps,
    ) -> int:
        """Row ``i`` completed (or performed) at ``wt``: wake the
        dependents it was the last pending source of.  Returns the
        ready_mask bits of the heaps they joined."""
        has_deps[i] = 0
        bits = 0
        deps = deps_l[i]
        deps_l[i] = None
        for j in deps:
            p = pending[j] - 1
            pending[j] = p
            if not p:
                ready_t[j] = wt
                if store_like_l[j]:
                    complete_t[j] = wt
                else:
                    fu = fu_l[j]
                    fu_pending[fu] -= 1
                    k = _N_FU + cls_l[j] if fu == _FU_LOAD_STORE else fu
                    heappush(ready_heaps[k], j)
                    bits |= 1 << k
        return bits

    streak_ok = iw == 1

    # ---- main cycle loop ------------------------------------------------
    while True:
        progressed = False

        # Steady-state streak (module docstring).  Every check comes
        # before any commit except the perform, which leaves nothing
        # for the general loop's phase 1 to redo; any failed check
        # breaks to the general loop, which re-enters the streak next
        # cycle.
        if streak_ok:
            while (
                ev_t > t
                and not ready_mask
                and fetch_stalled < 0
                and rob_head < fetch_i
            ):
                if due_next:
                    r = due_next[0]
                    if len(due_next) > 1 or has_deps[r] or head_wait_l[r] or (
                        live_sync and cls_l[r] == _MC_RELEASE
                    ):
                        break
                    due_next.pop()
                    progressed = True
                    if complete_t[r] < 0:
                        complete_t[r] = t
                    if cls_l[r] and not performed[r]:
                        perform(r)
                        if store_like_l[r]:
                            while store_head < sb_tail and (
                                performed[store_buffer[store_head]]
                            ):
                                store_head += 1
                if store_scan < sb_tail:
                    break  # an unissued store wants the port
                h = rob_head
                hc = complete_t[h]
                if hc < 0 or hc > t:
                    break
                if store_like_l[h]:
                    if sb_tail - store_head >= store_depth:
                        break
                elif cls_l[h] >= 3 and not performed[h]:
                    break
                i = fetch_i
                decode = i < n and i - rob_head < window
                if decode:
                    if i == next_misp:
                        break
                    d = dist1_l[i]
                    if d:
                        p = i - d
                        ct = complete_t[p]
                        if ct < 0 or (ct > t and store_like_l[p]):
                            break
                    d = dist2_l[i]
                    if d:
                        p = i - d
                        ct = complete_t[p]
                        if ct < 0 or (ct > t and store_like_l[p]):
                            break
                    cls = cls_l[i]
                    if not cls:
                        fu = fu_l[i]
                        if fu == _FU_LOAD_STORE or fu_pending[fu]:
                            break
                    elif cls == _MC_READ:
                        dq = blocking_q[cls]
                        if (
                            stall_l[i]
                            or fu_pending[_FU_LOAD_STORE]
                            or store_like_l[h]
                            or not speculative and dq and dq[0] < i
                        ):
                            break
                    elif not store_like_l[i]:
                        break
                # -- every check passed: commit the cycle --
                if port_gen == t:
                    r = port_row
                    issued[r] = 1
                    due_next.append(r)
                if decode:
                    if decode_t is not None:
                        decode_t[i] = t
                    if not cls:
                        complete_t[i] = t + 2
                        fu_taken_gen[fu] = t + 1
                    else:
                        for dq in joins[cls]:
                            dq.append(i)
                        if cls == _MC_READ:
                            complete_t[i] = t + 2
                            port_gen = t + 1
                            port_row = i
                        else:
                            ready_t[i] = t + 1
                            complete_t[i] = t + 1
                            a = addr_l[i]
                            if a >= 0:
                                dq = pending_stores.get(a)
                                if dq is None:
                                    pending_stores[a] = dq = deque()
                                dq.append(i)
                    fetch_i = i + 1
                # Retired rows hold nothing (module docstring).  A store
                # keeps its ready cycle until it issues from the buffer,
                # unless the claimed port, which never reads it, takes it.
                complete_t[h] = 0
                if store_like_l[h]:
                    store_buffer.append(h)
                    dq = blocking_q[cls_l[h]]
                    if not stall_l[h] and (not dq or dq[0] >= h):
                        port_gen = t + 1
                        port_row = h
                        store_scan += 1
                        ready_t[h] = 0
                    sb_tail += 1
                else:
                    ready_t[h] = 0
                if tracer is not None:
                    if retire_t is not None:
                        retire_t[h] = t
                    elif probe.span_budget > 0:
                        probe.span_budget -= 1
                        lane = h % window
                        handle = lanes[lane]
                        if handle is None:
                            handle = lanes[lane] = track(
                                proc_name, f"lane{lane}"
                            )
                        ev = {
                            "name": _OP_NAME[op_l[h]],
                            "cat": span_cat[cls_l[h]], "ph": "X",
                            "ts": decode_t[h], "dur": t + 1 - decode_t[h],
                            "pid": handle[0], "tid": handle[1],
                        }
                        if cls_l[h]:
                            ev["args"] = {
                                "addr": addr_l[h], "stall": stall_l[h],
                            }
                        events_append(ev)
                    else:
                        spans_dropped += 1
                rob_head = h + 1
                busy += 1
                if rob_hist is not None:
                    rob_occ[fetch_i - rob_head] += 1
                    sb_occ[sb_tail - store_head] += 1
                t += 1

        # Phase 1: completions / performs whose time has come (every
        # one is due exactly now: no advance below ever passes a pending
        # event).  The due-next bucket first, then the heap; same-cycle
        # order is immaterial (see module docstring).
        done = None
        if due_next:
            done, due_next = due_next, []
        if ev_t <= t:
            if done is None:
                done = []
            while events and events[0][0] <= t:
                done.append(heappop(events)[1])
            ev_t = events[0][0] if events else _HUGE
        if done:
            progressed = True
            for i in done:
                if complete_t[i] < 0:
                    complete_t[i] = t
                if head_wait_l[i] and hw_start.get(i, -1) < 0:
                    continue
                if cls_l[i] and not performed[i]:
                    perform(i)
                    if live_sync and cls_l[i] == _MC_RELEASE:
                        yield ReleaseNotify(
                            net_cpu, sync_ord[i], t, addr_l[i]
                        )
                if fetch_stalled == i:
                    fetch_stalled = -1
                if has_deps[i]:
                    ready_mask |= wake_deps(i, t)

        # Drop performed stores from the buffer head.
        if store_head < sb_tail:
            while store_head < sb_tail and performed[store_buffer[store_head]]:
                store_head += 1
                progressed = True
            if store_head > _COMPACT_FLOOR:
                shift = store_head
                store_head = _compact(store_buffer, store_head)
                if store_head == 0:
                    sb_tail -= shift
                    store_scan -= shift

        # Phase 2: issue to functional units.  Every unit takes one
        # cycle, so the completion is written at issue (a consumer
        # decoded now is ready at t+1 without a dependence link, as for
        # a preset); only a completion with linked dependents or a
        # stalled fetch to release is processed in phase 1.
        m = ready_mask & fu_bits
        if m:
            while m:
                low = m & -m
                m ^= low
                f = low.bit_length() - 1
                if fu_taken_gen[f] == t:
                    continue  # slot claimed by a preset issue this cycle
                heap = ready_heaps[f]
                started = 0
                while heap and started < iw and ready_t[heap[0]] <= t:
                    i = heappop(heap)
                    complete_t[i] = t + 1
                    if has_deps[i] or fetch_stalled == i:
                        due_next.append(i)
                    progressed = True
                    started += 1
                if not heap:
                    ready_mask ^= low

        # Phase 2b: the memory port, one access per cycle.  A claimed
        # port issues its proven op (the proof excluded every other
        # candidate); otherwise the candidates are the oldest unissued
        # store, then each class heap's head (module docstring).
        if port_gen == t:
            i = port_row
            issued[i] = 1
            due_next.append(i)
            progressed = True
        elif store_scan < sb_tail or ready_mask > fu_bits:
            port_i = _HUGE
            i = store_buffer[store_scan] if store_scan < sb_tail else _HUGE
            m = ready_mask >> _N_FU
            while True:
                if i < port_i:
                    cls = cls_l[i]
                    dq = blocking_q[cls]
                    if not dq or dq[0] >= i or (
                        speculative and cls == _MC_READ
                    ):
                        port_i = i
                if not m or port_i < rob_head:
                    break
                low = m & -m
                m ^= low
                i = ready_heaps[_N_FU - 1 + low.bit_length()][0]

            if port_i < rob_head:  # the store
                i = port_i
                issued[i] = 1
                store_scan += 1
                stall = stall_l[i]
                if stall > 0 and cls_l[i] == _MC_WRITE:
                    stall = yield MemRequest(addr_l[i], True, t, stall)
                if prefetch and stall > 0 and ready_t[i] >= 0:
                    stall = max(0, stall - max(0, t - ready_t[i]))
                ready_t[i] = 0  # its last read: the store has retired
                if stall:
                    heappush(events, (t + 1 + stall, i))
                    if t + 1 + stall < ev_t:
                        ev_t = t + 1 + stall
                else:
                    due_next.append(i)
                progressed = True
            elif port_i < _HUGE:
                i = port_i
                cls = cls_l[i]
                heap = ready_heaps[_N_FU + cls]
                heappop(heap)
                if not heap:
                    ready_mask ^= 1 << (_N_FU + cls)
                stall = stall_l[i]
                forwarded = False
                if pending_stores and cls == _MC_READ:
                    dq = pending_stores.get(addr_l[i])
                    forwarded = dq is not None and dq[0] < i
                if forwarded:
                    latency = 1
                else:
                    if stall > 0 and cls == _MC_READ:
                        if miss_delays is not None:
                            miss_delays.append(t - decode_t[i])
                        stall = yield MemRequest(addr_l[i], False, t, stall)
                    if prefetch and stall > 0 and ready_t[i] >= 0:
                        stall = max(0, stall - max(0, t - ready_t[i]))
                    latency = 1 + stall
                if latency == 1:  # hit or forwarded: due next cycle
                    # Known one cycle ahead, like a preset completion: a
                    # consumer decoded now is ready at t+1 without a
                    # dependence link (see phase 3).
                    complete_t[i] = t + 1
                    due_next.append(i)
                else:
                    heappush(events, (t + latency, i))
                    if t + latency < ev_t:
                        ev_t = t + latency
                issued[i] = 1
                progressed = True

        # Phase 3: decode up to issue_width instructions.
        decoded = 0
        while (
            decoded < iw
            and fetch_i < n
            and fetch_i - rob_head < window
            and fetch_stalled < 0
        ):
            i = fetch_i
            cls = cls_l[i]
            if decode_t is not None:
                decode_t[i] = t
            fetch_i = i + 1
            decoded += 1
            progressed = True
            if cls:
                for dq in joins[cls]:
                    dq.append(i)
                if store_like_l[i] and addr_l[i] >= 0:
                    a = addr_l[i]
                    dq = pending_stores.get(a)
                    if dq is None:
                        pending_stores[a] = dq = deque()
                    dq.append(i)
            ps = 0
            if not ignore_deps:
                # A producer with a known *future* completion time is a
                # preset op or a one-cycle issue finishing at most at
                # t+1, so this consumer is still ready at t+1; only
                # unknown completions and store-like producers (which
                # wake dependents at their perform, not their
                # completion) defer the consumer.
                d = dist1_l[i]
                if d:
                    p = i - d
                    ct = complete_t[p]
                    if ct < 0 or (ct > t and store_like_l[p]):
                        ps = 1
                        if has_deps[p]:
                            deps_l[p].append(i)
                        else:
                            has_deps[p] = 1
                            deps_l[p] = [i]
                d = dist2_l[i]
                if d:
                    p = i - d
                    ct = complete_t[p]
                    if ct < 0 or (ct > t and store_like_l[p]):
                        ps += 1
                        if has_deps[p]:
                            deps_l[p].append(i)
                        else:
                            has_deps[p] = 1
                            deps_l[p] = [i]
                pending[i] = ps
            if ps == 0:
                # Inlined wake(i, t + 1) — the per-instruction hot path.
                if store_like_l[i]:
                    ready_t[i] = t + 1
                    complete_t[i] = t + 1
                else:
                    fu = fu_l[i]
                    if fu == _FU_LOAD_STORE:
                        # i is the largest row yet: appending keeps the
                        # heap ordered.
                        ready_t[i] = t + 1
                        k = _N_FU + cls
                        ready_heaps[k].append(i)
                        ready_mask |= 1 << k
                    elif (
                        cls == 0
                        and iw == 1
                        and not ready_heaps[fu]
                        and not fu_pending[fu]
                        and i != next_misp
                    ):
                        # Preset: ready at t+1, class idle and no older
                        # op can wake before then, single issue slot is
                        # free -> issues at t+1, completes at t+2.
                        complete_t[i] = t + 2
                        fu_taken_gen[fu] = t + 1
                    else:
                        ready_t[i] = t + 1
                        heappush(ready_heaps[fu], i)
                        ready_mask |= 1 << fu
            elif not store_like_l[i]:
                fu_pending[fu_l[i]] += 1
            if i == next_misp:
                fetch_stalled = i
                next_misp = misp_l.find(1, i + 1)
                if next_misp < 0:
                    next_misp = n
                break

        # Phase 4: retire in order.
        retired = 0
        stall_reason = None
        sync_requery = False
        while retired < iw and rob_head < fetch_i:
            h = rob_head
            cls = cls_l[h]
            if store_like_l[h]:
                ct = complete_t[h]
                if ct < 0 or ct > t:
                    stall_reason = "other"
                    break
                if sb_tail - store_head >= store_depth:
                    stall_reason = "write"
                    break
                store_buffer.append(h)
                sb_tail += 1
            elif cls >= 3 and not performed[h]:  # ACQUIRE or BARRIER
                ct = complete_t[h]
                if head_wait_l[h] and 0 <= ct <= t and (
                    hw_start.get(h, -1) < 0
                ):
                    # The wait is charged serially from the moment the
                    # acquire reaches the head.
                    w = wait_l[h]
                    if live_sync:
                        w = yield SyncRequest(
                            net_cpu, sync_ord[h], cls, t, w, stall_l[h],
                            addr_l[h],
                        )
                        if w < 0:
                            # Unresolved: keep cycling (the store buffer
                            # must stay live) and ask again next cycle.
                            stall_reason = "sync"
                            sync_requery = True
                            break
                    hw_start[h] = t
                    if w <= 0:
                        # A live wait resolved to zero: perform now and
                        # let retirement proceed this cycle.
                        perform(h)
                        if fetch_stalled == h:
                            fetch_stalled = -1
                        if has_deps[h]:
                            ready_mask |= wake_deps(h, t)
                        continue
                    heappush(events, (t + w, h))
                    if t + w < ev_t:
                        ev_t = t + w
                    stall_reason = "sync"
                else:
                    stall_reason = blocked("sync", h)
                break
            else:
                ct = complete_t[h]
                if ct < 0 or ct > t:
                    if cls == _MC_READ:
                        stall_reason = blocked("read", h)
                    elif cls >= 3:
                        stall_reason = blocked("sync", h)
                    else:
                        stall_reason = "other"
                    break
                ready_t[h] = 0
            complete_t[h] = 0
            if tracer is not None:
                if retire_t is not None:
                    retire_t[h] = t
                elif probe.span_budget > 0:
                    probe.span_budget -= 1
                    lane = h % window
                    handle = lanes[lane]
                    if handle is None:
                        handle = lanes[lane] = track(
                            proc_name, f"lane{lane}"
                        )
                    ev = {
                        "name": _OP_NAME[op_l[h]], "cat": span_cat[cls],
                        "ph": "X", "ts": decode_t[h],
                        "dur": t + 1 - decode_t[h],
                        "pid": handle[0], "tid": handle[1],
                    }
                    if cls:
                        ev["args"] = {
                            "addr": addr_l[h], "stall": stall_l[h],
                        }
                    events_append(ev)
                else:
                    spans_dropped += 1
            rob_head = h + 1
            retired += 1
            progressed = True

        # ---- attribution and time advance -------------------------------
        if retired:
            busy += 1
            if rob_hist is not None:
                rob_occ[fetch_i - rob_head] += 1
                sb_occ[sb_tail - store_head] += 1
            t += 1
            continue

        if fetch_i >= n and rob_head >= fetch_i and store_head >= sb_tail:
            break

        if stall_reason is None:
            if rob_head < fetch_i:
                stall_reason = "other"
            elif store_head < sb_tail:
                stall_reason = "write"  # draining the store buffer
            else:
                stall_reason = "other"

        if progressed or sync_requery:
            # An unresolved live sync query pins the advance to one
            # cycle: the grant can arrive before the next local event.
            cycles = 1
        else:
            # Idle jump.  Preset ops have no events, so the horizon is
            # the earliest of: the event heap, the ROB head's known
            # future completion (it enables a retire), and t+1 if any
            # FU heap is nonempty (a claim-deferred op issues then).
            next_t = ev_t
            if ready_mask & fu_bits and t + 1 < next_t:
                next_t = t + 1
            if rob_head < fetch_i:
                hc = complete_t[rob_head]
                if t < hc < next_t:
                    next_t = hc
            if next_t >= _HUGE:
                cycles = 1
            else:
                cycles = next_t - t if next_t > t + 1 else 1
        if stall_reason == "read":
            read += cycles
        elif stall_reason == "sync":
            sync += cycles
        elif stall_reason == "write":
            write += cycles
        else:
            other += cycles
        if rob_hist is not None:
            rob_occ[fetch_i - rob_head] += cycles
            sb_occ[sb_tail - store_head] += cycles
        t += cycles

    if retire_t is not None and n:
        budget = probe.span_budget
        emit_n = n if n <= budget else budget
        probe.span_budget = budget - emit_n
        spans_dropped += n - emit_n
        # Rows retire in program order, so lanes are first used in
        # ascending order — pre-allocating them here emits the same
        # thread-name metadata, in the same order, as the inline path.
        handles = [
            track(proc_name, f"lane{lane}")
            for lane in range(emit_n if emit_n < window else window)
        ]
        for h in range(emit_n):
            pid, tid = handles[h % window]
            cls = cls_l[h]
            dt = decode_t[h]
            ev = {
                "name": _OP_NAME[op_l[h]], "cat": span_cat[cls],
                "ph": "X", "ts": dt, "dur": retire_t[h] + 1 - dt,
                "pid": pid, "tid": tid,
            }
            if cls:
                ev["args"] = {"addr": addr_l[h], "stall": stall_l[h]}
            events_append(ev)
    if rob_hist is not None:
        for occ, weight in enumerate(rob_occ):
            if weight:
                rob_hist.observe(occ, weight)
        for occ, weight in enumerate(sb_occ):
            if weight:
                sb_hist.observe(occ, weight)
    if spans_dropped:
        probe.metrics.counter("trace.spans_dropped").inc(spans_dropped)
    extras = {"cycles": t}
    if miss_delays is not None:
        extras["read_miss_issue_delays"] = miss_delays
    return ExecutionBreakdown(
        label=label or f"DS-{model.name}-w{window}",
        busy=busy, sync=sync, read=read, write=write, other=other,
        instructions=n,
        extras=extras,
    )
