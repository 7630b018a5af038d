"""The dynamically scheduled processor (paper §3.1, after Johnson),
entry by entry and cycle by cycle.

The scalar oracle of :func:`repro.cpu.ds.event_engine.ds_fast_stepper`
(whose configuration, opcode tables and ``_compact`` it shares): a
cycle-level, trace-driven model of the paper's out-of-order core:

* a **reorder buffer** (the "lookahead window", 16–256 entries) into
  which decoded instructions enter in program order and from which they
  retire in program order (FIFO retirement, as the paper assumes);
* **register renaming** through the reorder buffer: an instruction's
  operands link directly to the producing in-flight entry, so WAR/WAW
  hazards never stall anything and only true dependences delay issue;
* **reservation stations / functional units** — one unit per class
  (integer ALU, shifter, branch, load/store port, FP add/mul/div/cvt),
  all single-cycle, each able to start one operation per cycle, with
  out-of-order issue within each class;
* **dynamic branch prediction** via a 2048-entry 4-way BTB with 2-bit
  counters, and **speculative execution**: instructions past a predicted
  branch enter the window immediately; a misprediction stalls fetch until
  the branch executes (the trace contains only the correct path, so
  wrong-path work is modelled as lost fetch slots, the standard
  trace-driven treatment);
* a **lockup-free cache** behind a single port (at most one memory
  operation issued per cycle, arbitrary outstanding misses);
* a **store buffer** with read bypassing and dependence checking: loads
  may issue past buffered stores and forward a pending same-address
  value; stores issue to memory only after retiring from the reorder
  buffer, and only when the consistency model's constraints allow.

The consistency model enters exactly once: a memory/synchronization
operation may begin its access only when every earlier operation whose
class the model orders before it has *performed*.

Execution-time attribution: one cycle is "busy" when an instruction
retires (retire bandwidth equals decode bandwidth, so busy == instruction
count at single issue); every other cycle is attributed to the reorder
buffer head's blocking reason — an unperformed load is read stall, an
unperformed acquire/barrier is synchronization stall, a store stuck on a
full store buffer is write stall, and the rare dependence/drain bubble is
"other".

The inner loop runs on flat ints: the trace is consumed column-wise
(:meth:`repro.tango.trace.Trace.columns`), opcode properties come from
tables indexed by opcode value, and the consistency matrix is folded
into per-class blocker tuples once per run.
"""

from __future__ import annotations

import heapq
from collections import deque

from repro.consistency import ConsistencyModel
from repro.cpu.ds.btb import BranchTargetBuffer
from repro.cpu.ds.event_engine import (
    _ACQ,
    _compact,
    _FU_LOAD_STORE,
    _FU_VAL,
    _MEM_CLASSES,
    _OP_MEMBER,
    _STORE_LIKE,
    DSConfig,
)
from repro.cpu.requests import MemRequest, ReleaseNotify, SyncRequest, drive
from repro.cpu.results import ExecutionBreakdown
from repro.isa import FuClass, MemClass, is_control
from repro.tango import Trace

_MC_NONE = int(MemClass.NONE)
_MC_READ = int(MemClass.READ)
_MC_WRITE = int(MemClass.WRITE)
_MC_RELEASE = int(MemClass.RELEASE)

_IS_CONTROL = [op is not None and is_control(op) for op in _OP_MEMBER]


class _Entry:
    """One reorder-buffer entry (all fields are flat ints)."""

    __slots__ = (
        "idx", "op", "fu", "mem_cls", "addr", "stall", "wait",
        "decode_time", "ready_time", "complete_time", "performed",
        "pending_srcs", "dependents", "issued",
        "needs_head_wait", "head_wait_start", "sync_ordinal",
    )

    def __init__(
        self, idx: int, op: int, fu: int, mem_cls: int,
        addr: int, stall: int, wait: int, decode_time: int,
    ) -> None:
        self.idx = idx
        self.op = op
        self.fu = fu
        self.mem_cls = mem_cls
        self.addr = addr
        self.stall = stall
        self.wait = wait
        self.decode_time = decode_time
        self.ready_time = -1          # operands not yet resolved
        self.complete_time = -1       # not yet executed
        self.performed = False
        self.pending_srcs = 0
        self.dependents = None
        self.issued = False
        # Acquire contention/imbalance wait cannot be hidden by lookahead
        # (it is another processor's release time): it is charged only
        # once the acquire reaches the reorder-buffer head.  The sync
        # variable's *access latency* remains overlappable.
        self.needs_head_wait = mem_cls in _ACQ and wait > 0
        self.head_wait_start = -1
        self.sync_ordinal = -1


class _UnperformedTracker:
    """Earliest unperformed memory operation per class.

    Decode adds entries in program order, so each class queue is already
    idx-sorted: a plain deque with lazy head cleanup on the entry's own
    ``performed`` flag replaces the seed's heap + tombstone set.
    """

    def __init__(self) -> None:
        self._queues: list[deque[_Entry]] = [
            deque() for _ in range(max(_MEM_CLASSES) + 1)
        ]

    def add(self, cls: int, entry: _Entry) -> None:
        self._queues[cls].append(entry)

    def frontier(self, cls: int) -> int:
        """Smallest unperformed idx of class ``cls`` (or a huge number)."""
        dq = self._queues[cls]
        while dq and dq[0].performed:
            dq.popleft()
        return dq[0].idx if dq else 1 << 60

    def blocking_frontier(self, blockers: tuple[int, ...]) -> int:
        """An op blocked by the given classes may issue only if its
        program index is below this frontier."""
        frontier = 1 << 60
        queues = self._queues
        for earlier in blockers:
            dq = queues[earlier]
            while dq and dq[0].performed:
                dq.popleft()
            if dq:
                f = dq[0].idx
                if f < frontier:
                    frontier = f
        return frontier


class DSProcessor:
    """Trace-driven simulation of the dynamically scheduled core."""

    def __init__(
        self,
        trace: Trace,
        model: ConsistencyModel,
        config: DSConfig | None = None,
        probe=None,
    ) -> None:
        self.trace = trace
        self.model = model
        self.config = config or DSConfig()
        #: optional repro.obs.Probe — occupancy histograms + retire spans;
        #: purely observational, never alters timing.
        self.probe = probe if probe is not None and probe.enabled else None
        self.btb = BranchTargetBuffer()
        #: Issue-delay (decode -> memory issue) of each read miss, and the
        #: dynamic distance between consecutive read misses, collected when
        #: config.collect_miss_stats is set.
        self.read_miss_issue_delays: list[int] = []
        self.read_miss_distances: list[int] = []
        #: Cycles retirement stalled on a full store buffer, so tests can
        #: show that a configuration reaches that stall.
        self.full_store_buffer_cycles = 0

    def run(
        self, label: str | None = None, network=None
    ) -> ExecutionBreakdown:
        """Drive :meth:`steps` to completion (standalone replay); a
        ``network`` re-times every miss at the cycle the memory port
        actually issues it, so overlapped misses genuinely queue."""
        return drive(
            self.steps(label=label), network=network, cpu=self.trace.cpu
        )

    def steps(self, label: str | None = None, live_sync: bool = False):
        """The DS timing loop as a resumable stepper.

        Suspends at every miss the memory port issues (the answer
        re-times it); with ``live_sync`` it also suspends each acquire
        reaching the reorder-buffer head (the answer is the wait,
        resolved from the other processors' actual progress) and
        announces each release's perform time, instead of using the
        trace's baked waits.
        """
        cfg = self.config
        model = self.model
        (col_op, col_pc, col_next_pc, col_rd, col_rs1, col_rs2,
         col_addr, col_stall, col_wait, col_mc) = self.trace.columns()
        n = len(col_op)
        window = cfg.window
        store_depth = window
        ignore_deps = cfg.ignore_data_dependences
        perfect_bp = cfg.perfect_branch_prediction
        net_cpu = self.trace.cpu
        sync_ordinal = 0

        # Observability (all optional; None keeps the loop probe-free).
        probe = self.probe
        rob_hist = sb_hist = None
        tracer = None
        span_cat = None
        if probe is not None:
            if probe.metrics.enabled:
                from repro.obs.metrics import occupancy_bounds

                rob_hist = probe.metrics.histogram(
                    "ds.rob_occupancy", occupancy_bounds(window)
                )
                sb_hist = probe.metrics.histogram(
                    "ds.store_buffer_depth", occupancy_bounds(store_depth)
                )
            tracer = probe.tracer
            if tracer is not None:
                from repro.obs.tracer import (
                    CAT_CPU, CAT_MEM, CAT_SYNC,
                )

                # Per-class span category: sync classes, plain memory,
                # and non-memory instructions.
                span_cat = [CAT_CPU] * (max(_MEM_CLASSES) + 1)
                for cls in _MEM_CLASSES:
                    span_cat[cls] = CAT_SYNC if cls in _ACQ or (
                        cls == int(MemClass.RELEASE)
                    ) else CAT_MEM
                # Lane handles are a pure function of idx % window;
                # resolve each once instead of re-formatting the name
                # and re-hashing it in the tracer on every retirement.
                lanes = [None] * window
                proc_name = f"ds-cpu{net_cpu}"
        spans_dropped = 0

        # Fold the consistency matrix into per-class blocker tuples: the
        # classes an operation of each class must wait for.
        blockers = {
            cls: tuple(
                earlier for earlier in _MEM_CLASSES
                if model.requires(earlier, cls)
            )
            for cls in _MEM_CLASSES
        }

        t = 0
        fetch_i = 0
        fetch_stalled_on: _Entry | None = None
        rob: list[_Entry] = []        # used as a deque via head index
        rob_head = 0
        last_writer: dict[int, _Entry] = {}
        events: list[tuple[int, int, _Entry]] = []  # (time, idx, entry)
        lsu_ready: list[_Entry] = []  # loads/acquires, kept sorted by idx
        fu_ready: list[list[tuple[int, _Entry]]] = [
            [] for _ in range(max(fu.value for fu in FuClass) + 1)
        ]
        fu_heaps = tuple(fu_ready)
        # Per-cycle caches, generation-stamped with the cycle number so no
        # dict/set is allocated inside the loop (t is unique per
        # iteration: every pass advances it by at least one).
        n_cls = max(_MEM_CLASSES) + 1
        frontier_val = [0] * n_cls
        frontier_gen = [-1] * n_cls
        rejected_gen = [-1] * n_cls
        unperformed = _UnperformedTracker()
        store_buffer: list[_Entry] = []
        store_head = 0
        # addr -> deque of unperformed store-like entries in program
        # order; heads are popped lazily once performed, so the front is
        # always the earliest possibly-unperformed store to that address.
        pending_stores: dict[int, deque[_Entry]] = {}

        busy = sync = read = write = other = 0
        last_miss_seen_idx = -1

        def blocked_reason(head: _Entry, own: str) -> str:
            """Attribute a stalled, un-issued memory head to the class of
            the earlier operation blocking it (the paper charges, e.g.,
            SC's write serialization to write time even though the
            visible symptom is a load that cannot issue)."""
            if head.issued:
                return own
            best_idx = head.idx
            best_cls = None
            for earlier in blockers[head.mem_cls]:
                f = unperformed.frontier(earlier)
                if f < best_idx:
                    best_idx = f
                    best_cls = earlier
            if best_cls is None:
                return own
            if best_cls in _STORE_LIKE:
                return "write"
            if best_cls in _ACQ:
                return "sync"
            return "read"

        def wake(entry: _Entry, time: int) -> None:
            """Operands resolved at ``time``; queue for issue."""
            entry.ready_time = time
            if entry.mem_cls in _STORE_LIKE:
                # Stores need no functional unit before retirement; the
                # address generation is folded into readiness.
                entry.complete_time = time
            elif entry.fu == _FU_LOAD_STORE:
                # Loads and acquire-type sync ops queue for the port.
                lo, hi = 0, len(lsu_ready)
                while lo < hi:
                    mid = (lo + hi) // 2
                    if lsu_ready[mid].idx < entry.idx:
                        lo = mid + 1
                    else:
                        hi = mid
                lsu_ready.insert(lo, entry)
            else:
                heapq.heappush(fu_ready[entry.fu], (entry.idx, entry))

        def schedule(entry: _Entry, time: int) -> None:
            heapq.heappush(events, (time, entry.idx, entry))

        # ---- main cycle loop ------------------------------------------------
        while True:
            progressed = False

            # Phase 1: completions / performs whose time has come.
            while events and events[0][0] <= t:
                etime, _, entry = heapq.heappop(events)
                progressed = True
                if entry.complete_time < 0:
                    entry.complete_time = etime
                if entry.needs_head_wait and entry.head_wait_start < 0:
                    # Access completion of a contended acquire; the
                    # head-wait (and hence "performed") comes later.
                    continue
                if entry.mem_cls != _MC_NONE and not entry.performed:
                    entry.performed = True
                    if entry.mem_cls in _STORE_LIKE:
                        dq = pending_stores.get(entry.addr)
                        if dq:
                            while dq and dq[0].performed:
                                dq.popleft()
                            if not dq:
                                del pending_stores[entry.addr]
                        if live_sync and entry.mem_cls == _MC_RELEASE:
                            yield ReleaseNotify(
                                net_cpu, entry.sync_ordinal, etime,
                                entry.addr,
                            )
                if fetch_stalled_on is entry:
                    fetch_stalled_on = None
                if entry.dependents:
                    for dep in entry.dependents:
                        dep.pending_srcs -= 1
                        if dep.pending_srcs == 0:
                            wake(dep, etime)
                    entry.dependents = None

            # Drop performed stores from the buffer head.
            while store_head < len(store_buffer) and (
                store_buffer[store_head].performed
            ):
                store_head += 1
                progressed = True
            store_head = _compact(store_buffer, store_head)

            # Phase 2: issue to functional units.  Each class starts up to
            # issue_width operations per cycle (the multi-issue processor
            # has correspondingly more units); the memory port stays
            # single regardless (phase 2b).
            for heap in fu_heaps:
                if not heap:
                    continue
                started = 0
                while (
                    heap
                    and started < cfg.issue_width
                    and heap[0][1].ready_time <= t
                ):
                    _, entry = heapq.heappop(heap)
                    # Single-cycle latency: result available next cycle.
                    schedule(entry, t + 1)
                    progressed = True
                    started += 1

            # Phase 2b: the memory port — one access per cycle, chosen as
            # the oldest admissible among ready loads/acquires and
            # unissued buffered stores.
            port_candidate: _Entry | None = None
            candidate_pos = -1
            n_rejected = 0
            for pos, entry in enumerate(lsu_ready):
                if entry.ready_time > t:
                    continue
                cls = entry.mem_cls
                if (
                    cfg.speculative_loads
                    and cls == _MC_READ
                ):
                    # Speculative load execution: issue past constraints.
                    port_candidate = entry
                    candidate_pos = pos
                    break
                if rejected_gen[cls] == t:
                    # The list is idx-sorted, so once the oldest ready op
                    # of a class is blocked, every younger one is too.
                    continue
                if frontier_gen[cls] == t:
                    frontier = frontier_val[cls]
                else:
                    frontier = unperformed.blocking_frontier(blockers[cls])
                    frontier_val[cls] = frontier
                    frontier_gen[cls] = t
                # The op's own index is in the unperformed tracker, so
                # equality means "no EARLIER blocker" and must admit it.
                if entry.idx <= frontier:
                    port_candidate = entry
                    candidate_pos = pos
                    break
                rejected_gen[cls] = t
                n_rejected += 1
                if n_rejected == 3:
                    break
            store_candidate: _Entry | None = None
            for i in range(store_head, len(store_buffer)):
                entry = store_buffer[i]
                if entry.issued or entry.performed:
                    continue
                cls = entry.mem_cls
                if frontier_gen[cls] == t:
                    frontier = frontier_val[cls]
                else:
                    frontier = unperformed.blocking_frontier(blockers[cls])
                    frontier_val[cls] = frontier
                    frontier_gen[cls] = t
                if entry.idx <= frontier:
                    store_candidate = entry
                break  # only the oldest unissued store is considered

            if port_candidate is not None and (
                store_candidate is None
                or port_candidate.idx < store_candidate.idx
            ):
                entry = port_candidate
                lsu_ready.pop(candidate_pos)
                stall = entry.stall
                forwarded = False
                if entry.mem_cls == _MC_READ:
                    dq = pending_stores.get(entry.addr)
                    if dq:
                        while dq and dq[0].performed:
                            dq.popleft()
                        if not dq:
                            del pending_stores[entry.addr]
                    if dq and dq[0].idx < entry.idx:
                        forwarded = True  # store buffer forwards the value
                    elif cfg.collect_miss_stats and entry.stall > 0:
                        self.read_miss_issue_delays.append(
                            t - entry.decode_time
                        )
                if forwarded:
                    latency = 1
                else:
                    if stall > 0 and entry.mem_cls == _MC_READ:
                        # Re-time the miss at actual issue: this is where
                        # overlapped misses from the lockup-free cache
                        # contend on the network and at directories.
                        stall = yield MemRequest(
                            entry.addr, False, t, stall
                        )
                    if cfg.prefetch and stall > 0 and entry.ready_time >= 0:
                        # Non-binding prefetch started when the address
                        # became known; the remaining latency has shrunk.
                        stall = max(0, stall - max(0, t - entry.ready_time))
                    latency = 1 + stall
                schedule(entry, t + latency)
                entry.issued = True
                progressed = True
            elif store_candidate is not None:
                entry = store_candidate
                entry.issued = True
                stall = entry.stall
                if stall > 0 and entry.mem_cls == _MC_WRITE:
                    stall = yield MemRequest(entry.addr, True, t, stall)
                if cfg.prefetch and stall > 0 and entry.ready_time >= 0:
                    stall = max(0, stall - max(0, t - entry.ready_time))
                schedule(entry, t + 1 + stall)
                progressed = True

            # Phase 3: decode up to issue_width instructions.
            decoded = 0
            while (
                decoded < cfg.issue_width
                and fetch_i < n
                and (len(rob) - rob_head) < window
                and fetch_stalled_on is None
            ):
                i = fetch_i
                op = col_op[i]
                cls = col_mc[i]
                stall = col_stall[i]
                entry = _Entry(
                    i, op, _FU_VAL[op], cls,
                    col_addr[i], stall, col_wait[i], t,
                )
                fetch_i += 1
                decoded += 1
                progressed = True
                rob.append(entry)
                if cls != _MC_NONE:
                    unperformed.add(cls, entry)
                    if live_sync and (cls in _ACQ or cls == _MC_RELEASE):
                        # Ordinals key the recorded sync schedule; every
                        # acquire waits at the head so its live wait can
                        # be queried even when the baked wait was zero.
                        entry.sync_ordinal = sync_ordinal
                        sync_ordinal += 1
                        if cls in _ACQ:
                            entry.needs_head_wait = True
                    if cls in _STORE_LIKE and entry.addr >= 0:
                        dq = pending_stores.get(entry.addr)
                        if dq is None:
                            pending_stores[entry.addr] = dq = deque()
                        dq.append(entry)
                    if cfg.collect_miss_stats and (
                        cls == _MC_READ and stall > 0
                    ):
                        if last_miss_seen_idx >= 0:
                            self.read_miss_distances.append(
                                i - last_miss_seen_idx
                            )
                        last_miss_seen_idx = i

                if not ignore_deps:
                    src = col_rs1[i]
                    if src > 0:  # register 0 is hardwired zero
                        producer = last_writer.get(src)
                        if producer is not None and (
                            producer.complete_time < 0
                            or producer.complete_time > t
                        ):
                            entry.pending_srcs += 1
                            if producer.dependents is None:
                                producer.dependents = []
                            producer.dependents.append(entry)
                    src = col_rs2[i]
                    if src > 0:
                        producer = last_writer.get(src)
                        if producer is not None and (
                            producer.complete_time < 0
                            or producer.complete_time > t
                        ):
                            entry.pending_srcs += 1
                            if producer.dependents is None:
                                producer.dependents = []
                            producer.dependents.append(entry)
                    rd = col_rd[i]
                    if rd > 0:
                        last_writer[rd] = entry

                if entry.pending_srcs == 0:
                    wake(entry, t + 1)

                if _IS_CONTROL[op] and not perfect_bp:
                    op_member = _OP_MEMBER[op]
                    pc = col_pc[i]
                    next_pc = col_next_pc[i]
                    fallthrough = pc + 1
                    prediction = self.btb.predict(
                        op_member, pc, fallthrough
                    )
                    taken = next_pc != fallthrough
                    if prediction == -2:
                        correct = True
                    elif prediction == -1:
                        correct = False
                    else:
                        correct = prediction == next_pc
                    self.btb.update(op_member, pc, taken, next_pc)
                    if not correct:
                        fetch_stalled_on = entry
                        break

            # Phase 4: retire in order (bandwidth == issue width).
            retired = 0
            stall_reason = None
            sync_requery = False
            while retired < cfg.issue_width and rob_head < len(rob):
                head = rob[rob_head]
                cls = head.mem_cls
                if cls in _STORE_LIKE:
                    if head.complete_time < 0 or head.complete_time > t:
                        stall_reason = "other"
                        break
                    if len(store_buffer) - store_head >= store_depth:
                        self.full_store_buffer_cycles += 1
                        stall_reason = "write"
                        break
                    store_buffer.append(head)
                elif cls in _ACQ and not head.performed:
                    # The access latency may already have been overlapped;
                    # the contention wait is charged serially from the
                    # moment the acquire reaches the head.
                    if (
                        head.needs_head_wait
                        and 0 <= head.complete_time <= t
                        and head.head_wait_start < 0
                    ):
                        if live_sync:
                            w = yield SyncRequest(
                                net_cpu, head.sync_ordinal, cls, t,
                                head.wait, head.stall, head.addr,
                            )
                            if w < 0:
                                # Unresolved: the enabling release has not
                                # yet performed on the co-simulated
                                # timeline.  Keep cycling (our own store
                                # buffer must stay live — parking the
                                # whole stepper here can deadlock two
                                # processors on each other's buffered
                                # releases) and re-query next cycle.
                                stall_reason = "sync"
                                sync_requery = True
                                break
                        else:
                            w = head.wait
                        head.head_wait_start = t
                        if w > 0:
                            schedule(head, t + w)
                            stall_reason = "sync"
                        else:
                            # A live wait resolved to zero: perform now
                            # and let retirement proceed this cycle.
                            head.performed = True
                            if fetch_stalled_on is head:
                                fetch_stalled_on = None
                            if head.dependents:
                                for dep in head.dependents:
                                    dep.pending_srcs -= 1
                                    if dep.pending_srcs == 0:
                                        wake(dep, t)
                                head.dependents = None
                            continue
                    else:
                        stall_reason = blocked_reason(head, "sync")
                    break
                elif head.complete_time < 0 or head.complete_time > t:
                    if cls == _MC_READ:
                        stall_reason = blocked_reason(head, "read")
                    elif cls in _ACQ:
                        stall_reason = blocked_reason(head, "sync")
                    else:
                        stall_reason = "other"
                    break
                if tracer is not None:
                    # One complete span per retired instruction, laned by
                    # idx % window: entry idx+window can only decode after
                    # idx retires, so spans on a lane never overlap and
                    # the trace nests cleanly in Perfetto.
                    if probe.span_budget > 0:
                        probe.span_budget -= 1
                        lane = head.idx % window
                        handle = lanes[lane]
                        if handle is None:
                            handle = lanes[lane] = tracer.track(
                                proc_name, f"lane{lane}"
                            )
                        pid, tid = handle
                        args = None
                        if cls != _MC_NONE:
                            args = {"addr": head.addr, "stall": head.stall}
                        tracer.complete(
                            _OP_MEMBER[head.op].name, span_cat[cls],
                            pid, tid, head.decode_time,
                            t + 1 - head.decode_time, args=args,
                        )
                    else:
                        spans_dropped += 1
                rob_head += 1
                retired += 1
                progressed = True
            rob_head = _compact(rob, rob_head)

            # ---- attribution and time advance -------------------------------
            if retired:
                busy += 1
                if rob_hist is not None:
                    rob_hist.observe(len(rob) - rob_head)
                    sb_hist.observe(len(store_buffer) - store_head)
                t += 1
                continue

            done = (
                fetch_i >= n
                and rob_head >= len(rob)
                and store_head >= len(store_buffer)
            )
            if done:
                break

            if stall_reason is None:
                if rob_head < len(rob):
                    stall_reason = "other"
                elif store_head < len(store_buffer):
                    stall_reason = "write"  # draining the store buffer
                else:
                    stall_reason = "other"

            if progressed or sync_requery or not events:
                # An unresolved live sync query pins the advance to one
                # cycle: the grant can arrive before the next local event.
                cycles = 1
            else:
                # Nothing can change until the next event: jump.
                next_t = events[0][0]
                cycles = max(1, next_t - t)
            if stall_reason == "read":
                read += cycles
            elif stall_reason == "sync":
                sync += cycles
            elif stall_reason == "write":
                write += cycles
            else:
                other += cycles
            if rob_hist is not None:
                # Occupancy weighted by the cycles spent in this state.
                rob_hist.observe(len(rob) - rob_head, cycles)
                sb_hist.observe(len(store_buffer) - store_head, cycles)
            t += cycles

        if spans_dropped:
            probe.metrics.counter("trace.spans_dropped").inc(spans_dropped)
        return ExecutionBreakdown(
            label=label or f"DS-{model.name}-w{window}",
            busy=busy, sync=sync, read=read, write=write, other=other,
            instructions=n,
            extras={"cycles": t},
        )


def simulate_ds(
    trace: Trace,
    model: ConsistencyModel,
    config: DSConfig | None = None,
    label: str | None = None,
    probe=None,
    network=None,
) -> ExecutionBreakdown:
    """Convenience wrapper around :class:`DSProcessor`."""
    return DSProcessor(trace, model, config, probe=probe).run(
        label=label, network=network
    )
