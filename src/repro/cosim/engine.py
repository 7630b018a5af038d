"""The co-simulation engine: one request heap over all processors.

Every processor model is a *stepper* (:mod:`repro.cpu.requests`): a
generator that yields a request wherever the outside world owes it an
answer and returns its breakdown when the trace is exhausted.  The
:class:`CosimEngine` keeps at most one outstanding request per
processor on a min-heap keyed by request time and serves them in global
timestamp order:

* :class:`~repro.cpu.requests.MemRequest` — served on the **shared**
  :class:`repro.net.ContentionNetwork`, so this miss queues behind every
  earlier miss from *any* processor on the same links and directory
  controllers; the resulting latency is fed back into the issuing
  model's clock via ``send()``.  On the ideal fabric the answer is the
  request's baked stall.
* :class:`~repro.cpu.requests.SyncRequest` — in ``replay`` mode,
  answered with the trace's baked wait (the host's timing).  In ``live``
  mode, resolved against the recorded
  :class:`~repro.sync.SyncSchedule`: an acquire parks until the release
  that enabled it in the host run has *performed on the co-simulated
  timeline*, and a barrier member parks until the last member of its
  episode arrives.
* :class:`~repro.cpu.requests.ReleaseNotify` — records the release's
  co-simulated perform time and resumes any parked acquirers.

The engine neither knows nor cares which implementation is behind a
generator: the product's engines (event-driven static models and DS)
and their scalar oracles speak the same protocol and issue the same
request sequence, replayed or live, so co-simulating nodes built from
either gives byte-identical results (``tests/test_cosim.py`` does).

Request timestamps are only approximately causal across processors — a
model may reveal its next request after the engine has served a
slightly-later one from another processor (the same conservatism the
solo replay has).  Service order is deterministic:
the heap breaks timestamp ties by processor index, and nothing depends
on wall-clock time.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from ..cpu.requests import MemRequest, ReleaseNotify, SyncRequest

#: Engine answer to a live SyncRequest whose enabling release has not
#: yet performed: "keep cycling and ask again" (only sent to nodes
#: with ``parkable=False``; parkable models are suspended instead).
PENDING = -1


@dataclass
class CosimNode:
    """One processor on the fabric.

    The engine's ``nodes`` are indexed by cpu id, so a node's index is
    also its source node on the fabric.
    """

    #: The model's stepper generator (:func:`repro.cpu.make_stepper`).
    handle: object
    label: str = ""
    #: Whether the stepper may be suspended indefinitely at a live sync
    #: request.  False for the DS models: their store buffer must keep
    #: draining while an acquire waits (a parked DS stepper could hold
    #: back the very release another parked stepper waits on), so they
    #: are answered :data:`PENDING` and re-query instead.
    parkable: bool = True


def _percentile(ordered: list, fraction: float):
    if not ordered:
        return 0
    idx = int(fraction * (len(ordered) - 1) + 0.5)
    return ordered[idx]


@dataclass
class CosimResult:
    """Per-processor outcomes of one co-simulated run."""

    #: Per-node :class:`~repro.cpu.results.ExecutionBreakdown`.
    breakdowns: list = field(default_factory=list)
    #: Per-node list of served miss latencies, in service order.
    miss_latencies: list = field(default_factory=list)
    #: Per-node sync waits charged (live mode only; empty in replay).
    sync_waits: list = field(default_factory=list)
    network_kind: str = "ideal"
    sync_mode: str = "replay"
    #: ``ContentionNetwork.summary()`` of the shared fabric (None: ideal).
    net_summary: dict | None = None
    #: ``ContentionNetwork.link_summary()`` (None under ideal).
    link_summary: dict | None = None
    #: ``DirectoryModel.summary()`` (None under ideal).
    dir_summary: dict | None = None

    def cycles(self) -> list:
        return [b.total for b in self.breakdowns]

    def node_miss_summary(self, node: int) -> dict:
        """count/mean/p50/p99/max of one processor's served misses."""
        lats = sorted(self.miss_latencies[node])
        n = len(lats)
        return {
            "count": n,
            "mean": (sum(lats) / n) if n else 0.0,
            "p50": _percentile(lats, 0.50),
            "p99": _percentile(lats, 0.99),
            "max": lats[-1] if n else 0,
        }


class _Episode:
    """Live-mode bookkeeping of one barrier episode."""

    __slots__ = ("size", "arrivals", "seen", "complete")

    def __init__(self, size: int) -> None:
        self.size = size
        #: [(node, arrival time)] of members that have queried.
        self.arrivals: list[tuple[int, int]] = []
        #: (cpu, ordinal) keys already registered (re-queries dedupe).
        self.seen: set[tuple[int, int]] = set()
        #: Completion time once all members arrived, else None.
        self.complete: int | None = None


class CosimEngine:
    """Advance all processors against one shared fabric."""

    def __init__(
        self,
        nodes: list[CosimNode],
        network=None,
        schedule=None,
        sync_mode: str = "replay",
        probe=None,
    ) -> None:
        if sync_mode not in ("replay", "live"):
            raise ValueError(f"unknown sync mode {sync_mode!r}")
        if sync_mode == "live" and schedule is None:
            raise ValueError("live sync mode needs a recorded schedule")
        self.nodes = nodes
        self.network = network
        self.schedule = schedule
        self.sync_mode = sync_mode
        self.probe = probe
        #: Per-node breakdown, filled in as each stepper returns.
        self.breakdowns: list = [None] * len(nodes)
        self.miss_latencies: list[list[int]] = [[] for _ in nodes]
        self.sync_waits: list[list[int]] = [[] for _ in nodes]
        # -- live-sync state ------------------------------------------
        #: (cpu, ordinal) of a release -> its co-simulated perform time.
        self._released: dict[tuple[int, int], int] = {}
        #: (cpu, ordinal) of an un-performed release -> parked
        #: [(node, SyncRequest)] acquirers waiting on it.
        self._waiters: dict[tuple[int, int], list] = {}
        #: Barrier episode index -> :class:`_Episode`.
        self._episodes: dict[int, _Episode] = {}
        #: Nodes currently parked at a live sync request.
        self._parked = 0
        #: Nodes not yet run to completion.
        self._unfinished = len(nodes)

    # -- scheduling ---------------------------------------------------

    def _advance(self, idx: int, answer, heap, pending) -> None:
        """Resume node ``idx`` with ``answer`` (None also starts it) and
        queue the request it stops at, or keep its breakdown."""
        try:
            request = self.nodes[idx].handle.send(answer)
        except StopIteration as stop:
            self.breakdowns[idx] = stop.value
            self._unfinished -= 1
            return
        pending[idx] = request
        heapq.heappush(heap, (request.time, idx))

    def run(self) -> CosimResult:
        heap: list[tuple[int, int]] = []
        pending: list = [None] * len(self.nodes)
        for idx in range(len(self.nodes)):
            self._advance(idx, None, heap, pending)

        while heap:
            _, idx = heapq.heappop(heap)
            request = pending[idx]
            pending[idx] = None
            kind = type(request)
            if kind is MemRequest:
                answer = self._serve_mem(idx, request)
            elif kind is SyncRequest:
                if self.sync_mode == "replay":
                    answer = request.wait
                else:
                    answer = self._serve_sync(idx, request, heap, pending)
                    if answer is None:
                        # Parked: resumed by a later ReleaseNotify or
                        # episode completion.
                        continue
                    if answer >= 0:
                        self.sync_waits[idx].append(answer)
            else:  # ReleaseNotify
                if self.sync_mode == "live":
                    self._serve_release(request, heap, pending)
                answer = None
            self._advance(idx, answer, heap, pending)

        if self._unfinished or self._parked:
            raise RuntimeError(
                f"co-simulation wedged: {self._parked} processor(s) parked "
                f"with no pending release (schedule/trace mismatch?)"
            )
        return self._result()

    # -- memory -------------------------------------------------------

    def _serve_mem(self, idx: int, request: MemRequest) -> int:
        if self.network is None:
            latency = request.stall
        else:
            latency = self.network.replay_miss(
                idx, request.addr, request.is_write, request.time
            )
        self.miss_latencies[idx].append(latency)
        probe = self.probe
        if probe is not None and probe.tracer is not None:
            if probe.span_budget > 0:
                probe.span_budget -= 1
                end = request.time + max(1, latency)
                pid, tid = probe.span_track(
                    f"cosim/cpu{idx}", "miss", request.time, end
                )
                probe.tracer.complete(
                    "wr_miss" if request.is_write else "rd_miss",
                    "mem", pid, tid, request.time, max(1, latency),
                    args={"addr": request.addr},
                )
        return latency

    # -- live synchronization -----------------------------------------

    def _resume(self, idx: int, answer, heap, pending) -> None:
        """Un-park a node with the final sync wait."""
        self._parked -= 1
        self.sync_waits[idx].append(answer)
        self._advance(idx, answer, heap, pending)

    def _serve_sync(self, idx: int, request: SyncRequest, heap, pending):
        """Resolve a live acquire/barrier.

        Returns the wait in cycles, :data:`PENDING` for an unresolved
        non-parkable node, or None after parking the node.
        """
        key = (request.cpu, request.ordinal)
        schedule = self.schedule
        episode_idx = schedule.barrier_episode.get(key)
        if episode_idx is not None:
            return self._serve_barrier(idx, key, episode_idx, request,
                                       heap, pending)
        if key not in schedule.acquire_source:
            # Not recorded (defensive): fall back to the baked wait.
            return max(0, request.wait)
        source = schedule.acquire_source[key]
        if source is None:
            return 0  # lock/event free since initialization
        if source[0] == request.cpu:
            # Re-acquiring after our own release: locally visible
            # immediately (store forwarding), and parking on our own
            # buffered release would deadlock.
            return 0
        release_time = self._released.get(source)
        if release_time is None:
            if self.nodes[idx].parkable:
                self._parked += 1
                self._waiters.setdefault(source, []).append((idx, request))
                return None
            return PENDING
        return max(0, release_time - request.time)

    def _serve_barrier(self, idx: int, key, episode_idx: int,
                       request: SyncRequest, heap, pending):
        episode = self._episodes.get(episode_idx)
        if episode is None:
            size = self.schedule.episode_sizes[episode_idx]
            episode = self._episodes[episode_idx] = _Episode(size)
        if episode.complete is not None:
            return max(0, episode.complete - request.time)
        if key not in episode.seen:
            episode.seen.add(key)
            episode.arrivals.append((idx, request.time))
            if len(episode.seen) == episode.size:
                episode.complete = max(t for _, t in episode.arrivals)
                # Resume every parked member; the last arriver (idx)
                # gets its answer through the return value.
                for member, arrival in episode.arrivals:
                    if member == idx:
                        continue
                    if self.nodes[member].parkable:
                        self._resume(
                            member, max(0, episode.complete - arrival),
                            heap, pending,
                        )
                    # Non-parkable members are re-querying; their next
                    # query hits the episode-complete path above.
                return max(0, episode.complete - request.time)
        if self.nodes[idx].parkable:
            self._parked += 1
            return None
        return PENDING

    def _serve_release(self, request: ReleaseNotify, heap, pending) -> None:
        key = (request.cpu, request.ordinal)
        self._released[key] = request.time
        waiters = self._waiters.pop(key, None)
        if waiters:
            for idx, acquire in waiters:
                self._resume(
                    idx, max(0, request.time - acquire.time), heap, pending
                )

    # -- results ------------------------------------------------------

    def _result(self) -> CosimResult:
        network = self.network
        result = CosimResult(
            breakdowns=self.breakdowns,
            miss_latencies=self.miss_latencies,
            sync_waits=self.sync_waits,
            sync_mode=self.sync_mode,
        )
        if network is not None:
            result.net_summary = network.summary()
            result.link_summary = network.link_summary()
            result.dir_summary = network.directory.summary()
        return result
