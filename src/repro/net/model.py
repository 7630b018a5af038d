"""Contention-aware network/directory timing model.

`ContentionNetwork` replaces the fixed ``miss_penalty`` constant with a
cycle-approximate model of one miss: a request over a
:class:`~repro.net.topology.Topology` to the line's
:class:`~repro.net.directory.DirectoryModel` home node, the directory's
occupancy, the memory access and the data reply::

    request (cpu -> home) + directory occupancy
    + memory latency + data reply (home -> cpu)

Each message walks its route's links: a link is busy for
``LINK_OCCUPANCY`` cycles per control message and that per flit of a
line-sized reply (finite bandwidth), so a burst of overlapped misses
from a dynamically scheduled processor queues at its injection port and
at hot directory nodes — the contention the paper's fixed-latency
assumption explicitly sets aside.

The model is *queried* synchronously: `replay_miss` returns the full
miss latency immediately, mutating link/directory free-times so later
misses observe the congestion earlier ones created.  The processor
models call it at the cycle each miss issues — one processor alone on a
fresh fabric (:func:`repro.cosim.replay_solo`) or every processor on one
shared fabric (:func:`repro.cosim.run_cosim`).  Traces themselves are
always built with the fixed penalty.
"""

from __future__ import annotations

from .directory import DirectoryModel
from .topology import Crossbar, Mesh, Topology


#: Cycles for a message to traverse one link.
HOP_LATENCY = 2
#: Cycles a control message keeps a link busy.  A *data* message (a
#: full cache line of 4-byte flits) keeps each link busy this long per
#: flit.  This is what makes overlapped misses contend: every reply
#: ejects at the requester's port, so a burst of outstanding misses
#: serializes there even when their homes differ.
LINK_OCCUPANCY = 2
#: DRAM access at the home node.
MEMORY_LATENCY = 30


class ContentionNetwork:
    """Topology + directory timing with per-link FIFO queueing."""

    def __init__(self, topology: Topology, line_size: int) -> None:
        self.topology = topology
        self.line_size = line_size
        self.directory = DirectoryModel(topology.n_nodes)
        self._data_occ = LINK_OCCUPANCY * max(1, line_size // 4)
        self._link_free = [0] * topology.n_links
        #: observed miss latencies, in query order
        self.latencies: list[int] = []
        # Per-link queue-depth samples: every hop observes how many
        # occupancy slots are already queued ahead of it on its link.
        n_links = topology.n_links
        self._link_samples = [0] * n_links
        self._link_depth_sum = [0] * n_links
        self._link_depth_max = [0] * n_links
        #: optional repro.obs.Probe for trace events (None = untraced)
        self._probe = None

    @property
    def kind(self) -> str:
        return self.topology.kind

    def attach_probe(self, probe) -> None:
        """Emit per-transaction spans and per-hop queue-wait events into
        ``probe``'s tracer (budgeted); metrics flow via :meth:`publish`."""
        self._probe = probe if (
            probe is not None and probe.tracer is not None
        ) else None

    # -- message timing ------------------------------------------------

    def _hop(self, link: int, t: int, occupancy: int) -> int:
        """Put a message that reached ``link`` at ``t`` across it;
        returns its arrival at the far end.

        The message departs when both it has arrived and the link is
        free, occupies the link for ``occupancy`` cycles and arrives
        ``HOP_LATENCY`` later.
        """
        free = self._link_free[link]
        if t >= free:
            depart = t
            depth = 0
        else:
            depart = free
            # Queue depth in messages: how many occupancy slots are
            # already committed ahead of this hop on the link.
            depth = (free - t + occupancy - 1) // occupancy
            self._link_depth_sum[link] += depth
            if depth > self._link_depth_max[link]:
                self._link_depth_max[link] = depth
        self._link_samples[link] += 1
        self._link_free[link] = depart + occupancy
        probe = self._probe
        if probe is not None and probe.hop_budget > 0:
            probe.hop_budget -= 1
            pid, tid = probe.tracer.track("network", f"link{link}")
            probe.tracer.instant(
                "hop", "net", pid, tid, depart,
                args={"link": link, "queue_depth": depth},
            )
        return depart + HOP_LATENCY

    def _send(
        self, src: int, dst: int, start: int, data: bool = False
    ) -> int:
        """Deliver one message; returns its arrival.

        The message walks its route link by link — control messages
        hold each link for ``LINK_OCCUPANCY``, data replies for the
        line-sized data occupancy.
        """
        occupancy = self._data_occ if data else LINK_OCCUPANCY
        hop = self._hop
        t = start
        for link in self.topology.route(src, dst):
            t = hop(link, t, occupancy)
        return t

    def _record(
        self, start: int, done: int, cpu: int = -1, kind: str = "miss"
    ) -> int:
        latency = done - start
        if latency < 1:
            latency = 1
        self.latencies.append(latency)
        probe = self._probe
        if probe is not None and probe.span_budget > 0:
            probe.span_budget -= 1
            # Overlapped misses from one cpu need separate lanes to keep
            # the track's spans properly nested.
            pid, tid = probe.span_track(
                "network", f"cpu{cpu}", start, start + latency
            )
            probe.tracer.complete(
                kind, "net", pid, tid, start, latency,
                args={"cpu": cpu},
            )
        return latency

    # -- miss timing ---------------------------------------------------

    def replay_miss(
        self, cpu: int, addr: int, is_write: bool, now: int
    ) -> int:
        """Latency of a miss re-timed at CPU-simulation time.

        The CPU models replay baked traces where sharer/owner identity
        is no longer known, so this approximates every miss as a
        memory-sourced fetch: request + directory + memory + reply.
        Queueing is still real — overlapped misses from one node
        serialize on its injection link and at hot home nodes.
        """
        line = addr // self.line_size
        home = self.directory.home(line)
        t = self._send(cpu, home, now)
        t = self.directory.serve(home, t)
        t += MEMORY_LATENCY
        t = self._send(home, cpu, t, data=True)
        return self._record(
            now, t, cpu, "replay_write" if is_write else "replay_read"
        )

    # -- statistics ----------------------------------------------------

    def summary(self) -> dict:
        """Mean/p50/p99/max of observed miss latencies."""
        lats = sorted(self.latencies)
        n = len(lats)
        if not n:
            return {"count": 0, "mean": 0.0, "p50": 0, "p99": 0, "max": 0}
        return {
            "count": n,
            "mean": sum(lats) / n,
            "p50": lats[n // 2],
            "p99": lats[min(n - 1, (n * 99) // 100)],
            "max": lats[-1],
        }

    def link_summary(self) -> dict:
        """Aggregate per-link queue-depth statistics.

        ``mean_depth`` averages the queue depth seen by every hop (most
        hops see an idle link, so small means still indicate real
        hot-spots); ``busiest_link`` is the link with the deepest
        observed queue.
        """
        samples = sum(self._link_samples)
        depth_sum = sum(self._link_depth_sum)
        max_depth = 0
        busiest = -1
        for link, depth in enumerate(self._link_depth_max):
            if depth > max_depth:
                max_depth = depth
                busiest = link
        return {
            "samples": samples,
            "mean_depth": depth_sum / samples if samples else 0.0,
            "max_depth": max_depth,
            "busiest_link": busiest,
        }

    def publish(self, metrics, prefix: str = "net") -> None:
        """Push miss-latency and link-queue stats into a metrics registry.

        This is the surfacing path for the per-link queue-depth samples
        accumulated in :meth:`_hop`; :meth:`link_summary` is the other.
        """
        if not metrics.enabled:
            return
        from ..obs.metrics import LATENCY_BOUNDS

        hist = metrics.histogram(f"{prefix}.miss_latency", LATENCY_BOUNDS)
        for lat in self.latencies:
            hist.observe(lat)
        links = self.link_summary()
        metrics.counter(f"{prefix}.link_hops").inc(links["samples"])
        metrics.gauge(f"{prefix}.link_queue_mean").set(links["mean_depth"])
        metrics.gauge(f"{prefix}.link_queue_max").set(links["max_depth"])
        metrics.gauge(f"{prefix}.busiest_link").set(links["busiest_link"])
        directory = self.directory.summary()
        metrics.counter(f"{prefix}.dir_serves").inc(directory["serves"])
        metrics.gauge(f"{prefix}.dir_wait_mean").set(directory["mean_wait"])
        metrics.gauge(f"{prefix}.dir_wait_max").set(directory["max_wait"])
        metrics.gauge(f"{prefix}.dir_hottest_node").set(
            directory["hottest_node"]
        )
        for link in range(self.topology.n_links):
            if self._link_depth_max[link]:
                metrics.gauge(
                    f"{prefix}.link{link}.queue_max"
                ).set(self._link_depth_max[link])


NETWORK_KINDS = ("ideal", "crossbar", "mesh")


def build_network(
    kind: str, n_nodes: int, line_size: int
) -> ContentionNetwork | None:
    """Construct the network backend named by ``kind``.

    ``"ideal"`` returns None: every miss then costs the trace's baked
    fixed penalty, exactly as in the paper.
    """
    if kind == "ideal":
        return None
    if kind == "crossbar":
        topo: Topology = Crossbar(n_nodes)
    elif kind == "mesh":
        topo = Mesh(n_nodes)
    else:
        raise ValueError(
            f"unknown network kind {kind!r}; expected one of "
            f"{', '.join(NETWORK_KINDS)}"
        )
    return ContentionNetwork(topo, line_size)
