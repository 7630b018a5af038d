"""Directory home-node timing: per-line serialization points.

Every cache line has a *home node* (``line % n_nodes``) whose directory
controller is the serialization point for coherence on that line.  The
controller handles one request at a time: each request occupies it for
``DIR_OCCUPANCY`` cycles, and a request arriving while the controller is
busy queues behind the earlier one.  This is where misses racing to the
same home become visible as latency — the second request sits in the
home node's queue until the first finishes.

The model is deliberately coarse (one free-time per node, not per line):
it captures directory *occupancy* and *queueing*, the two terms the
paper's fixed miss penalty abstracts away, without simulating MSHRs or
transient directory states.
"""

from __future__ import annotations

#: Cycles the directory controller spends looking up one request.
DIR_OCCUPANCY = 4


class DirectoryModel:
    """Per-node directory controllers with FIFO occupancy."""

    def __init__(self, n_nodes: int) -> None:
        if n_nodes < 1:
            raise ValueError("directory needs at least one node")
        self.n_nodes = n_nodes
        self._free = [0] * n_nodes  # controller free-time per node
        # Occupancy statistics: per-node serve counts and queue waits
        # (cycles a request sat behind earlier ones at its home node).
        self._serves = [0] * n_nodes
        self._wait_sum = [0] * n_nodes
        self._wait_max = 0

    def home(self, line: int) -> int:
        """Home node of a cache line (address-interleaved)."""
        return line % self.n_nodes

    def serve(self, node: int, arrival: int) -> int:
        """Admit a request arriving at ``arrival``; returns the time the
        directory has looked it up and begins acting on it.  A busy
        controller queues the request FIFO behind the current one."""
        start = self._free[node]
        if start < arrival:
            start = arrival
        else:
            wait = start - arrival
            self._wait_sum[node] += wait
            if wait > self._wait_max:
                self._wait_max = wait
        self._serves[node] += 1
        done = start + DIR_OCCUPANCY
        self._free[node] = done
        return done

    def summary(self) -> dict:
        """Aggregate occupancy statistics: how contended the directory
        controllers were, and which home node was hottest."""
        serves = sum(self._serves)
        waits = sum(self._wait_sum)
        hottest = -1
        hottest_serves = 0
        for node, count in enumerate(self._serves):
            if count > hottest_serves:
                hottest_serves = count
                hottest = node
        return {
            "serves": serves,
            "mean_wait": waits / serves if serves else 0.0,
            "max_wait": self._wait_max,
            "hottest_node": hottest,
            "hottest_serves": hottest_serves,
        }
