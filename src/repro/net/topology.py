"""Interconnect topologies: link graphs with deterministic routing.

A topology is a directed link graph between ``n_nodes`` processor/memory
nodes plus a routing function mapping ``(src, dst)`` to the sequence of
link ids a message traverses.  Links are the unit of contention: the
network model keeps one free-time per link, so two messages crossing the
same link serialize by the link occupancy (finite bandwidth) while
messages on disjoint links proceed independently.

Two concrete topologies:

* :class:`Crossbar` — the uniform single-stage switch.  Every node has
  one injection port and one ejection port; any pair is two hops apart.
  Contention exists only at the ports (a node overlapping many misses
  queues on its own injection link — exactly the bursty-traffic effect
  the paper's fixed-latency assumption ignores).
* :class:`Mesh` — a k-ary 2D mesh with dimension-ordered (X-Y) routing:
  a message first travels along X to the destination column, then along
  Y.  X-Y routing is deterministic and deadlock-free, and distance now
  matters: latency grows with Manhattan distance and shared mesh links
  add queueing between unrelated node pairs.

Routers are laid out row-major on a ``width x height`` grid; when
``n_nodes`` does not fill the rectangle the spare routers still exist
(messages may route through them) but have no node attached.
"""

from __future__ import annotations

import math


class Topology:
    """Base class: a named directed-link graph with routing."""

    kind: str = "?"

    def __init__(self, n_nodes: int) -> None:
        if n_nodes < 1:
            raise ValueError("topology needs at least one node")
        self.n_nodes = n_nodes
        self.n_links = 0
        self._routes: dict[tuple[int, int], tuple[int, ...]] = {}

    def _new_link(self) -> int:
        link = self.n_links
        self.n_links += 1
        return link

    def route(self, src: int, dst: int) -> tuple[int, ...]:
        """Link ids a message from ``src`` to ``dst`` traverses, in
        order.  ``src == dst`` is the empty route (a node talking to its
        own directory/memory never enters the network)."""
        key = (src, dst)
        cached = self._routes.get(key)
        if cached is None:
            cached = self._build_route(src, dst)
            self._routes[key] = cached
        return cached

    def hops(self, src: int, dst: int) -> int:
        """Number of links between ``src`` and ``dst``."""
        return len(self.route(src, dst))

    def _build_route(self, src: int, dst: int) -> tuple[int, ...]:
        raise NotImplementedError


class Crossbar(Topology):
    """Uniform crossbar: injection port -> switch -> ejection port."""

    kind = "crossbar"

    def __init__(self, n_nodes: int) -> None:
        super().__init__(n_nodes)
        self._inject = [self._new_link() for _ in range(n_nodes)]
        self._eject = [self._new_link() for _ in range(n_nodes)]

    def _build_route(self, src: int, dst: int) -> tuple[int, ...]:
        if src == dst:
            return ()
        return (self._inject[src], self._eject[dst])


class Mesh(Topology):
    """k-ary 2D mesh with dimension-ordered (X-Y) routing."""

    kind = "mesh"

    def __init__(self, n_nodes: int) -> None:
        super().__init__(n_nodes)
        # Near-square: the narrowest width whose square holds every node.
        width = math.isqrt(n_nodes - 1) + 1 if n_nodes > 1 else 1
        self.width = width
        self.height = (n_nodes + width - 1) // width
        self._inject = [self._new_link() for _ in range(n_nodes)]
        self._eject = [self._new_link() for _ in range(n_nodes)]
        #: (router, router) -> link id for every directed mesh edge.
        self._edges: dict[tuple[int, int], int] = {}
        for y in range(self.height):
            for x in range(self.width):
                here = y * width + x
                if x + 1 < width:
                    right = here + 1
                    self._edges[(here, right)] = self._new_link()
                    self._edges[(right, here)] = self._new_link()
                if y + 1 < self.height:
                    down = here + width
                    self._edges[(here, down)] = self._new_link()
                    self._edges[(down, here)] = self._new_link()

    def coords(self, node: int) -> tuple[int, int]:
        """Grid position ``(x, y)`` of a node/router."""
        return (node % self.width, node // self.width)

    def _build_route(self, src: int, dst: int) -> tuple[int, ...]:
        if src == dst:
            return ()
        links = [self._inject[src]]
        x, y = self.coords(src)
        dx, dy = self.coords(dst)
        here = src
        while x != dx:  # X first
            step = 1 if dx > x else -1
            nxt = here + step
            links.append(self._edges[(here, nxt)])
            here = nxt
            x += step
        while y != dy:  # then Y
            step = 1 if dy > y else -1
            nxt = here + step * self.width
            links.append(self._edges[(here, nxt)])
            here = nxt
            y += step
        links.append(self._eject[dst])
        return tuple(links)
