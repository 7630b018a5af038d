"""Axiomatic memory-model checker over recorded executions.

Given an :class:`~repro.verify.events.EventLog` and a consistency model
from :mod:`repro.consistency.models`, the checker builds the
happens-before graph the model's axioms dictate and verifies it is
acyclic (Roy et al.-style polynomial-time post-hoc verification):

* **program order**, restricted to the pairs the model's
  ``requires(earlier, later)`` matrix actually orders (SC keeps all of
  them; PC drops W->R; WO/RC keep only orderings around synchronization);
* **per-location program order** between data accesses of one processor
  to one location (cache coherence forbids reordering same-address
  accesses under every model);
* **reads-from** (``rf``): the write a read observed precedes the read;
* **synchronizes-with** (``sw``): the release that handed a lock/event
  over precedes the acquire that received it;
* **coherence order** (``co``): the global performing order of writes to
  one location;
* **from-reads** (``fr``): a read precedes the coherence-successor of
  the write it observed (and a read of the initial value precedes every
  write to the location).

Barrier arrivals of one episode are fused through a virtual episode node
so that everything program-ordered before *any* arrival happens-before
everything after *any* arrival, without ordering the arrivals themselves
against each other.

Each event owns two graph nodes (``in`` = 2*gid, ``out`` = 2*gid + 1)
joined by an internal edge; ordering edges run ``out(a) -> in(b)``.  The
split is what lets the barrier fusion avoid spurious 2-cycles among the
arrivals of an episode.

A cycle means the execution is impossible under the model; the checker
reports it with per-event PCs and the relation labels along the cycle.

To keep graphs near-linear in the event count, program-order edges are
*subsume-reduced*: per thread, a pending list is kept per memory class,
and when an event of class ``d`` orders pending events of class ``c``
(``requires(c, d)``), the pending list is cleared iff ``d`` subsumes
``c`` — i.e. every class that ``c`` would order a future event against,
``d`` orders too, so reachability through ``d`` replaces the direct
edges.  This preserves the transitive closure exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..consistency.models import ConsistencyModel, get_model
from ..isa import MemClass
from .events import EventLog, MemEvent

_READ = int(MemClass.READ)
_WRITE = int(MemClass.WRITE)
_ACQUIRE = int(MemClass.ACQUIRE)
_BARRIER = int(MemClass.BARRIER)
_CLASSES = (_READ, _WRITE, _ACQUIRE, int(MemClass.RELEASE), _BARRIER)

#: Label of the internal in->out edge of one event (hidden in reports).
_SLOT = "slot"


@dataclass(slots=True)
class Violation:
    """One way the execution contradicts the model (or the protocol)."""

    kind: str  # "cycle" | "value" | "coherence-audit"
    message: str
    #: For cycles: ``(description, outgoing relation label)`` per event
    #: around the cycle, in order.
    cycle: list = field(default_factory=list)

    def format(self) -> str:
        lines = [f"{self.kind}: {self.message}"]
        for desc, label in self.cycle:
            lines.append(f"    {desc}  --[{label}]-->")
        if self.cycle:
            lines.append(f"    ... back to {self.cycle[0][0]}")
        return "\n".join(lines)


@dataclass(slots=True)
class CheckResult:
    """Outcome of checking one execution against one model."""

    model: str
    n_events: int
    n_edges: int
    violations: list[Violation]

    @property
    def ok(self) -> bool:
        return not self.violations

    def format(self) -> str:
        head = (
            f"[{self.model}] {self.n_events} events, "
            f"{self.n_edges} hb edges: "
        )
        if self.ok:
            return head + "consistent"
        body = "\n".join(v.format() for v in self.violations)
        return head + f"{len(self.violations)} violation(s)\n" + body


def _subsumes(matrix, d: int, c: int) -> bool:
    """True if class ``d`` orders every future class that ``c`` orders."""
    return all(matrix[(c, x)] <= matrix[(d, x)] for x in _CLASSES)


class _Graph:
    """Happens-before graph with labeled edges and cycle extraction."""

    def __init__(self, n_events: int) -> None:
        # Nodes 2*g / 2*g+1 are event g's in/out; virtual nodes follow.
        self.adj: list[list[tuple[int, str]]] = [
            [] for _ in range(2 * n_events)
        ]
        self.n_edges = 0

    def new_virtual(self) -> int:
        self.adj.append([])
        return len(self.adj) - 1

    def edge(self, src: int, dst: int, label: str) -> None:
        self.adj[src].append((dst, label))
        self.n_edges += 1

    def relate(self, a: MemEvent, b: MemEvent, label: str) -> None:
        """Order event ``a`` entirely before event ``b``."""
        self.edge(2 * a.gid + 1, 2 * b.gid, label)

    def find_cycle(self):
        """Return one cycle as ``[(node, label_to_next), ...]`` or None."""
        adj = self.adj
        color = bytearray(len(adj))  # 0 white, 1 gray, 2 black
        for start in range(len(adj)):
            if color[start]:
                continue
            stack = [(start, 0)]
            path = [(start, None)]
            color[start] = 1
            while stack:
                node, i = stack[-1]
                edges = adj[node]
                if i < len(edges):
                    stack[-1] = (node, i + 1)
                    dst, label = edges[i]
                    if color[dst] == 0:
                        color[dst] = 1
                        stack.append((dst, 0))
                        path.append((dst, label))
                    elif color[dst] == 1:
                        j = next(
                            k for k, (n, _) in enumerate(path) if n == dst
                        )
                        nodes = [n for n, _ in path[j:]]
                        # label entering path[k] is path[k][1]; rotate so
                        # each node pairs with the label it *emits*.
                        labels = [lab for _, lab in path[j + 1:]] + [label]
                        return list(zip(nodes, labels))
                else:
                    color[node] = 2
                    stack.pop()
                    path.pop()
        return None


def build_graph(log: EventLog, model: ConsistencyModel) -> _Graph:
    """Construct the model's happens-before graph for the log."""
    events = log.events
    graph = _Graph(len(events))
    for ev in events:
        graph.edge(2 * ev.gid, 2 * ev.gid + 1, _SLOT)

    matrix = {
        (int(c), int(d)): model.requires(MemClass(c), MemClass(d))
        for c in _CLASSES
        for d in _CLASSES
    }
    subsumes = {
        (d, c): _subsumes(matrix, d, c) for d in _CLASSES for c in _CLASSES
    }
    po_label = f"po[{model.name}]"

    barrier_groups: dict[tuple[int, int], list[MemEvent]] = {}
    for stream in log.threads():
        pending: dict[int, list[MemEvent]] = {c: [] for c in _CLASSES}
        last_at_loc: dict[tuple[int, bool], MemEvent] = {}
        for ev in stream:
            d = ev.cls
            for c in _CLASSES:
                if matrix[(c, d)] and pending[c]:
                    for src in pending[c]:
                        graph.relate(src, ev, po_label)
                    if subsumes[(d, c)]:
                        pending[c].clear()
            pending[d].append(ev)
            # Same-location data accesses stay in program order under
            # every model (coherence), independent of the matrix.
            if d == _READ or d == _WRITE:
                prev = last_at_loc.get(ev.key)
                if prev is not None:
                    graph.relate(prev, ev, "po-loc")
                last_at_loc[ev.key] = ev
            if d == _BARRIER:
                barrier_groups.setdefault(
                    (ev.addr, ev.episode), []
                ).append(ev)

    # Barrier episodes: fuse all arrivals through a virtual node.
    for group in barrier_groups.values():
        v = graph.new_virtual()
        for ev in group:
            graph.edge(2 * ev.gid, v, "bar-in")
            graph.edge(v, 2 * ev.gid + 1, "bar-out")

    # Reads-from, synchronizes-with.
    for ev in events:
        if ev.rf >= 0:
            src = events[ev.rf]
            graph.relate(src, ev, "rf" if ev.cls == _READ else "sw")

    # Coherence order and from-reads.
    writes_by_key = log.writes_by_key()
    co_index: dict[int, tuple[list[MemEvent], int]] = {}
    for writes in writes_by_key.values():
        for i, w in enumerate(writes):
            co_index[w.gid] = (writes, i)
            if i:
                graph.relate(writes[i - 1], w, "co")
    for ev in events:
        if ev.cls != _READ:
            continue
        if ev.rf >= 0:
            entry = co_index.get(ev.rf)
            if entry is not None:
                writes, i = entry
                if i + 1 < len(writes):
                    graph.relate(ev, writes[i + 1], "fr")
        else:
            writes = writes_by_key.get(ev.key)
            if writes:
                graph.relate(ev, writes[0], "fr-init")
    return graph


def _describe_node(node: int, events: list[MemEvent]) -> str:
    if node < 2 * len(events):
        return events[node // 2].describe()
    return "barrier-episode"


def _render_cycle(cycle, events: list[MemEvent]) -> list[tuple[str, str]]:
    """Collapse in/out node pairs; one ``(description, label)`` per hop."""
    rendered = []
    for node, label in cycle:
        if label == _SLOT:
            continue  # internal edge: same event, skip the duplicate node
        rendered.append((_describe_node(node, events), label))
    return rendered


def check_execution(log: EventLog, model) -> CheckResult:
    """Verify one recorded execution against one consistency model.

    ``model`` may be a name ("sc", "rc", ...) or a
    :class:`~repro.consistency.models.ConsistencyModel`.
    """
    if not isinstance(model, ConsistencyModel):
        model = get_model(model)
    violations: list[Violation] = []

    for msg in log.audit_violations:
        violations.append(Violation(kind="coherence-audit", message=msg))

    # Reads-from value sanity: a read must see the value its rf wrote.
    # rf = -1 (initial contents) is not checkable here — applications
    # pre-initialize SharedMemory before the recorded run begins.
    events = log.events
    for ev in events:
        if ev.cls != _READ or ev.rf < 0:
            continue
        src = events[ev.rf]
        if src.key != ev.key:
            violations.append(Violation(
                kind="value",
                message=(
                    f"rf crosses locations: {ev.describe()} "
                    f"reads from {src.describe()}"
                ),
            ))
        elif (
            ev.value is not None
            and src.value is not None
            and ev.value != src.value
        ):
            violations.append(Violation(
                kind="value",
                message=(
                    f"read observed {ev.value!r} but its writer stored "
                    f"{src.value!r}: {ev.describe()} <- {src.describe()}"
                ),
            ))

    graph = build_graph(log, model)
    cycle = graph.find_cycle()
    if cycle is not None:
        rendered = _render_cycle(cycle, events)
        violations.append(Violation(
            kind="cycle",
            message=(
                f"happens-before cycle through {len(rendered)} events "
                f"under {model.name}"
            ),
            cycle=rendered,
        ))
    return CheckResult(
        model=model.name,
        n_events=len(events),
        n_edges=graph.n_edges,
        violations=violations,
    )
