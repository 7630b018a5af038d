"""Dynamic instruction traces, stored column-wise.

A trace has one row per retired instruction of a traced processor.  A
row carries everything the downstream trace-driven processor simulators
need (§3.2 of the paper):

* the opcode and its static register operands (for dependence tracking
  and renaming in the dynamically scheduled model);
* the effective address and observed memory stall for loads/stores;
* actual control-flow outcome (``next_pc``) for branch-prediction
  modelling;
* the contention-wait / access-latency split for synchronization
  operations.

Storage is **columnar**: one flat :mod:`array` of machine integers per
field instead of a Python object per record.  That shrinks the on-disk
pickles by ~10x, makes loading them near-instant (one ``frombytes`` per
column), and lets the processor models iterate over plain ints instead of
chasing attribute lookups through millions of heap objects.
:class:`TraceRecord` remains available as a materialised *view* of one
row for tests, debugging and the (cold) trace-transformation passes.

The multiprocessor executor does not build traces row by row.  Every run
of rows whose static fields (opcode, pc, next pc, registers, memory
class) are fixed is registered once in a :class:`RowTemplates` table:
one per compiled block exit, one per shared or reference-engine
instruction.  While the run lasts, a traced thread appends to its
:class:`EmissionLog` only a template id per run of rows plus the
address, stall and wait of its shared rows.  When the run ends,
:meth:`RowTemplates.expand` turns each log into the trace's columns with
one vectorised gather per column.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from ..isa import MemClass, Op

#: Bump whenever the pickle layout of :class:`Trace` (or anything reachable
#: from a cached ``AppRun``) changes.  The trace cache includes this in the
#: cache key, so stale pickles are never even opened.
TRACE_FORMAT_VERSION = 2

#: numpy dtype corresponding to each array typecode used by the columns.
_NP_DTYPES = {"B": np.uint8, "h": np.int16, "i": np.int32, "q": np.int64}

#: (field name, array typecode) for every column, in row order.
#: Narrow typecodes keep pickles small: opcodes and memory classes fit a
#: byte, register ids a short, pc/stall an int32; addresses and waits get
#: the full 64 bits.
TRACE_COLUMNS = (
    ("op", "B"),
    ("pc", "i"),
    ("next_pc", "i"),
    ("rd", "h"),
    ("rs1", "h"),
    ("rs2", "h"),
    ("addr", "q"),
    ("stall", "i"),
    ("wait", "q"),
    ("mem_class", "B"),
)


#: The columns a row template fixes; ``addr``, ``stall`` and ``wait``
#: come from the log.
_STATIC_COLUMNS = ("op", "pc", "next_pc", "rd", "rs1", "rs2", "mem_class")
_TYPECODES = dict(TRACE_COLUMNS)

# Template flags, derived from its rows.  _SHARED: the first row is a
# load, store or synchronization, whose address and stall are logged;
# _SYNC: it is a synchronization, whose wait is logged too; _FOLLOW: the
# last row's next pc is -1 (a ``JR``'s, known only at run time) and is
# the pc of the row after it, or for a trace's last row the thread's pc
# when the run ended.
_SHARED, _SYNC, _FOLLOW = 1, 2, 4


class RowTemplates:
    """Static trace rows, registered once and emitted by id.

    Every column grows in place as templates are added, so registering
    costs only the new rows and expanding a log converts each column to
    numpy once, without a copy.
    """

    def __init__(self) -> None:
        self._columns = tuple(
            array(_TYPECODES[name]) for name in _STATIC_COLUMNS
        )
        self._start = array("q")
        self._length = array("q")
        self._flags = array("B")

    def add(self, rows) -> int:
        """Register ``rows``, each ``(op, pc, next_pc, rd, rs1, rs2,
        mem_class)``, as one template; returns its id.  Only the first
        row may be shared and only the last one's next pc may be -1."""
        mem_class = rows[0][6]
        self._start.append(len(self._columns[0]))
        self._length.append(len(rows))
        self._flags.append(
            (_SHARED if mem_class != MemClass.NONE else 0)
            | (_SYNC if mem_class > MemClass.WRITE else 0)
            | (_FOLLOW if rows[-1][2] < 0 else 0)
        )
        for column, values in zip(self._columns, zip(*rows)):
            column.extend(values)
        return len(self._flags) - 1

    def expand(self, logs) -> None:
        """Append each ``(log, trace, final_pc)``'s rows to ``trace``;
        ``final_pc`` is the thread's pc when the run ended."""
        static = [_np_view(c) for c in self._columns]
        start, length, flags = (
            _np_view(a) for a in (self._start, self._length, self._flags)
        )
        for log, trace, final_pc in logs:
            ids = _np_view(log.ids)
            if not len(ids):
                continue
            lengths = length[ids]
            ends = np.cumsum(lengths)
            n = int(ends[-1])
            offsets = ends - lengths
            # Row k of entry e is template row start[e] + k.
            rows = np.repeat(start[ids] - offsets, lengths)
            rows += np.arange(n)
            cols = dict(zip(_STATIC_COLUMNS, (c[rows] for c in static)))
            del rows
            kinds = flags[ids]
            shared = offsets[kinds & _SHARED != 0]
            for name, fill, at, values in (
                ("addr", -1, shared, log.addrs),
                ("stall", 0, shared, log.stalls),
                ("wait", 0, offsets[kinds & _SYNC != 0], log.waits),
            ):
                col = np.full(n, fill, _NP_DTYPES[values.typecode])
                col[at] = _np_view(values)
                cols[name] = col
            jumps = ends[kinds & _FOLLOW != 0] - 1
            if len(jumps):
                cols["next_pc"][jumps] = np.append(cols["pc"], final_pc)[
                    jumps + 1
                ]
            for name, _ in TRACE_COLUMNS:
                getattr(trace, name).frombytes(
                    memoryview(cols.pop(name)).cast("B")
                )


class EmissionLog:
    """One traced thread's rows, by reference, until the run ends: a
    :class:`RowTemplates` id per run of rows (``ids``), the address and
    stall of each shared row and the wait of each synchronization row."""

    __slots__ = ("ids", "addrs", "stalls", "waits")

    def __init__(self) -> None:
        self.ids = array("i")
        self.addrs = array(_TYPECODES["addr"])
        self.stalls = array(_TYPECODES["stall"])
        self.waits = array(_TYPECODES["wait"])


def _np_view(col: array) -> np.ndarray:
    """A zero-copy numpy view of an ``array`` (``np.frombuffer`` rejects
    empty buffers, so those get a fresh empty array)."""
    dtype = _NP_DTYPES[col.typecode]
    return np.frombuffer(col, dtype) if len(col) else np.empty(0, dtype)


class TraceFormatError(Exception):
    """Raised when unpickling a trace written in an incompatible format."""


@dataclass(slots=True)
class TraceRecord:
    """One retired dynamic instruction (a materialised row view).

    Attributes:
        op: opcode executed.
        pc: static instruction index.
        next_pc: index of the dynamically following instruction (equals
            ``pc + 1`` unless a control transfer happened).
        rd: destination register flat id, or -1.
        rs1: first source register flat id, or -1.
        rs2: second source register flat id, or -1.
        addr: effective byte address for memory/sync operations, else -1.
        stall: memory stall in cycles beyond the 1-cycle occupancy
            (0 on hits, the miss penalty on misses; for synchronization
            operations this is the access latency of the sync variable —
            the *hideable* component).
        wait: synchronization contention/imbalance wait in cycles (the
            component processor lookahead cannot hide); 0 for ordinary
            instructions.
        mem_class: consistency classification of the operation.
    """

    op: Op
    pc: int
    next_pc: int
    rd: int = -1
    rs1: int = -1
    rs2: int = -1
    addr: int = -1
    stall: int = 0
    wait: int = 0
    mem_class: MemClass = MemClass.NONE


class Trace:
    """The full dynamic trace of one simulated processor.

    Rows live in parallel integer arrays (one per ``TRACE_COLUMNS``
    entry).  Indexing and iteration materialise :class:`TraceRecord`
    views for compatibility; hot consumers should grab the raw columns
    via :meth:`columns` and iterate flat ints.
    """

    __slots__ = ("cpu", "op", "pc", "next_pc", "rd", "rs1", "rs2",
                 "addr", "stall", "wait", "mem_class", "fastpath_cache")

    def __init__(self, cpu: int = 0) -> None:
        self.cpu = cpu
        # Scratch slot for derived row indices (see cpu/static_fast.py);
        # never pickled or compared, invalidated by length checks.
        self.fastpath_cache = None
        for name, typecode in TRACE_COLUMNS:
            setattr(self, name, array(typecode))

    # -- construction -------------------------------------------------------

    def append(self, record: TraceRecord) -> None:
        """Append one record (compatibility path for tests/builders)."""
        self.op.append(int(record.op))
        self.pc.append(record.pc)
        self.next_pc.append(record.next_pc)
        self.rd.append(record.rd)
        self.rs1.append(record.rs1)
        self.rs2.append(record.rs2)
        self.addr.append(record.addr)
        self.stall.append(record.stall)
        self.wait.append(record.wait)
        self.mem_class.append(int(record.mem_class))

    @classmethod
    def from_records(cls, records, cpu: int = 0) -> "Trace":
        """Build a trace from an iterable of :class:`TraceRecord`."""
        trace = cls(cpu=cpu)
        for record in records:
            trace.append(record)
        return trace

    # -- access -------------------------------------------------------------

    def columns(self) -> tuple:
        """The raw column arrays, in ``TRACE_COLUMNS`` order."""
        return (self.op, self.pc, self.next_pc, self.rd, self.rs1,
                self.rs2, self.addr, self.stall, self.wait, self.mem_class)

    def np_columns(self) -> tuple:
        """Zero-copy read-only numpy views, in ``TRACE_COLUMNS`` order.

        Each view aliases the column's ``array`` buffer directly
        (``np.frombuffer``) — no bytes are copied.  Views are built fresh
        on every call because appending may reallocate the buffers; do
        not cache them across appends.
        """
        views = tuple(_np_view(col) for col in self.columns())
        for view in views:
            view.flags.writeable = False
        return views

    def __len__(self) -> int:
        return len(self.op)

    def __iter__(self):
        for row in zip(*self.columns()):
            yield TraceRecord(
                Op(row[0]), row[1], row[2], row[3], row[4], row[5],
                row[6], row[7], row[8], MemClass(row[9]),
            )

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return [self[i] for i in range(*idx.indices(len(self)))]
        return TraceRecord(
            Op(self.op[idx]), self.pc[idx], self.next_pc[idx],
            self.rd[idx], self.rs1[idx], self.rs2[idx], self.addr[idx],
            self.stall[idx], self.wait[idx], MemClass(self.mem_class[idx]),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self.cpu == other.cpu and all(
            a == b for a, b in zip(self.columns(), other.columns())
        )

    def __hash__(self):  # arrays are mutable; hash by identity
        return id(self)

    @property
    def records(self) -> list[TraceRecord]:
        """Materialised record views (compatibility/debug helper)."""
        return list(self)

    def to_records(self) -> list[TraceRecord]:
        """Alias of :attr:`records` with method-call syntax."""
        return list(self)

    # -- pickling ------------------------------------------------------------

    def __getstate__(self):
        return {
            "version": TRACE_FORMAT_VERSION,
            "cpu": self.cpu,
            "columns": {
                name: (typecode, getattr(self, name).tobytes())
                for name, typecode in TRACE_COLUMNS
            },
        }

    def __setstate__(self, state) -> None:
        if not isinstance(state, dict) or "columns" not in state:
            raise TraceFormatError(
                "pickled trace predates columnar storage; regenerate it"
            )
        if state.get("version") != TRACE_FORMAT_VERSION:
            raise TraceFormatError(
                f"trace format {state.get('version')!r} != "
                f"{TRACE_FORMAT_VERSION}; regenerate it"
            )
        self.cpu = state["cpu"]
        self.fastpath_cache = None
        for name, typecode in TRACE_COLUMNS:
            col = array(typecode)
            stored_typecode, raw = state["columns"][name]
            if stored_typecode != typecode:
                raise TraceFormatError(
                    f"column {name!r} stored as {stored_typecode!r}, "
                    f"expected {typecode!r}; regenerate the trace"
                )
            col.frombytes(raw)
            setattr(self, name, col)

    # -- summary helpers used by tests and experiments ----------------------

    def count(self, predicate) -> int:
        return sum(1 for r in self if predicate(r))

    def read_misses(self) -> int:
        if not len(self):
            return 0
        cols = self.np_columns()
        cls, stall = cols[9], cols[7]
        return int(((cls == int(MemClass.READ)) & (stall > 0)).sum())

    def write_misses(self) -> int:
        if not len(self):
            return 0
        cols = self.np_columns()
        cls, stall = cols[9], cols[7]
        return int(((cls == int(MemClass.WRITE)) & (stall > 0)).sum())

    def total_read_stall(self) -> int:
        if not len(self):
            return 0
        cols = self.np_columns()
        cls, stall = cols[9], cols[7]
        return int(stall[cls == int(MemClass.READ)].sum())

    def total_write_stall(self) -> int:
        if not len(self):
            return 0
        cols = self.np_columns()
        cls, stall = cols[9], cols[7]
        return int(stall[cls == int(MemClass.WRITE)].sum())
