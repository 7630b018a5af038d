"""Distributed spans and the cross-process trace stitcher.

:class:`Span` is the unit of distributed tracing: a named wall-clock
interval tagged with the trace id it belongs to, its own span id, and
its parent's span id.  Each process records the spans it owns —
the client its submit span, the daemon queue-wait and sweep spans, the
supervisor per-attempt spans, each worker its run and engine spans —
and ships them out-of-band:

* in-process, into a bounded thread-safe :class:`SpanSink`;
* cross-process, as JSONL side files (:func:`write_spans` /
  :func:`read_spans`) keyed by trace id and pid, **never** inside the
  result payloads — simulation outputs stay byte-identical whether
  tracing is on or off.

:func:`stitch` folds any bag of spans back into ONE Chrome
``trace_event`` document (via :class:`~repro.obs.tracer.ChromeTracer`)
that loads in Perfetto and passes
:func:`~repro.obs.tracer.validate_trace`.  Timestamps are microseconds
since the earliest span.  Both endpoints are rounded *independently*
(``dur = round(end) - round(start)``, not ``round(end - start)``):
rounding is monotonic, so intervals that nest in float seconds still
nest in integer microseconds and adjacent siblings never overlap —
which is exactly the invariant ``validate_trace`` checks per track.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path

from .tracer import ChromeTracer

#: Category tag for service-layer spans (client/queue/pool).
CAT_SERVICE = "service"

_FIELDS = (
    "trace_id", "span_id", "parent_id", "name", "cat",
    "process", "thread", "start", "end",
)


@dataclass
class Span:
    """One node of a distributed trace: a wall-clock interval."""

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    process: str
    thread: str
    start: float
    end: float
    cat: str = CAT_SERVICE
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        out = {name: getattr(self, name) for name in _FIELDS}
        if self.args:
            out["args"] = self.args
        return out

    @classmethod
    def from_dict(cls, data: dict) -> Span:
        return cls(
            trace_id=data["trace_id"],
            span_id=data["span_id"],
            parent_id=data.get("parent_id"),
            name=data["name"],
            cat=data.get("cat", CAT_SERVICE),
            process=data["process"],
            thread=data.get("thread", "main"),
            start=float(data["start"]),
            end=float(data["end"]),
            args=dict(data.get("args") or {}),
        )


class SpanSink:
    """Thread-safe bounded collector for finished spans.

    The daemon holds one sink for the spans it records in-process;
    :meth:`spans` filters by trace id for the ``/v1/trace/{id}``
    endpoint.  The bound keeps a long-lived daemon from growing without
    limit — when full, the oldest half is dropped (recent traces are
    the ones still being queried).
    """

    #: Spans held before the oldest half is dropped.
    CAPACITY = 20_000

    def __init__(self) -> None:
        self._spans: list[Span] = []
        self._lock = threading.Lock()
        self.dropped = 0

    def record(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)
            if len(self._spans) > self.CAPACITY:
                drop = len(self._spans) // 2
                del self._spans[:drop]
                self.dropped += drop

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def spans(self, trace_id: str | None = None) -> list[Span]:
        with self._lock:
            snapshot = list(self._spans)
        if trace_id is None:
            return snapshot
        return [s for s in snapshot if s.trace_id == trace_id]


def write_spans(path, spans) -> None:
    """Append spans to a JSONL side file (parent dirs created)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as f:
        for span in spans:
            f.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")


def read_spans(path, trace_id: str | None = None) -> list[Span]:
    """Load spans from a JSONL file or every ``*.jsonl`` in a directory.

    Corrupt lines are skipped (a worker may have died mid-write); an
    absent path is simply an empty trace.
    """
    path = Path(path)
    if not path.exists():
        return []
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    spans: list[Span] = []
    for file in files:
        try:
            text = file.read_text()
        except OSError:
            continue
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                span = Span.from_dict(json.loads(line))
            except (ValueError, KeyError, TypeError):
                continue
            if trace_id is None or span.trace_id == trace_id:
                spans.append(span)
    return spans


def stitch(spans, other_data: dict | None = None) -> dict:
    """Fold spans from any number of processes into one Chrome trace.

    Raises ``ValueError`` on duplicate span ids (two spans claiming the
    same identity means the collection step double-counted a file).
    Returns the parsed trace dict — callers serialize with
    ``json.dumps`` or hand it straight to ``validate_trace``.
    """
    spans = list(spans)
    seen: dict[str, Span] = {}
    for span in spans:
        other = seen.get(span.span_id)
        if other is not None:
            raise ValueError(
                f"duplicate span id {span.span_id!r} "
                f"({other.name!r} vs {span.name!r})"
            )
        seen[span.span_id] = span
        if span.end < span.start:
            raise ValueError(
                f"span {span.span_id!r} ({span.name!r}) ends before "
                f"it starts"
            )
    tracer = ChromeTracer()
    if spans:
        t0 = min(span.start for span in spans)
        ordered = sorted(
            spans,
            key=lambda s: (
                s.process, s.thread, s.start, -s.duration, s.span_id,
            ),
        )
        for span in ordered:
            pid, tid = tracer.track(span.process, span.thread)
            ts = round((span.start - t0) * 1e6)
            dur = max(0, round((span.end - t0) * 1e6) - ts)
            args = {
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "trace_id": span.trace_id,
            }
            if span.args:
                args.update(span.args)
            tracer.complete(
                span.name, span.cat, pid, tid, ts, dur, args=args,
            )
    trace_ids = sorted({span.trace_id for span in spans})
    meta = {
        "clock": "wall-clock microseconds since first span",
        "trace_ids": trace_ids,
        "span_count": len(spans),
        **(other_data or {}),
    }
    return tracer.to_dict(meta)
