"""The benchmark's own span recorder (traced run only).

Spans are recorded *around* the calls into each layer's public
functions — either explicitly (``with rec.span("cosim.ds_replay")``) or
by temporarily replacing a public callable with a wrapper
(:meth:`Recorder.wrap`).  They stay in memory and are written to
``perf/out/`` when the workload ends.  Deliberately independent of
:mod:`repro.obs`, whose span model ROADMAP plans to change.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager


class Recorder:
    """Nested spans: name, start, end, parent, workload id."""

    def __init__(self, workload: str, enabled: bool = True) -> None:
        self.workload = workload
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        self._undo: list = []

    @contextmanager
    def span(self, name: str):
        """Record one span under whichever span is open.  Only the thread
        that created the recorder records: the benchmark drives every
        layer from that thread, and a wrapped function called from a
        worker thread (``ThreadStepper``) has no parent to nest under."""
        if not self.enabled or threading.get_ident() != self._thread:
            yield None
            return
        rec = {
            "id": len(self.spans), "name": name, "workload": self.workload,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(), "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def traced(self, fn, name, post=None):
        """``fn`` wrapped in a span.  ``name`` is a string or a callable
        of the call's arguments; ``post`` may replace the result."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with self.span(label):
                result = fn(*args, **kwargs)
            return post(result) if post is not None else result

        return wrapper

    def wrap(self, owner, attr: str, name, post=None) -> None:
        """Replace the public callable ``owner.attr`` with its traced
        form until :meth:`unwrap_all`."""
        if not self.enabled:
            return
        fn = getattr(owner, attr)
        setattr(owner, attr, self.traced(fn, name, post))
        self._undo.append((owner, attr, fn))

    def unwrap_all(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f, indent=1)
            f.write("\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total, edge = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > edge:
            total += end - max(start, edge)
            edge = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(
                (s["start"], s["end"])
            )
    out = {}
    for s in spans:
        clipped = [
            (max(a, s["start"]), min(b, s["end"]))
            for a, b in children.get(s["id"], [])
        ]
        out[s["id"]] = (s["end"] - s["start"]) - _covered(
            [(a, b) for a, b in clipped if b > a]
        )
    return out


def self_time_by_name(spans: list[dict]) -> dict[str, float]:
    """Summed self time per span name."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + own[s["id"]]
    return out


def residual_frac(spans: list[dict], root_name: str) -> float:
    """Share of the root spans' wall-clock no child span accounts for."""
    own = self_times(spans)
    roots = [s for s in spans if s["name"] == root_name]
    wall = sum(s["end"] - s["start"] for s in roots)
    return sum(own[s["id"]] for s in roots) / wall if wall else 0.0


def validate(spans: list[dict], root_name: str) -> None:
    """Spans nest, and each has a parent or is the workload root."""
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["end"] is None or s["end"] < s["start"]:
            raise AssertionError(f"span {s['name']} never closed")
        if s["parent"] is None:
            if s["name"] != root_name:
                raise AssertionError(f"span {s['name']} has no parent")
            continue
        parent = by_id[s["parent"]]
        if not (parent["start"] <= s["start"] and s["end"] <= parent["end"]):
            raise AssertionError(
                f"span {s['name']} escapes its parent {parent['name']}"
            )
