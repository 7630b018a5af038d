"""Async job queue for the simulation daemon.

Submissions (one sweep each — a list of canonical
:class:`~repro.service.jobs.SweepJob`\\ s) are queued with a priority
and served **priority-first, FIFO within a priority** by the daemon's
scheduler thread.  Three properties make the queue safe to expose to
untrusted traffic:

* **bounded depth with explicit backpressure** — the queue holds at
  most ``maxsize`` waiting submissions; one more raises
  :class:`QueueFull` carrying a drain-rate-based ``retry_after`` hint,
  which the HTTP layer maps to ``429 Retry-After``.  Overload is
  rejected at the door, never absorbed into unbounded memory;
* **deduplication** — a submission's id is the SHA-256 of its sorted
  canonical sub-run configs, so resubmitting work that is already
  queued, running, or finished returns the *existing* job id instead
  of queueing a duplicate (sub-runs are additionally deduplicated
  against the content-addressed result store at execution time);
* **clean shutdown** — :meth:`JobQueue.close` atomically stops
  accepting submissions (:class:`QueueClosed`, HTTP 503) and lets the
  scheduler drain or cancel what is left.

A submission changes state only under the queue's lock, together with
its timestamps and sub-run records (:meth:`JobQueue.start`,
:meth:`JobQueue.finish`, :meth:`JobQueue.close`), and
:meth:`JobQueue.status` reads it under the same lock, so no reader sees
``running`` without ``started_at`` or ``finished_at`` on a job that is
not yet terminal.  ``status(..., wait=S)`` holds the reader on one
condition, notified by every terminal transition, until the submission
is terminal or S seconds pass.

All methods are thread-safe; the HTTP front end calls ``submit`` and
``status`` from handler threads while the scheduler pops from its own.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import threading
import time
from dataclasses import dataclass, field

from .errors import ServiceError
from .store import canonical_config_blob

JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_CANCELLED = "cancelled"

#: States a submission never leaves.
TERMINAL_STATES = (JOB_DONE, JOB_FAILED, JOB_CANCELLED)

#: States in which a resubmission dedups onto the existing job.  A
#: failed or cancelled job is *not* sticky: resubmitting retries it.
_DEDUP_STATES = (JOB_QUEUED, JOB_RUNNING, JOB_DONE)


class QueueFull(ServiceError):
    """The queue is at capacity; retry after ``retry_after`` seconds."""

    def __init__(self, depth: int, retry_after: float) -> None:
        self.depth = depth
        self.retry_after = retry_after
        super().__init__(
            f"job queue full ({depth} submissions waiting); "
            f"retry in {retry_after:.0f}s"
        )


class QueueClosed(ServiceError):
    """The daemon is draining; no new submissions are accepted."""


def submission_id(sweep: list) -> str:
    """Deterministic id for a sweep: hash of its sorted sub-run configs.

    Two requests that expand to the same canonical sub-runs — however
    they were spelled — share one id, which is what makes duplicate
    submission detection work across clients.
    """
    material = "|".join(sorted(
        canonical_config_blob(job.config()) for job in sweep
    ))
    return hashlib.sha256(material.encode()).hexdigest()[:16]


@dataclass
class QueuedJob:
    """One accepted submission and its full lifecycle record."""

    id: str
    sweep: list                       # list[SweepJob]
    priority: int = 0
    seq: int = 0
    state: str = JOB_QUEUED
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    records: list = field(default_factory=list)   # list[JobRecord]
    error: str | None = None
    #: Distributed trace context from the submission, if any:
    #: ``{"trace_id": ..., "parent_id": ...}``.  Dedup keeps the first
    #: submission's context — a duplicate never re-parents a live job.
    trace: dict | None = None

    @property
    def queue_latency(self) -> float | None:
        """Seconds between acceptance and the scheduler picking it up."""
        if self.started_at is None:
            return None
        return max(0.0, self.started_at - self.submitted_at)

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for record in self.records:
            out[record.state] = out.get(record.state, 0) + 1
        return out

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "state": self.state,
            "priority": self.priority,
            "n_subruns": len(self.sweep),
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "queue_latency": self.queue_latency,
            "counts": self.counts(),
            "error": self.error,
            "subruns": [r.to_dict() for r in self.records],
        }


class JobQueue:
    """Bounded priority queue plus the daemon's job table."""

    def __init__(self, maxsize: int = 64, metrics=None, log=None) -> None:
        if maxsize < 1:
            raise ValueError("queue maxsize must be >= 1")
        self.maxsize = maxsize
        self.jobs: dict[str, QueuedJob] = {}
        self._heap: list[tuple[int, int, str]] = []
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._settled = threading.Condition(self._lock)
        self._closed = False
        # EWMA of sweep execution time, fed back by the daemon after
        # each job; sizes the Retry-After hint under backpressure.
        self._ewma_seconds = 1.0
        if log is None:
            from ..obs.log import NULL_LOG

            log = NULL_LOG
        self.log = log
        if metrics is None:
            from ..obs.metrics import NULL_REGISTRY

            metrics = NULL_REGISTRY
        self._depth = metrics.gauge("daemon.queue_depth")
        self._drain_ewma = metrics.gauge("daemon.drain_ewma_seconds")
        self._drain_ewma.set(self._ewma_seconds)
        self._submitted = metrics.counter("daemon.submitted")
        self._deduped = metrics.counter("daemon.deduped")
        self._rejected = metrics.counter("daemon.rejected_full")

    # -- producer side -------------------------------------------------

    def submit(
        self, sweep: list, priority: int = 0, trace: dict | None = None,
    ) -> tuple[QueuedJob, bool]:
        """Enqueue a sweep; returns ``(job, created)``.

        ``created`` is False when the submission deduplicated onto an
        existing queued/running/finished job.  Lower ``priority`` runs
        earlier; equal priorities run in submission order.  ``trace``
        is the submitter's ``{"trace_id", "parent_id"}`` context, kept
        on the job so the executor can parent its spans under the
        client's submit span.
        """
        if not sweep:
            raise ValueError("submission expands to zero jobs")
        job_id = submission_id(sweep)
        with self._lock:
            if self._closed:
                self.log.warning("queue.refused_closed", job=job_id)
                raise QueueClosed("daemon is draining; submission refused")
            existing = self.jobs.get(job_id)
            if existing is not None and existing.state in _DEDUP_STATES:
                self._deduped.inc()
                self.log.info(
                    "queue.deduped", job=job_id, state=existing.state,
                )
                return existing, False
            depth = len(self._heap)
            if depth >= self.maxsize:
                self._rejected.inc()
                retry_after = self.retry_after(depth)
                self.log.warning(
                    "queue.rejected_full", job=job_id, depth=depth,
                    retry_after=retry_after,
                )
                raise QueueFull(depth, retry_after)
            job = QueuedJob(
                id=job_id,
                sweep=list(sweep),
                priority=priority,
                seq=next(self._seq),
                submitted_at=time.time(),
                trace=dict(trace) if trace else None,
            )
            self.jobs[job_id] = job
            heapq.heappush(self._heap, (priority, job.seq, job_id))
            self._depth.set(len(self._heap))
            self._submitted.inc()
            self.log.info(
                "queue.accepted", job=job_id, priority=priority,
                depth=len(self._heap), n_subruns=len(sweep),
                trace=(trace or {}).get("trace_id"),
            )
            self._not_empty.notify()
            return job, True

    # -- consumer side -------------------------------------------------

    def pop(self, timeout: float | None = None) -> QueuedJob | None:
        """Dequeue the highest-priority submission, or None on timeout.

        Entries whose job was cancelled while waiting are skipped.
        """
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        with self._not_empty:
            while True:
                while self._heap:
                    _, _, job_id = heapq.heappop(self._heap)
                    self._depth.set(len(self._heap))
                    job = self.jobs.get(job_id)
                    if job is not None and job.state == JOB_QUEUED:
                        return job
                if self._closed:
                    return None
                if deadline is None:
                    self._not_empty.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._not_empty.wait(
                        remaining
                    ):
                        if not self._heap:
                            return None

    def start(self, job: QueuedJob, records: list) -> bool:
        """Mark a popped submission running with its sub-run records.

        False if it was cancelled (by :meth:`close`) since the pop.
        """
        with self._lock:
            if job.state != JOB_QUEUED:
                return False
            job.state = JOB_RUNNING
            job.started_at = time.time()
            job.records = records
            return True

    def finish(self, job: QueuedJob, state: str, finished_at: float) -> None:
        """Make a running submission terminal and wake its waiters."""
        with self._lock:
            job.state = state
            job.finished_at = finished_at
            self._settled.notify_all()

    def note_duration(self, seconds: float) -> None:
        """Feed one sweep's execution time into the drain-rate EWMA."""
        with self._lock:
            self._ewma_seconds = (
                0.7 * self._ewma_seconds + 0.3 * max(0.01, seconds)
            )
            self._drain_ewma.set(round(self._ewma_seconds, 6))

    def retry_after(self, depth: int | None = None) -> float:
        """Seconds until the queue has likely drained one slot."""
        if depth is None:
            depth = len(self._heap)
        return max(1.0, round(depth * self._ewma_seconds, 1))

    # -- shared --------------------------------------------------------

    def get(self, job_id: str) -> QueuedJob | None:
        with self._lock:
            return self.jobs.get(job_id)

    def status(self, job_id: str, wait: float = 0.0) -> dict | None:
        """A consistent snapshot of one submission (None if unknown).

        With ``wait > 0`` the call first holds until the submission is
        terminal or ``wait`` seconds pass; an unknown id never holds.
        """
        with self._lock:
            job = self.jobs.get(job_id)
            if job is None:
                return None
            if wait > 0:
                self._settled.wait_for(
                    lambda: job.state in TERMINAL_STATES, wait
                )
            return job.to_dict()

    def depth(self) -> int:
        with self._lock:
            return len(self._heap)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> list[QueuedJob]:
        """Refuse new submissions and cancel everything still queued.

        Returns the cancelled jobs; the submission currently executing
        (if any) is the scheduler's to finish within its grace period.
        """
        with self._lock:
            self._closed = True
            cancelled = []
            for job in self.jobs.values():
                if job.state == JOB_QUEUED:
                    job.state = JOB_CANCELLED
                    job.finished_at = time.time()
                    cancelled.append(job)
            self._heap.clear()
            self._depth.set(0)
            self._not_empty.notify_all()
            self._settled.notify_all()
            self.log.info("queue.closed", cancelled=len(cancelled))
            return cancelled
