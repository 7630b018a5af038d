"""Persistent simulation daemon: warm pool + caches behind a job queue.

One :class:`Daemon` instance is the long-lived "front half" of the
service layer.  Where ``python -m repro batch`` pays a cold start per
invocation — fresh worker processes, empty in-memory trace caches — the
daemon keeps everything warm across requests:

* one :class:`~repro.service.pool.SupervisedPool` (with
  ``--jobs > 1``), closed only at :meth:`Daemon.stop`: worker processes
  survive between submissions, so their process-level shared
  :class:`~repro.experiments.runner.TraceStore` caches do too;
* the scheduler's own warm trace/program stores (serial mode), shared
  across submissions via :func:`repro.experiments.runner.shared_store`;
* an in-memory **result byte cache** in front of the content-addressed
  :class:`~repro.service.store.ResultStore`.

Submissions arrive through :meth:`Daemon.submit` (the HTTP front end in
:mod:`repro.service.http` is a thin adapter over it) and are executed
one sweep at a time by a scheduler thread, priority-first, through the
same :class:`~repro.service.batch.SweepCore` as a batch (on the
pool, or in that thread for ``workers=1`` and single
misses), so a result computed by the daemon is byte-for-byte the
result a direct batch run would have produced.

Shutdown is bounded: :meth:`Daemon.stop` closes the queue (new
submissions are refused), cancels everything still waiting, lets the
in-flight submission drain within the shared grace period, then tears
the pool down.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from collections import OrderedDict
from pathlib import Path

from ..obs.context import TraceContext
from ..obs.log import NULL_LOG
from ..obs.metrics import SECONDS_BOUNDS, MetricsRegistry
from ..obs.spans import Span, SpanSink, read_spans
from .batch import SweepCore, sweep_records
from .jobs import sweep_from_request
from .pool import STATE_CANCELLED, STATE_DONE, STATE_FAILED, SupervisedPool
from .queue import (
    JOB_CANCELLED,
    JOB_DONE,
    JOB_FAILED,
    JobQueue,
    QueuedJob,
)
from .store import ResultStore

DEFAULT_DAEMON_DIR = Path("results") / "daemon"
#: Result payloads the in-memory byte cache keeps, least recently used
#: first out.
RESULT_CACHE_SIZE = 4096


def _validated_priority(payload: dict) -> int:
    priority = payload.get("priority", 0)
    if not isinstance(priority, int) or isinstance(priority, bool):
        raise ValueError(f"priority must be an integer, got {priority!r}")
    return priority


class Daemon:
    """The persistent simulation service core (see module docstring).

    ``executor`` is a test seam: a callable ``(SweepJob) -> result``
    that replaces the real simulation (the core's ``job_fn``), letting
    lifecycle tests run without generating traces.  With ``workers > 1``
    it runs in pool workers, so it must then be a picklable
    module-level callable such as :func:`~repro.service.chaos.sleep_job`.
    """

    def __init__(
        self,
        *,
        store_dir: Path | str,
        cache_dir: Path | str | None = None,
        workers: int = 1,
        queue_depth: int = 64,
        timeout: float | None = None,
        max_attempts: int = 3,
        seed: int = 0,
        grace: float = 5.0,
        metrics: MetricsRegistry | None = None,
        log=None,
        executor=None,
    ) -> None:
        self.metrics = (
            metrics if metrics is not None else MetricsRegistry(enabled=True)
        )
        self.log = log if log is not None else NULL_LOG
        self.queue = JobQueue(
            queue_depth, metrics=self.metrics, log=self.log
        )
        self.store = ResultStore(store_dir, metrics=self.metrics)
        self.cache_dir = str(cache_dir) if cache_dir else None
        # Side-channel span collection: the daemon's own spans live in
        # the in-memory sink; worker processes append theirs as JSONL
        # files under span_dir, a sibling of the store.
        self.spans = SpanSink()
        self.span_dir = Path(store_dir).parent / "spans"
        self.workers = workers
        self.grace = grace
        self.started_at = time.time()
        self._result_cache: OrderedDict[str, bytes] = OrderedDict()
        self._cache_lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._pool: SupervisedPool | None = None
        if workers > 1:
            self._pool = SupervisedPool(
                workers=workers,
                timeout=timeout,
                max_attempts=max_attempts,
                seed=seed,
                metrics=self.metrics,
                log=self.log,
                grace=grace,
                install_signal_handlers=False,
            )
        self._core = SweepCore(
            self.store,
            process="daemon",
            pool=self._pool,
            inline_single=True,
            job_fn=executor,
            cache_dir=self.cache_dir,
            metrics=self.metrics,
            span_dir=self.span_dir,
            lookup=self._cached_bytes,
            on_computed=self._store_computed,
            emit=self.spans.record,
        )
        m = self.metrics
        self._c_jobs_done = m.counter("daemon.jobs_done")
        self._c_jobs_failed = m.counter("daemon.jobs_failed")
        self._c_subruns = m.counter("daemon.subruns_done")
        self._c_cache_hits = m.counter("daemon.result_cache_hits")
        self._c_cache_misses = m.counter("daemon.result_cache_misses")
        self._h_wait = m.histogram(
            "daemon.job_wait_seconds", bounds=SECONDS_BOUNDS
        )
        self._h_run = m.histogram(
            "daemon.job_run_seconds", bounds=SECONDS_BOUNDS
        )
        self._h_hold = m.histogram(
            "daemon.http_hold_seconds", bounds=SECONDS_BOUNDS
        )

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Start the scheduler thread; the pool spawns its workers at
        the first pooled run and keeps them until :meth:`stop`."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._loop, name="repro-daemon-scheduler", daemon=True
        )
        self._thread.start()
        self.log.info("daemon.started", workers=self.workers)

    def stop(self) -> list[QueuedJob]:
        """Drain and shut down within the shared grace period.

        New submissions are refused immediately; queued-but-unstarted
        submissions are cancelled; the in-flight submission gets the
        grace period to finish its current sub-runs before the pool is
        interrupted and torn down.  Returns the cancelled jobs.
        """
        self.log.info("daemon.stopping")
        cancelled = self.queue.close()
        self._core.drain()
        if self._thread is not None:
            self._thread.join(self.grace)
            if self._thread.is_alive():
                # The scheduler is wedged inside a pool run: unwind it,
                # then give it one more bounded wait.
                self._core.interrupt()
                self._thread.join(self.grace)
        if self._pool is not None:
            self._pool.close()
        self.log.info("daemon.stopped", cancelled=len(cancelled))
        return cancelled

    @property
    def draining(self) -> bool:
        return self.queue.closed

    # -- request surface (the HTTP layer is a thin adapter) ------------

    def submit(self, payload: dict) -> tuple[QueuedJob, bool]:
        """Accept one submission (grid or explicit-jobs JSON form).

        An optional ``trace`` field — ``{"trace_id", "parent_id"}``,
        minted client-side and carried by the ``X-Repro-Trace`` header
        in the HTTP layer — parents this submission's spans under the
        client's submit span.  Raises ``ValueError`` (bad request),
        :class:`QueueFull` (backpressure), or :class:`QueueClosed`
        (draining).
        """
        payload = dict(payload)
        trace = payload.pop("trace", None)
        if trace is not None and (
            not isinstance(trace, dict) or "trace_id" not in trace
        ):
            raise ValueError(
                "trace must be an object carrying 'trace_id'"
            )
        sweep = sweep_from_request(payload)
        priority = _validated_priority(payload)
        return self.queue.submit(sweep, priority=priority, trace=trace)

    def trace_spans(self, trace_id: str) -> list[Span]:
        """Every span this daemon holds for one trace id — its own
        (sink) plus what worker processes wrote to the span dir."""
        return (
            self.spans.spans(trace_id)
            + read_spans(self.span_dir, trace_id)
        )

    def job(self, job_id: str) -> QueuedJob | None:
        return self.queue.get(job_id)

    def status(self, job_id: str, wait: float = 0.0) -> dict | None:
        """One submission's state as JSON (None if unknown), held up to
        ``wait`` seconds for it to turn terminal (see
        :meth:`JobQueue.status`); holds feed ``daemon.http_hold_seconds``.
        """
        t0 = time.monotonic()
        status = self.queue.status(job_id, wait)
        if wait > 0 and status is not None:
            self._h_hold.observe(time.monotonic() - t0)
        return status

    def results(self, job_id: str) -> dict | None:
        """Completed sub-run breakdowns of one submission, as JSON."""
        job = self.queue.get(job_id)
        if job is None:
            return None
        rows = []
        for record in job.records:
            if record.state != STATE_DONE:
                continue
            payload = self._cached_bytes(record.key)
            if payload is None:
                continue
            breakdown = pickle.loads(payload)
            rows.append({
                "label": record.label,
                "key": record.key,
                "source": record.source,
                "breakdown": {
                    "label": breakdown.label,
                    "total": breakdown.total,
                    "busy": breakdown.busy,
                    "sync": breakdown.sync,
                    "read": breakdown.read,
                    "write": breakdown.write,
                    "other": breakdown.other,
                    "instructions": breakdown.instructions,
                },
            })
        return {"id": job.id, "state": job.state, "results": rows}

    def healthz(self) -> dict:
        by_state: dict[str, int] = {}
        for job in list(self.queue.jobs.values()):
            by_state[job.state] = by_state.get(job.state, 0) + 1
        return {
            "status": "draining" if self.draining else "ok",
            "uptime_s": round(time.time() - self.started_at, 3),
            "queue_depth": self.queue.depth(),
            "workers": self.workers,
            "jobs": by_state,
        }

    # -- result cache --------------------------------------------------

    def _cached_bytes(self, key: str) -> bytes | None:
        """Result payload from the in-memory cache, then the store."""
        with self._cache_lock:
            payload = self._result_cache.get(key)
            if payload is not None:
                self._result_cache.move_to_end(key)
                self._c_cache_hits.inc()
                return payload
        payload = self.store.get_bytes(key)
        if payload is not None:
            self._cache_put(key, payload)
        else:
            self._c_cache_misses.inc()
        return payload

    def _cache_put(self, key: str, payload: bytes) -> None:
        with self._cache_lock:
            self._result_cache[key] = payload
            self._result_cache.move_to_end(key)
            while len(self._result_cache) > RESULT_CACHE_SIZE:
                self._result_cache.popitem(last=False)

    # -- scheduler -----------------------------------------------------

    def _loop(self) -> None:
        # Closing the queue cancels everything still waiting in it.
        while not self.queue.closed:
            qjob = self.queue.pop(timeout=0.1)
            if qjob is not None:
                self._execute(qjob)

    def _store_computed(self, key: str, payload: bytes) -> None:
        self._cache_put(key, payload)
        self._c_subruns.inc()

    def _execute(self, qjob: QueuedJob) -> None:
        trace = qjob.trace or {}
        trace_id = trace.get("trace_id")
        log = self.log.bind(job=qjob.id)
        if trace_id:
            log = log.bind(trace=trace_id)
        records = sweep_records(self.store, qjob.sweep, qjob.submitted_at)
        if not self.queue.start(qjob, records):
            return  # cancelled by stop() since the pop
        log.info(
            "daemon.sweep_start", n_subruns=len(qjob.sweep),
            wait_s=round(qjob.started_at - qjob.submitted_at, 6),
        )
        t0 = time.monotonic()
        sweep_ctx = (
            TraceContext(trace_id, os.urandom(4).hex()) if trace_id else None
        )
        self._core.run(qjob.sweep, records, trace=sweep_ctx)
        finished_at = time.time()
        self.queue.note_duration(time.monotonic() - t0)
        for record in records:
            wait = record.queue_latency
            if wait is not None:
                self._h_wait.observe(wait)
            run_s = record.run_seconds
            if run_s is not None:
                self._h_run.observe(run_s)
        # An interrupted run always leaves a cancelled record.
        states = {record.state for record in records}
        if STATE_CANCELLED in states:
            state = JOB_CANCELLED
        elif STATE_FAILED in states:
            state = JOB_FAILED
            self._c_jobs_failed.inc()
        else:
            state = JOB_DONE
            self._c_jobs_done.inc()
        if trace_id:
            parent_id = trace.get("parent_id")
            self.spans.record(Span(
                trace_id, os.urandom(4).hex(), parent_id,
                "queue-wait", "daemon", "scheduler",
                qjob.submitted_at, qjob.started_at,
                args={"job": qjob.id},
            ))
            self.spans.record(Span(
                trace_id, sweep_ctx.span_id, parent_id,
                f"sweep {qjob.id}", "daemon", "scheduler",
                qjob.started_at, finished_at,
                args={"job": qjob.id, "state": state},
            ))
        log.info(
            "daemon.sweep_done", state=state,
            seconds=round(finished_at - qjob.started_at, 6),
            counts=qjob.counts(),
        )
        # Last, so a waiter woken here finds the job's metrics and
        # spans already recorded.
        self.queue.finish(qjob, state, finished_at)


def serve(
    daemon: Daemon,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    banner=None,
) -> int:
    """Run a daemon behind its HTTP front end until SIGTERM/SIGINT.

    Blocks the calling (main) thread in the HTTP serve loop.  On
    SIGTERM or SIGINT the server stops accepting connections, the
    daemon drains its in-flight submission within the grace period,
    and the function returns 130 (the repo-wide interrupted exit
    code); a plain ``server.shutdown()`` from another thread returns
    0.
    """
    import signal

    from .http import make_server

    server = make_server(daemon, host, port)
    daemon.start()
    stop_signals: list[int] = []

    def _on_signal(signum, frame):  # noqa: ARG001 — signal contract
        stop_signals.append(signum)
        # shutdown() blocks until the serve loop exits, and the serve
        # loop cannot advance while this handler runs on the main
        # thread — so trip it from a helper thread.
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        previous[signum] = signal.signal(signum, _on_signal)
    try:
        if banner is not None:
            bound_host, bound_port = server.server_address[:2]
            banner(
                f"simulation daemon listening on "
                f"http://{bound_host}:{bound_port} "
                f"(workers={daemon.workers}, "
                f"queue_depth={daemon.queue.maxsize})"
            )
        server.serve_forever(poll_interval=0.1)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        cancelled = daemon.stop()
        server.server_close()
        if banner is not None and cancelled:
            banner(f"cancelled {len(cancelled)} queued submission(s)")
    return 130 if stop_signals else 0
