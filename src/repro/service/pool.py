"""Supervised worker pool: the resilient replacement for raw process pools.

``concurrent.futures.ProcessPoolExecutor`` treats any worker death as a
``BrokenProcessPool`` and aborts the whole sweep; a hung worker stalls
it forever; a torn result pickle propagates as an opaque exception.
:class:`SupervisedPool` keeps the same "map a function over argument
tuples, results in submission order" contract but survives all three:

* **supervision** — every worker is a separate process with its *own*
  duplex pipe, so a worker killed mid-write can only corrupt its own
  channel (discarded on restart), never a shared queue lock; liveness
  is ``Process.is_alive`` plus the job deadline below, and dead workers
  are restarted automatically;
* **timeouts** — each job carries a wall-clock budget; a worker that
  exceeds it is SIGKILLed and replaced, and the job is retried;
* **retry with backoff** — failed attempts (crash / timeout / corrupt
  payload / exception) are retried up to ``max_attempts`` times with
  seeded exponential backoff + jitter; jobs that keep failing land on a
  quarantine list instead of aborting the sweep;
* **integrity** — workers send ``(payload, sha256)`` pairs computed
  over the pickled result; a mismatch (torn write, bit flip, chaos
  corruption) is a retryable failure, not silent bad data;
* **one fleet lifecycle** — :meth:`SupervisedPool.run` tops the fleet
  up to as many live workers as it has work for (at most ``workers``)
  and leaves them running, so later runs reuse warm worker processes
  (their module-level caches included) instead of paying a cold fork
  each; :meth:`SupervisedPool.close` (also the ``with`` block's exit)
  is the only teardown.

Results are collected by job index, so the output order — and, for
deterministic job functions, the output *bytes* — are identical to the
serial path regardless of scheduling, retries, or worker churn.
"""

from __future__ import annotations

import hashlib
import pickle
import random
import signal
import threading
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import connection, get_context

from ..obs.log import NULL_LOG
from ..obs.metrics import MetricsRegistry, NULL_REGISTRY
from .errors import (
    REASON_CORRUPT,
    REASON_CRASH,
    REASON_ERROR,
    REASON_TIMEOUT,
    AttemptFailure,
    BatchInterrupted,
    JobFailure,
    JobsFailedError,
    ServiceError,
)

#: Supervisor poll granularity (seconds) — bounds timeout detection lag.
_POLL = 0.05

#: Retry backoff: the first retry waits about ``BACKOFF_BASE`` seconds,
#: each later one twice as long, never more than ``BACKOFF_CAP``.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0

STATE_PENDING = "pending"
STATE_RUNNING = "running"
STATE_RETRY = "retry-wait"
STATE_DONE = "done"
STATE_FAILED = "failed"
STATE_CANCELLED = "cancelled"

#: States a job can still leave.
LIVE_STATES = (STATE_PENDING, STATE_RUNNING, STATE_RETRY)


def _digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


#: The signals a worker takes over from the supervisor's handlers.
_WORKER_SIGNALS = (signal.SIGINT, signal.SIGTERM)


def _worker_main(conn, chaos) -> None:
    """Worker loop: receive tasks, run them, send checksummed results.

    Runs in a child process.  SIGINT is ignored — shutdown is always
    driven by the supervisor (sentinel or SIGKILL), so a Ctrl-C at the
    terminal interrupts only the supervisor, which then tears the
    workers down within its grace period.  SIGTERM gets its default
    action back: a handler the supervisor had installed when it forked
    would only touch the child's copy of the supervisor's state.  Both
    arrive blocked (:class:`_Worker` forks under the mask), so one sent
    before these lines is held until they have run, not lost.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, _WORKER_SIGNALS)
    try:
        while True:
            task = conn.recv()
            if task is None:
                return
            index, attempt, fn, args = task
            conn.send(("start", index, attempt))
            try:
                if chaos is not None:
                    chaos.before(index, attempt)
                result = fn(*args)
                payload = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
                checksum = _digest(payload)
                if chaos is not None:
                    payload = chaos.after(index, attempt, payload)
                conn.send(("done", index, attempt, payload, checksum))
            except BaseException as exc:  # noqa: BLE001 — report, don't die
                detail = "".join(
                    traceback.format_exception_only(type(exc), exc)
                ).strip()
                conn.send(("error", index, attempt, detail))
    except (EOFError, OSError):
        return  # supervisor went away; nothing left to report to


@dataclass
class Job:
    """One unit of work plus its full supervision record."""

    index: int
    fn: object
    args: tuple
    label: str = ""
    state: str = STATE_PENDING
    attempts: int = 0
    history: list[AttemptFailure] = field(default_factory=list)
    payload: bytes | None = None
    result: object = None

    def failure(self) -> JobFailure:
        return JobFailure(
            index=self.index,
            label=self.label or f"job{self.index}",
            attempts=self.attempts,
            history=list(self.history),
        )


class _Worker:
    """Supervisor-side handle for one worker process."""

    __slots__ = ("proc", "conn", "job", "deadline")

    def __init__(self, ctx, chaos) -> None:
        ours, theirs = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_worker_main, args=(theirs, chaos), daemon=True,
        )
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, _WORKER_SIGNALS)
        try:
            self.proc.start()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        theirs.close()
        self.conn = ours
        self.job: Job | None = None
        self.deadline: float | None = None

    def dispatch(self, job: Job, timeout: float | None) -> None:
        self.job = job
        self.deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        self.conn.send((job.index, job.attempts, job.fn, job.args))

    def exitcode(self):
        try:
            return self.proc.exitcode
        except ValueError:  # pragma: no cover — already closed
            return None

    def kill(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        try:
            if self.proc.is_alive():
                self.proc.kill()
            self.proc.join(timeout=5)
        except ValueError:  # pragma: no cover — already closed
            pass

    def send_sentinel(self) -> None:
        try:
            self.conn.send(None)
        except (OSError, ValueError, BrokenPipeError):
            pass

    def join_within(self, deadline: float) -> None:
        """Join until ``deadline`` (monotonic); escalate to SIGKILL."""
        try:
            self.proc.join(
                timeout=max(0.0, deadline - time.monotonic())
            )
        except ValueError:  # pragma: no cover
            pass
        self.kill()


class SupervisedPool:
    """Run jobs across supervised worker processes (see module doc)."""

    def __init__(
        self,
        workers: int = 2,
        *,
        timeout: float | None = None,
        max_attempts: int = 3,
        seed: int = 0,
        chaos=None,
        metrics: MetricsRegistry | None = None,
        log=None,
        grace: float = 5.0,
        install_signal_handlers: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.workers = workers
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.seed = seed
        self.chaos = chaos
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.log = log if log is not None else NULL_LOG
        self.grace = grace
        self.install_signal_handlers = install_signal_handlers
        self._interrupted: str | None = None
        self._fleet: list[_Worker] = []
        try:
            self._ctx = get_context("fork")
        except ValueError:  # pragma: no cover — non-POSIX fallback
            self._ctx = get_context()

    # -- fleet lifecycle -----------------------------------------------

    def __enter__(self) -> SupervisedPool:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Tear the fleet down within the shared grace budget: sentinel
        every worker first, then give the whole fleet ``grace`` seconds
        before SIGKILLing the stragglers, so shutdown is bounded however
        many workers there are and however wedged they are."""
        fleet, self._fleet = self._fleet, []
        deadline = time.monotonic() + self.grace
        for worker in fleet:
            try:
                worker.send_sentinel()
            except Exception:  # noqa: BLE001 — teardown must not raise
                pass
        for worker in fleet:
            try:
                worker.join_within(deadline)
            except Exception:  # noqa: BLE001
                pass

    # -- backoff -------------------------------------------------------

    def backoff_delay(self, index: int, attempt: int) -> float:
        """Seeded exponential backoff with jitter for a retry.

        ``attempt`` is the attempt that just failed (1-based).  The
        jitter RNG is keyed by (seed, job, attempt) so a rerun of the
        same sweep waits the exact same schedule.
        """
        rng = random.Random(self.seed * 1_000_003 + index * 1_009 + attempt)
        raw = BACKOFF_BASE * (2 ** (attempt - 1))
        return min(BACKOFF_CAP, raw) * (0.5 + 0.5 * rng.random())

    # -- signal handling -----------------------------------------------

    def _install_signals(self):
        if not self.install_signal_handlers:
            return None
        if threading.current_thread() is not threading.main_thread():
            return None

        def _handler(signum, frame):  # noqa: ARG001
            self._interrupted = f"signal {signum}"

        previous = {}
        for sig in (signal.SIGINT, signal.SIGTERM):
            previous[sig] = signal.signal(sig, _handler)
        return previous

    def interrupt(self) -> None:
        """Unwind the current run and every later one, as SIGINT or
        SIGTERM do; safe to call from another thread."""
        self._interrupted = "interrupt()"

    @staticmethod
    def _restore_signals(previous) -> None:
        if previous:
            for sig, handler in previous.items():
                signal.signal(sig, handler)

    # -- main loop -----------------------------------------------------

    def run(self, jobs: list[Job], on_update=None) -> list[Job]:
        """Run ``jobs`` until none is pending/running/retry-waiting.

        ``on_update(job)`` is invoked after every state change, letting
        the batch runner persist live status.  The workers outlive the
        run (see :meth:`close`).  Raises :class:`BatchInterrupted` on
        SIGINT/SIGTERM or :meth:`interrupt`; job-level failures are
        recorded on the jobs, never raised from here.
        """
        m = self.metrics
        log = self.log
        c_done = m.counter("service.jobs_done")
        c_retries = m.counter("service.retries")
        c_quarantined = m.counter("service.quarantined")
        c_restarts = m.counter("service.worker_restarts")
        c_timeouts = m.counter("service.timeouts")
        c_crashes = m.counter("service.crashes")
        c_corrupt = m.counter("service.corrupt_payloads")
        g_busy = m.gauge("service.workers", labels={"state": "busy"})
        g_idle = m.gauge("service.workers", labels={"state": "idle"})
        m.counter("service.jobs_total").inc(len(jobs))
        if self.chaos is not None:
            log.info("pool.chaos_enabled", chaos=type(self.chaos).__name__)

        notify = on_update or (lambda job: None)
        ready: list[Job] = [j for j in jobs if j.state == STATE_PENDING]
        retries: list[tuple[float, Job]] = []
        if not ready:
            return jobs

        n_workers = min(self.workers, len(ready))
        # Backstop against a worker fleet dying in a loop outside any
        # job (every *job-attributed* death is already bounded by
        # max_attempts × jobs).
        restart_budget = 2 * n_workers + self.max_attempts * len(ready)
        fleet = self._fleet
        previous_signals = self._install_signals()

        def fail_attempt(worker: _Worker, reason: str, detail: str) -> None:
            job = worker.job
            worker.job = None
            if job is None:
                return
            if reason == REASON_TIMEOUT:
                c_timeouts.inc()
            elif reason == REASON_CRASH:
                c_crashes.inc()
            elif reason == REASON_CORRUPT:
                c_corrupt.inc()
            if job.attempts >= self.max_attempts:
                job.history.append(
                    AttemptFailure(job.attempts, reason, detail, 0.0)
                )
                job.state = STATE_FAILED
                c_quarantined.inc()
                log.error(
                    "pool.quarantined", job=job.label or job.index,
                    attempts=job.attempts, reason=reason, detail=detail,
                )
            else:
                delay = self.backoff_delay(job.index, job.attempts)
                job.history.append(
                    AttemptFailure(job.attempts, reason, detail, delay)
                )
                job.state = STATE_RETRY
                c_retries.inc()
                log.warning(
                    "pool.retry_scheduled", job=job.label or job.index,
                    attempt=job.attempts, reason=reason, detail=detail,
                    backoff=round(delay, 3),
                )
                retries.append((time.monotonic() + delay, job))
            notify(job)

        def replace(worker: _Worker) -> None:
            nonlocal restart_budget
            worker.kill()
            restart_budget -= 1
            idx = fleet.index(worker)
            if restart_budget >= 0:
                c_restarts.inc()
                log.warning(
                    "pool.worker_restart", budget_left=restart_budget,
                )
                fleet[idx] = _Worker(self._ctx, self.chaos)
            else:
                fleet.pop(idx)
                log.error("pool.restart_budget_exhausted")
                raise ServiceError(
                    "worker restart budget exhausted — aborting sweep"
                )

        try:
            # Keep the idle live workers of earlier runs; one that died
            # since, or still holds a job of an aborted run, goes.
            live = []
            for worker in fleet:
                if (
                    worker.job is None and worker.proc.is_alive()
                    and not worker.conn.closed
                ):
                    live.append(worker)
                else:
                    worker.kill()
            fleet[:] = live
            while len(fleet) < n_workers:
                fleet.append(_Worker(self._ctx, self.chaos))
            while any(j.state in LIVE_STATES for j in jobs):
                if self._interrupted is not None:
                    raise BatchInterrupted(
                        f"interrupted by {self._interrupted}"
                    )
                busy = sum(1 for w in fleet if w.job is not None)
                g_busy.set(busy)
                g_idle.set(len(fleet) - busy)
                now = time.monotonic()

                # Promote retries whose backoff has elapsed.
                due = [r for r in retries if r[0] <= now]
                if due:
                    retries[:] = [r for r in retries if r[0] > now]
                    for _, job in sorted(due, key=lambda r: r[1].index):
                        job.state = STATE_PENDING
                        ready.append(job)

                # Dispatch ready jobs to idle live workers.
                for worker in fleet:
                    if not ready:
                        break
                    if worker.job is None and worker.proc.is_alive():
                        job = ready.pop(0)
                        job.attempts += 1
                        job.state = STATE_RUNNING
                        try:
                            worker.dispatch(job, self.timeout)
                        except (OSError, ValueError, BrokenPipeError):
                            worker.job = job  # attribute the failure
                            fail_attempt(
                                worker, REASON_CRASH,
                                "worker channel closed at dispatch",
                            )
                            replace(worker)
                        else:
                            notify(job)

                # Wait for traffic on any worker channel.
                conns = [
                    w.conn for w in fleet
                    if w.conn is not None and not w.conn.closed
                ]
                if conns:
                    for conn in connection.wait(conns, timeout=_POLL):
                        worker = next(
                            (w for w in fleet if w.conn is conn), None
                        )
                        if worker is not None:
                            self._drain(
                                worker, fail_attempt, c_done, notify
                            )
                else:
                    time.sleep(_POLL)

                now = time.monotonic()
                for worker in list(fleet):
                    if worker not in fleet:
                        continue
                    if (
                        worker.job is not None
                        and worker.deadline is not None
                        and now > worker.deadline
                    ):
                        # Hung (or just slow) past the wall clock: kill
                        # the worker, fail the attempt, restart.
                        worker.kill()
                        fail_attempt(
                            worker, REASON_TIMEOUT,
                            f"exceeded {self.timeout:.1f}s wall clock",
                        )
                        replace(worker)
                    elif not worker.proc.is_alive():
                        # Death (SIGKILL, segfault, interpreter abort).
                        code = worker.exitcode()
                        worker.kill()
                        if worker.job is not None:
                            fail_attempt(
                                worker, REASON_CRASH,
                                f"worker died (exitcode {code})",
                            )
                        replace(worker)
        except BatchInterrupted as exc:
            log.warning("pool.interrupted", detail=str(exc))
            for job in jobs:
                if job.state in LIVE_STATES:
                    job.state = STATE_CANCELLED
                    notify(job)
            raise
        finally:
            g_busy.set(0)
            g_idle.set(len(fleet))
            self._restore_signals(previous_signals)
        return jobs

    # -- internals -----------------------------------------------------

    def _drain(self, worker: _Worker, fail_attempt, c_done, notify) -> None:
        """Consume every queued message from one worker channel."""
        while True:
            try:
                if worker.conn.closed or not worker.conn.poll():
                    return
                msg = worker.conn.recv()
            except (EOFError, OSError, pickle.UnpicklingError):
                # Channel torn (worker died mid-send).  Fail any job in
                # flight now so its retry isn't delayed; the liveness
                # sweep replaces the process.
                if worker.job is not None:
                    fail_attempt(worker, REASON_CRASH,
                                 "worker channel broke")
                try:
                    worker.conn.close()
                except OSError:
                    pass
                return
            kind = msg[0]
            if kind == "start":
                # The job left the worker's inbox; (re)base the
                # wall-clock budget at actual start of execution.
                if self.timeout is not None:
                    worker.deadline = time.monotonic() + self.timeout
            elif kind == "done":
                _, index, attempt, payload, checksum = msg
                job = worker.job
                if job is None or job.index != index:
                    continue  # stale message from a superseded attempt
                if _digest(payload) != checksum:
                    fail_attempt(
                        worker, REASON_CORRUPT, "payload checksum mismatch"
                    )
                    continue
                try:
                    result = pickle.loads(payload)
                except Exception as exc:  # noqa: BLE001
                    fail_attempt(
                        worker, REASON_CORRUPT,
                        f"payload failed to unpickle: {exc!r}",
                    )
                    continue
                job.result = result
                job.payload = payload
                job.state = STATE_DONE
                worker.job = None
                c_done.inc()
                self.log.debug(
                    "pool.job_done", job=job.label or job.index,
                    attempt=attempt,
                )
                notify(job)
            elif kind == "error":
                _, index, attempt, detail = msg
                job = worker.job
                if job is None or job.index != index:
                    continue
                fail_attempt(worker, REASON_ERROR, detail)


def run_jobs(
    fn,
    argtuples,
    jobs: int = 1,
    *,
    labels=None,
) -> list:
    """Map ``fn`` over ``argtuples`` with supervision; strict results.

    The drop-in replacement for the repo's former bare
    ``ProcessPoolExecutor`` fan-outs: ``jobs <= 1`` (or a single task)
    runs serially in-process with identical semantics, larger fan-outs
    go through :class:`SupervisedPool` with one automatic retry.
    Results come back in submission order.  If any job exhausts its
    attempts, a :class:`JobsFailedError` carrying the structured
    failure records is raised — callers that want partial results use
    the pool (or the batch layer) directly.
    """
    argtuples = list(argtuples)
    if jobs <= 1 or len(argtuples) <= 1:
        return [fn(*args) for args in argtuples]
    job_list = [
        Job(
            index=i,
            fn=fn,
            args=tuple(args),
            label=(labels[i] if labels else f"{fn.__name__}[{i}]"),
        )
        for i, args in enumerate(argtuples)
    ]
    with SupervisedPool(workers=jobs, max_attempts=2) as pool:
        pool.run(job_list)
    failures = [j.failure() for j in job_list if j.state != STATE_DONE]
    if failures:
        raise JobsFailedError(failures)
    return [j.result for j in job_list]
