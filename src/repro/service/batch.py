"""The sweep-execution core and the batch runner built on it.

:class:`SweepCore` is the one place a sweep of
:class:`~repro.service.jobs.SweepJob`\\ s runs: it builds the
:class:`JobRecord`\\ s, serves hits from the content-addressed
:class:`~repro.service.store.ResultStore`, runs the misses on a
:class:`~repro.service.pool.SupervisedPool` or in the calling thread,
stores their payloads and records a traced sweep's ``job``/``attempt``
spans.  Its front ends are :func:`run_batch` and the
:class:`~repro.service.daemon.Daemon`.

``run_batch`` runs the core once on a per-batch pool and persists
``state.json`` (on every record change), ``manifest.json`` and, when
traced, ``trace.json`` under ``<out>/<batch-id>/`` for ``python -m
repro status``/``results``.  A batch never raises on job failure: it
returns partial results plus a structured failure report.  Only
SIGINT/SIGTERM interrupt it, and the state file still records how far
it got.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from ..obs.manifest import build_manifest, write_manifest
from ..obs.context import TraceContext
from ..obs.metrics import MetricsRegistry
from ..obs.spans import Span, write_spans
from .errors import REASON_ERROR, AttemptFailure, BatchInterrupted
from .jobs import SweepJob
from .pool import (
    LIVE_STATES,
    STATE_CANCELLED,
    STATE_DONE,
    STATE_FAILED,
    STATE_PENDING,
    STATE_RUNNING,
    Job,
    SupervisedPool,
)
from .store import ResultStore

BATCH_STATE_SCHEMA = "repro-batch-state/1"

DEFAULT_BATCH_DIR = Path("results") / "batches"


def run_sweep_job(job: SweepJob, store):
    """Run one canonical sub-run against ``store``, to a breakdown.

    ``store`` is an :class:`~repro.experiments.runner.TraceStore`; a
    warm one (a persistent worker's or the daemon's shared store)
    satisfies the trace lookup from memory.

    Imports stay inside the function so :mod:`repro.service` never
    imports :mod:`repro.experiments` at module level (the experiments
    layer imports the pool, and cycles must stay one-directional).
    """
    from ..cosim import replay_solo, run_cosim
    from ..cpu import ExecutionBreakdown, ProcessorConfig

    if job.kind == "cosim":
        # Co-simulate the DS multiprocessor: every processor on one
        # shared fabric.  The stored result is the machine aggregate
        # (summed per-processor components) so the standard results
        # table renders it; per-processor cycles and the fabric's
        # miss-latency summary ride along in ``extras``.
        crun = store.get_cosim(job.app)
        cfg = ProcessorConfig(
            kind="ds", model=job.model, window=job.window
        )
        result = run_cosim(
            crun, cfg, network_kind=job.network,
            line_size=store.line_size,
        )
        parts = result.breakdowns
        extras = {
            "per_cpu_cycles": result.cycles(),
            "net": result.net_summary,
        }
        return ExecutionBreakdown(
            label=f"COSIM-{cfg.label()}-{job.network}",
            busy=sum(b.busy for b in parts),
            sync=sum(b.sync for b in parts),
            read=sum(b.read for b in parts),
            write=sum(b.write for b in parts),
            other=sum(b.other for b in parts),
            instructions=sum(b.instructions for b in parts),
            extras=extras,
        )
    run = store.get(job.app)
    cfg = ProcessorConfig(
        kind=job.kind,
        model=job.model if job.kind != "base" else "RC",
        window=job.window,
    )
    # Traces carry the fixed penalty; a non-ideal backend re-times
    # misses at replay, the processor alone on a fresh fabric.
    return replay_solo(
        run.trace, cfg, job.network, job.procs, store.line_size
    )[0]


def _sweep_worker(
    config: dict, cache_dir: str | None, trace_info: dict | None = None,
    job_fn=None, metrics=None,
):
    """Run one sub-run, in a pool worker or in the calling thread.

    ``job_fn`` (``SweepJob -> result``) replaces the simulation; by
    default the sub-run is simulated against
    :func:`repro.experiments.runner.shared_store`, keyed by the job's
    trace-shaping parameters, so a persistent worker (or the daemon's
    own thread) keeps traces warm from one request to the next.
    ``metrics`` rebinds that store's warm-cache counters (in-thread
    only; a worker keeps its own).

    ``trace_info`` (``{"trace_id", "parent_id", "span_dir"}``)
    opts this execution into distributed tracing: a run span with
    nested trace-acquisition and simulate spans goes to a JSONL side
    file under ``span_dir``.  The returned payload is byte-identical
    either way.
    """
    job = SweepJob(**config)
    store = None
    if job_fn is None:
        from ..experiments.runner import shared_store

        store = shared_store(dict(
            n_procs=job.procs,
            miss_penalty=job.penalty,
            preset=job.preset,
            cache_dir=cache_dir,
        ), metrics=metrics)
        job_fn = partial(run_sweep_job, store=store)
    if trace_info is None:
        return job_fn(job)
    trace_id = trace_info["trace_id"]
    label = job.label()
    process = f"worker-{os.getpid()}"
    run_id = os.urandom(4).hex()
    t_run = time.time()
    # Warm the trace explicitly so its cost appears as its own nested
    # span; run_sweep_job re-fetches it from the (now warm) store.
    if store is not None:
        (store.get_cosim if job.kind == "cosim" else store.get)(job.app)
    t_sim = time.time()
    result = job_fn(job)
    t_end = time.time()
    spans = [
        Span(
            trace_id, run_id, trace_info.get("parent_id"),
            f"run {label}", process, "main", t_run, t_end,
            args={"pid": os.getpid(), "label": label},
        ),
        Span(
            trace_id, os.urandom(4).hex(), run_id,
            "trace", process, "main", t_run, t_sim,
        ),
        Span(
            trace_id, os.urandom(4).hex(), run_id,
            "simulate", process, "main", t_sim, t_end,
        ),
    ]
    span_dir = trace_info.get("span_dir")
    if span_dir:
        write_spans(
            Path(span_dir) / f"{trace_id}-{os.getpid()}.jsonl", spans,
        )
    return result


@dataclass
class JobRecord:
    """Persisted per-job state for status/results reporting.

    The three wall-clock timestamps give real queue latency per job:
    ``queued_at`` is set when the batch (or daemon) accepts the job,
    ``started_at`` when a worker first begins executing it, and
    ``finished_at`` when it reaches a terminal state.  Store-served
    jobs start and finish at acceptance.
    """

    key: str
    label: str
    config: dict
    state: str = STATE_PENDING
    attempts: int = 0
    source: str | None = None  # "store"/"cache" (dedup hit), "computed"
    history: list = field(default_factory=list)
    queued_at: float | None = None
    started_at: float | None = None
    finished_at: float | None = None

    @property
    def queue_latency(self) -> float | None:
        """Seconds spent waiting between acceptance and first start."""
        if self.queued_at is None or self.started_at is None:
            return None
        return max(0.0, self.started_at - self.queued_at)

    @property
    def run_seconds(self) -> float | None:
        if self.started_at is None or self.finished_at is None:
            return None
        return max(0.0, self.finished_at - self.started_at)

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "label": self.label,
            "config": self.config,
            "state": self.state,
            "attempts": self.attempts,
            "source": self.source,
            "history": list(self.history),
            "queued_at": self.queued_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }


def sweep_records(
    store, sweep: list[SweepJob], queued_at: float,
) -> list[JobRecord]:
    """One pending record per sub-run, keyed by ``store``."""
    return [
        JobRecord(
            key=store.key(job.config()), label=job.label(),
            config=job.config(), queued_at=queued_at,
        )
        for job in sweep
    ]


@dataclass
class SweepCore:
    """Runs sweeps against one result store (see module docstring).

    Misses run on ``pool`` or, without one, one at a time in the
    calling thread; ``inline_single`` also keeps a lone miss in-thread.
    ``job_fn`` (``SweepJob -> result``; module-level, so a pool can
    pickle it) replaces the simulation.  ``lookup(key)`` is the dedup
    probe (default: the store), ``on_computed(key, payload)`` sees every
    stored payload, and ``emit(span)`` takes the spans, which appear
    under ``process``.
    """

    store: ResultStore
    process: str
    pool: SupervisedPool | None = None
    inline_single: bool = False
    job_fn: Callable | None = None
    cache_dir: str | None = None
    metrics: MetricsRegistry | None = None
    span_dir: Path | str | None = None
    lookup: Callable[[str], bytes | None] | None = None
    on_computed: Callable[[str, bytes], None] | None = None
    emit: Callable[[Span], None] | None = None
    _draining: threading.Event = field(
        default_factory=threading.Event, init=False, repr=False,
    )

    def drain(self) -> None:
        """Start no further in-thread sub-run; the rest are cancelled."""
        self._draining.set()

    def interrupt(self) -> None:
        """Unwind a pooled run now, cancelling its live sub-runs."""
        if self.pool is not None:
            self.pool.interrupt()

    def run(
        self, sweep: list[SweepJob], records: list[JobRecord], *,
        trace: TraceContext | None = None, on_change=None,
    ) -> bool:
        """Serve, run and store every sub-run of ``sweep`` into its
        ``records``; returns whether the run was interrupted.

        Job-level failures are recorded, never raised.  ``on_change()``
        follows the dedup pre-pass and every record change.  With a
        ``trace`` each record gets a ``job <label>`` span under
        ``trace.span_id`` with an ``attempt N`` child per attempt; pooled
        workers parent their ``run`` spans on the job span, whose id is
        minted up front so no cross-process coordination is needed.
        """
        trace_id = trace.trace_id if trace is not None else None
        changed = on_change or (lambda: None)
        lookup = self.lookup or self.store.get_bytes
        span_ids = (
            {r.key: os.urandom(4).hex() for r in records} if trace_id else {}
        )
        misses: list[tuple[JobRecord, SweepJob]] = []
        for record, job in zip(records, sweep):
            if lookup(record.key) is not None:
                record.state = STATE_DONE
                record.source = "store"
                record.started_at = record.finished_at = time.time()
            else:
                misses.append((record, job))
        changed()

        inline = self.pool is None or (
            self.inline_single and len(misses) == 1
        )
        fn = (
            partial(_sweep_worker, metrics=self.metrics) if inline
            else _sweep_worker
        )
        pool_jobs = []
        for i, (record, job) in enumerate(misses):
            trace_info = None
            if trace_id and not inline:
                trace_info = {
                    "trace_id": trace_id,
                    "parent_id": span_ids[record.key],
                    "span_dir": str(self.span_dir),
                }
            pool_jobs.append(Job(
                index=i, fn=fn, label=record.label,
                args=(vars(job), self.cache_dir, trace_info, self.job_fn),
            ))
        attempt_open: dict[tuple[int, int], float] = {}

        def on_update(job: Job) -> None:
            record = misses[job.index][0]
            now = time.time()
            record.state = job.state
            record.attempts = job.attempts
            record.history = [h.to_dict() for h in job.history]
            if job.state == STATE_RUNNING:
                if record.started_at is None:
                    record.started_at = now
                attempt_open.setdefault((job.index, job.attempts), now)
            if job.state not in LIVE_STATES:
                record.finished_at = now
            if trace_id and job.state != STATE_RUNNING:
                opened = attempt_open.pop((job.index, job.attempts), None)
                if opened is not None:
                    self.emit(Span(
                        trace_id, os.urandom(4).hex(),
                        span_ids[record.key],
                        f"attempt {job.attempts}", self.process,
                        record.label, opened, now,
                        args={"state": job.state, "label": record.label},
                    ))
            if job.state == STATE_DONE and job.payload is not None:
                record.source = "computed"
                self.store.put_bytes(
                    record.key, job.payload,
                    meta={"label": record.label, "config": record.config},
                )
                if self.on_computed is not None:
                    self.on_computed(record.key, job.payload)
            changed()

        interrupted = False
        if inline:
            interrupted = self._run_inline(pool_jobs, on_update)
        elif pool_jobs:
            try:
                self.pool.run(pool_jobs, on_update=on_update)
            except BatchInterrupted:
                interrupted = True
        if trace_id:
            # Every record is terminal now; one cancelled before it
            # started gets a zero-length span.
            for record in records:
                self.emit(Span(
                    trace_id, span_ids[record.key], trace.span_id,
                    f"job {record.label}", self.process, record.label,
                    record.started_at or record.finished_at,
                    record.finished_at,
                    args={
                        "state": record.state, "source": record.source,
                        "attempts": record.attempts,
                    },
                ))
        return interrupted

    def _run_inline(self, jobs: list[Job], notify) -> bool:
        """One attempt per job in this thread, through the pool's state
        transitions; after :meth:`drain` the rest are cancelled."""
        for i, job in enumerate(jobs):
            if self._draining.is_set():
                for rest in jobs[i:]:
                    rest.state = STATE_CANCELLED
                    notify(rest)
                return True
            job.attempts = 1
            job.state = STATE_RUNNING
            notify(job)
            try:
                job.payload = pickle.dumps(
                    job.fn(*job.args), pickle.HIGHEST_PROTOCOL
                )
            except Exception as exc:  # noqa: BLE001 — recorded, not fatal
                job.history.append(AttemptFailure(
                    1, REASON_ERROR, f"{type(exc).__name__}: {exc}", 0.0,
                ))
                job.state = STATE_FAILED
            else:
                job.state = STATE_DONE
            notify(job)
        return False


@dataclass
class BatchReport:
    """Outcome of one batch: partial results + structured failures."""

    batch_id: str
    out_dir: Path
    store_dir: Path
    records: list[JobRecord]
    interrupted: bool = False
    counters: dict = field(default_factory=dict)

    @property
    def completed(self) -> list[JobRecord]:
        return [r for r in self.records if r.state == STATE_DONE]

    @property
    def failed(self) -> list[JobRecord]:
        return [r for r in self.records if r.state == STATE_FAILED]

    @property
    def cancelled(self) -> list[JobRecord]:
        return [r for r in self.records if r.state == STATE_CANCELLED]

    @property
    def partial(self) -> bool:
        return bool(self.failed or self.cancelled or self.interrupted)

    def failure_report(self) -> dict:
        """The structured failure report embedded in state.json."""
        return {
            "failed": [r.to_dict() for r in self.failed],
            "cancelled": [r.label for r in self.cancelled],
            "interrupted": self.interrupted,
            "counters": self.counters,
        }

    def format_summary(self) -> str:
        total = len(self.records)
        done = len(self.completed)
        dedup = sum(1 for r in self.records if r.source == "store")
        lines = [
            f"batch {self.batch_id}: {done}/{total} jobs done"
            f" ({dedup} from result store), "
            f"{len(self.failed)} failed, {len(self.cancelled)} cancelled"
        ]
        for name in ("retries", "timeouts", "crashes", "corrupt_payloads",
                     "worker_restarts", "quarantined"):
            value = self.counters.get(f"service.{name}", 0)
            if value:
                lines.append(f"  {name}: {value}")
        for rec in self.failed:
            steps = "; ".join(
                f"#{h['attempt']} {h['reason']}: {h['detail']}"
                for h in rec.history
            )
            lines.append(
                f"  FAILED {rec.label} after {rec.attempts} attempts"
                f" ({steps})"
            )
        if self.interrupted:
            lines.append("  interrupted before completion")
        lines.append(f"  state: {self.out_dir / 'state.json'}")
        return "\n".join(lines)


def _batch_id(keys: list[str]) -> str:
    material = "|".join(sorted(keys))
    return hashlib.sha256(material.encode()).hexdigest()[:12]


def run_batch(
    sweep: list[SweepJob],
    *,
    jobs: int = 1,
    cache_dir: Path | str | None = None,
    out_dir: Path | str = DEFAULT_BATCH_DIR,
    store_dir: Path | str | None = None,
    timeout: float | None = None,
    max_attempts: int = 3,
    seed: int = 0,
    chaos=None,
    metrics: MetricsRegistry | None = None,
    log=None,
    trace=None,
    command: str = "",
) -> BatchReport:
    """Run a sweep resiliently; always returns a report, never raises
    for job-level failures.  Raises :class:`BatchInterrupted` only on
    SIGINT/SIGTERM — after persisting the partial state.

    ``log`` is an optional :class:`~repro.obs.log.JsonLogger`;
    ``trace`` an optional :class:`~repro.obs.context.TraceContext`.
    With a trace context, the batch records a root span, per-job spans
    and worker-side run/engine spans, and writes the stitched Perfetto
    timeline to ``<batch>/trace.json``.
    """
    from ..obs.log import NULL_LOG
    from ..obs.spans import read_spans, stitch

    m = metrics if metrics is not None else MetricsRegistry(enabled=True)
    log = log if log is not None else NULL_LOG
    out_root = Path(out_dir)
    store = ResultStore(
        Path(store_dir) if store_dir else out_root / "store", metrics=m
    )
    t_start = time.time()
    records = sweep_records(store, sweep, t_start)
    batch_dir = out_root / _batch_id([r.key for r in records])
    state_path = batch_dir / "state.json"
    span_dir = batch_dir / "spans"
    if trace is not None:
        log = log.bind(trace=trace.trace_id)
    log = log.bind(batch=batch_dir.name)
    log.info(
        "batch.start", n_jobs=len(sweep), workers=jobs,
        max_attempts=max_attempts, chaos=chaos is not None,
    )
    batch_spans: list[Span] = []
    pool = SupervisedPool(
        workers=jobs,
        timeout=timeout,
        max_attempts=max_attempts,
        seed=seed,
        chaos=chaos,
        metrics=m,
        log=log,
        install_signal_handlers=True,
    )
    core = SweepCore(
        store,
        process="batch",
        pool=pool,
        cache_dir=str(cache_dir) if cache_dir else None,
        span_dir=span_dir,
        emit=batch_spans.append,
    )

    def persist(extra: dict | None = None) -> None:
        """Atomic write, so `status` never reads a torn state file."""
        state = {
            "schema": BATCH_STATE_SCHEMA,
            "batch_id": batch_dir.name,
            "command": command,
            "git_rev": store.git_rev,
            "store_dir": str(store.root),
            "jobs": [r.to_dict() for r in records],
        }
        if extra:
            state.update(extra)
        batch_dir.mkdir(parents=True, exist_ok=True)
        tmp = state_path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(state, indent=2) + "\n")
        os.replace(tmp, state_path)

    with pool:
        interrupted = core.run(
            sweep, records, trace=trace, on_change=persist
        )

    counters = {
        name: inst.value
        for name, inst in (
            (n, m.get(n)) for n in (
                "service.jobs_total", "service.jobs_done",
                "service.retries", "service.timeouts", "service.crashes",
                "service.corrupt_payloads", "service.worker_restarts",
                "service.quarantined", "service.store_hits",
                "service.store_misses", "service.store_corrupt",
            )
        )
        if inst is not None
    }
    report = BatchReport(
        batch_id=batch_dir.name,
        out_dir=batch_dir,
        store_dir=store.root,
        records=records,
        interrupted=interrupted,
        counters=counters,
    )
    persist(extra={"failure_report": report.failure_report()})

    outputs = {"state": state_path}
    t_end = time.time()
    if trace is not None:
        batch_spans.append(Span(
            trace.trace_id, trace.span_id, None,
            f"batch {batch_dir.name}", "batch", "main", t_start, t_end,
            args={"n_jobs": len(records)},
        ))
        all_spans = batch_spans + read_spans(span_dir, trace.trace_id)
        write_spans(span_dir / "supervisor.jsonl", batch_spans)
        trace_doc = stitch(
            all_spans, other_data={"batch_id": batch_dir.name},
        )
        trace_path = batch_dir / "trace.json"
        trace_path.write_text(
            json.dumps(trace_doc, sort_keys=True, separators=(",", ":"))
            + "\n"
        )
        outputs["trace"] = trace_path
        log.info(
            "batch.trace_written", path=str(trace_path),
            spans=len(all_spans),
        )

    manifest = build_manifest(
        command=command or "repro batch",
        config={
            "jobs": jobs,
            "timeout": timeout,
            "max_attempts": max_attempts,
            "seed": seed,
            "n_sweep_jobs": len(sweep),
            "networks": sorted({job.network for job in sweep}),
        },
        timings={"total": t_end - t_start},
        outputs=outputs,
    )
    write_manifest(batch_dir / "manifest.json", manifest)
    log.info(
        "batch.done", done=len(report.completed),
        failed=len(report.failed), cancelled=len(report.cancelled),
        interrupted=interrupted, seconds=round(t_end - t_start, 3),
    )
    if interrupted:
        raise BatchInterrupted(
            f"batch {report.batch_id} interrupted; partial state at "
            f"{state_path}"
        )
    return report


# -- status / results inspection ---------------------------------------


def find_batch(
    out_dir: Path | str = DEFAULT_BATCH_DIR, batch_id: str | None = None
) -> Path:
    """The state file for ``batch_id``, or the most recent batch."""
    root = Path(out_dir)
    if batch_id is not None:
        path = root / batch_id / "state.json"
        if not path.is_file():
            raise FileNotFoundError(f"no batch state at {path}")
        return path
    candidates = sorted(
        root.glob("*/state.json"), key=lambda p: p.stat().st_mtime
    )
    if not candidates:
        raise FileNotFoundError(f"no batches under {root}")
    return candidates[-1]


def load_state(state_path: Path) -> dict:
    state = json.loads(Path(state_path).read_text())
    if state.get("schema") != BATCH_STATE_SCHEMA:
        raise ValueError(
            f"unrecognised batch state schema {state.get('schema')!r}"
        )
    return state


def format_status(state: dict) -> str:
    jobs = state.get("jobs", [])
    by_state: dict[str, int] = {}
    for job in jobs:
        by_state[job["state"]] = by_state.get(job["state"], 0) + 1
    counts = ", ".join(
        f"{state_name}={n}" for state_name, n in sorted(by_state.items())
    )
    lines = [
        f"batch {state.get('batch_id')} — {len(jobs)} jobs ({counts})"
    ]
    for job in jobs:
        marker = {STATE_DONE: "ok", STATE_FAILED: "FAILED"}.get(
            job["state"], job["state"]
        )
        src = f" [{job['source']}]" if job.get("source") else ""
        queued = job.get("queued_at")
        started = job.get("started_at")
        finished = job.get("finished_at")
        timing = ""
        if queued is not None and started is not None:
            timing = f" (wait {max(0.0, started - queued):.2f}s"
            if finished is not None:
                timing += f", run {max(0.0, finished - started):.2f}s"
            timing += ")"
        lines.append(
            f"  {job['label']:<40} {marker}{src}{timing}"
            + (f" (attempts {job['attempts']})" if job["attempts"] > 1
               else "")
        )
        for h in job.get("history", []):
            lines.append(
                f"      attempt {h['attempt']}: {h['reason']}"
                f" — {h['detail']}"
            )
    report = state.get("failure_report")
    if report and report.get("interrupted"):
        lines.append("  batch was interrupted before completion")
    return "\n".join(lines)


def format_results(state: dict) -> str:
    """Render completed results (loaded from the content store)."""
    from ..experiments.report import format_table  # lazy: avoid cycle

    store = ResultStore(state["store_dir"])
    rows = []
    missing = 0
    for job in state.get("jobs", []):
        if job["state"] != STATE_DONE:
            continue
        breakdown = store.get(job["key"])
        if breakdown is None:
            missing += 1
            continue
        rows.append([
            job["label"],
            breakdown.total,
            breakdown.busy,
            breakdown.sync,
            breakdown.read,
            breakdown.write,
            job["key"][:12],
        ])
    table = format_table(
        ["job", "cycles", "busy", "sync", "read", "write", "key"],
        rows,
        title=f"Batch {state.get('batch_id')} — completed results",
    )
    if missing:
        table += (
            f"\n({missing} result(s) missing from the store — "
            f"evicted or corrupt; re-run the batch to regenerate)"
        )
    return table
