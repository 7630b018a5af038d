"""Resilient batch-simulation service layer.

The layer between "one CLI invocation" and "sustained sweep traffic":

* :class:`SupervisedPool` / :func:`run_jobs` — process fan-out with
  per-job wall-clock timeouts, automatic worker restart, seeded
  exponential backoff + jitter retries and a quarantine list, on one
  worker fleet that runs reuse until :meth:`SupervisedPool.close` (the
  drop-in replacement for the repo's former bare
  ``ProcessPoolExecutor`` paths);
* :mod:`~repro.service.jobs` — config-grid decomposition into
  deduplicated, shardable :class:`SweepJob`\\ s;
* :class:`ResultStore` — content-addressed results keyed by (canonical
  config hash, trace schema version, git revision) with embedded
  checksums and regenerate-on-corruption loads;
* :mod:`~repro.service.chaos` — real fault injection (SIGKILL, hangs,
  payload corruption, transient failures) used by the tests and the CI
  smoke to prove the supervisor recovers;
* :class:`~repro.service.batch.SweepCore` — the one lifecycle of a
  sweep: job records, dedup against the store, pooled or in-thread
  execution, stored payloads and traced spans; both front ends below
  run through it;
* :func:`run_batch` — the one-shot front end, with graceful
  degradation: partial results plus a structured failure report,
  surfaced via ``python -m repro batch``/``status``/``results``;
* :class:`Daemon` + :mod:`~repro.service.http` — the persistent
  simulation-as-a-service front end: warm pool and caches behind a
  bounded priority :class:`JobQueue`, exposed over a stdlib JSON/HTTP
  API (``python -m repro serve``) with a :class:`DaemonClient` and a
  multi-endpoint shard :func:`dispatch` on the client side.
"""

from .chaos import (
    ALWAYS,
    ChaosSpec,
    ChaosTransientError,
    echo_job,
    parse_chaos_arg,
    sleep_job,
    square_job,
)
from .errors import (
    AttemptFailure,
    BatchInterrupted,
    JobFailure,
    JobsFailedError,
    ResultStoreError,
    ServiceError,
)
from .batch import (
    BATCH_STATE_SCHEMA,
    BatchReport,
    DEFAULT_BATCH_DIR,
    JobRecord,
    find_batch,
    format_results,
    format_status,
    load_state,
    run_batch,
)
from .batch import run_sweep_job
from .client import ClientError, DaemonClient, DispatchReport, dispatch
from .daemon import DEFAULT_DAEMON_DIR, Daemon, serve
from .http import DaemonHTTPServer, make_server
from .jobs import (
    KINDS,
    MODELS,
    SweepJob,
    expand_grid,
    shard,
    sweep_from_request,
)
from .pool import Job, SupervisedPool, run_jobs
from .queue import (
    JobQueue,
    QueueClosed,
    QueuedJob,
    QueueFull,
    submission_id,
)
from .store import RESULT_STORE_SCHEMA, ResultStore, result_key

__all__ = [
    "ALWAYS",
    "AttemptFailure",
    "BATCH_STATE_SCHEMA",
    "BatchInterrupted",
    "BatchReport",
    "ChaosSpec",
    "ChaosTransientError",
    "ClientError",
    "DEFAULT_BATCH_DIR",
    "DEFAULT_DAEMON_DIR",
    "Daemon",
    "DaemonClient",
    "DaemonHTTPServer",
    "DispatchReport",
    "Job",
    "JobFailure",
    "JobQueue",
    "JobRecord",
    "JobsFailedError",
    "KINDS",
    "MODELS",
    "QueueClosed",
    "QueueFull",
    "QueuedJob",
    "RESULT_STORE_SCHEMA",
    "ResultStore",
    "ResultStoreError",
    "ServiceError",
    "SupervisedPool",
    "SweepJob",
    "dispatch",
    "echo_job",
    "expand_grid",
    "find_batch",
    "format_results",
    "format_status",
    "load_state",
    "make_server",
    "parse_chaos_arg",
    "result_key",
    "run_batch",
    "run_jobs",
    "run_sweep_job",
    "serve",
    "shard",
    "sleep_job",
    "square_job",
    "submission_id",
    "sweep_from_request",
]
