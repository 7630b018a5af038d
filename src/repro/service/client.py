"""HTTP client and multi-endpoint shard dispatcher for the daemon.

:class:`DaemonClient` is a stdlib (``http.client``) JSON client for
one daemon endpoint — submit, wait, fetch results — used by the
``submit``, ``watch`` and ``top`` CLI subcommands.  The daemon holds
a status call until the job is terminal or :data:`HOLD_S` seconds
pass, so a waiter hears of the finish when it happens and never
sleeps.  Each calling thread keeps one persistent HTTP/1.1 connection
and reuses it for every call.  A reused connection the daemon has
meanwhile closed (its idle timeout, see :mod:`repro.service.http`) is
detected before any response byte arrives, and the request is sent
once more on a fresh connection; nothing else is ever retried.
``close()`` (or a ``with`` block) releases the connections.

:func:`dispatch` is the scale-out path: it expands a request grid
*locally*, partitions the deduplicated jobs with the deterministic
:func:`repro.service.jobs.shard`, submits one explicit-jobs shard per
daemon endpoint, waits for all of them, and merges the per-shard
results back into grid order.  Because sharding is contiguous and
order-preserving, the merged rows are identical to what a single
endpoint (or a local batch) would have produced for the same grid.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import asdict, dataclass, field

from ..obs.context import HEADER as TRACE_HEADER
from .errors import ServiceError
from .jobs import shard, sweep_from_request
from .queue import JOB_DONE, TERMINAL_STATES

#: Seconds one status call asks the daemon to hold: half the default
#: socket timeout, and under the daemon's cap (``http.MAX_HOLD_S``).
HOLD_S = 15.0


class ClientError(ServiceError):
    """An HTTP request to a daemon failed.

    ``status`` is the HTTP status (0 for transport errors) and
    ``retry_after`` carries the backpressure hint of a 429, so callers
    can implement polite retry without parsing messages.
    """

    def __init__(
        self,
        message: str,
        *,
        status: int = 0,
        body: dict | None = None,
    ) -> None:
        self.status = status
        self.body = body or {}
        self.retry_after = self.body.get("retry_after")
        super().__init__(message)


class DaemonClient:
    """JSON-over-HTTP client for one daemon endpoint.

    Safe to share between threads: each thread gets its own persistent
    connection.
    """

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        scheme, sep, rest = self.base_url.partition("://")
        if not sep or scheme not in ("http", "https"):
            raise ValueError(f"unsupported endpoint URL {base_url!r}")
        self._netloc, slash, prefix = rest.partition("/")
        self._prefix = slash + prefix
        self._conn_class = (
            http.client.HTTPSConnection if scheme == "https"
            else http.client.HTTPConnection
        )
        self._local = threading.local()
        self._lock = threading.Lock()
        self._conns: list[http.client.HTTPConnection] = []

    def __enter__(self) -> "DaemonClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Close every thread's connection; a later call reconnects."""
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            conn.close()

    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._conn_class(self._netloc, timeout=self.timeout)
            self._local.conn = conn
            with self._lock:
                self._conns.append(conn)
        return conn

    @staticmethod
    def _exchange(conn, method, url, body, headers):
        """Send one request and return the response with its head read.

        Only a *reused* connection found closed before any response
        byte arrived (reset on send, or end of stream where the status
        line belongs) is retried, once, on a fresh connection: the
        daemon never read that request, so even a POST goes out once.
        """
        reused = conn.sock is not None
        try:
            conn.request(method, url, body=body, headers=headers)
            return conn.getresponse()
        except (ConnectionResetError, BrokenPipeError):
            # http.client.RemoteDisconnected is a ConnectionResetError.
            if not reused:
                raise
            conn.close()
        conn.request(method, url, body=body, headers=headers)
        return conn.getresponse()

    def _request(
        self, method: str, path: str, payload=None, headers=None,
    ) -> dict:
        body = None
        headers = {"Accept": "application/json", **(headers or {})}
        if payload is not None:
            body = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        conn = self._connection()
        try:
            response = self._exchange(
                conn, method, self._prefix + path, body, headers
            )
            data = response.read()
        except (http.client.HTTPException, OSError) as exc:
            conn.close()
            raise ClientError(
                f"{method} {self.base_url}{path} unreachable: {exc}"
            ) from exc
        if not 200 <= response.status < 300:
            try:
                error = json.loads(data or b"{}")
            except json.JSONDecodeError:
                error = {}
            raise ClientError(
                f"{method} {path} -> {response.status}: "
                f"{error.get('error', response.reason)}",
                status=response.status, body=error,
            )
        return json.loads(data or b"{}")

    # -- API -----------------------------------------------------------

    def submit(self, payload: dict, trace=None) -> dict:
        """POST /v1/jobs; returns ``{"id", "state", "deduped", ...}``.

        ``trace`` (a :class:`~repro.obs.context.TraceContext`) rides
        along as the ``X-Repro-Trace`` header, enrolling the daemon's
        spans for this submission in the client's distributed trace.
        """
        headers = (
            {TRACE_HEADER: trace.header()} if trace is not None else None
        )
        return self._request("POST", "/v1/jobs", payload, headers=headers)

    def job(self, job_id: str, wait: float = HOLD_S) -> dict:
        """Job state once terminal or after ``wait`` seconds (at most
        half the socket timeout); ``wait=0`` is a snapshot."""
        wait = min(wait, self.timeout / 2)
        query = f"?wait={wait:.3f}" if wait > 0 else ""
        return self._request("GET", f"/v1/jobs/{job_id}{query}")

    def results(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/results/{job_id}")

    def trace_spans(self, trace_id: str) -> list:
        """GET /v1/trace/{id}; the daemon's spans as
        :class:`~repro.obs.spans.Span` objects."""
        from ..obs.spans import Span

        body = self._request("GET", f"/v1/trace/{trace_id}")
        return [Span.from_dict(item) for item in body.get("spans", [])]

    def healthz(self) -> dict:
        return self._request("GET", "/v1/healthz")

    def metrics(self) -> dict:
        return self._request("GET", "/v1/metrics")

    def wait(
        self,
        job_id: str,
        timeout: float | None = None,
        interval: float = HOLD_S,
        on_poll=None,
    ) -> dict:
        """Hold status calls until the submission reaches a terminal
        state: each holds at most ``interval`` seconds (the longest gap
        between ``on_poll`` calls), the last only until ``timeout``."""
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        hold = interval
        while True:
            if deadline is not None:
                hold = min(interval, max(0.0, deadline - time.monotonic()))
            job = self.job(job_id, wait=hold)
            if on_poll is not None:
                on_poll(job)
            if job.get("state") in TERMINAL_STATES:
                return job
            if deadline is not None and time.monotonic() >= deadline:
                raise ClientError(
                    f"timed out waiting for job {job_id} "
                    f"(last state {job.get('state')!r})",
                    body=job,
                )


@dataclass
class DispatchReport:
    """Outcome of one sharded dispatch across several endpoints."""

    jobs: list                        # expanded SweepJobs, grid order
    shards: list[dict] = field(default_factory=list)
    results: list[dict] = field(default_factory=list)  # merged rows
    trace_id: str | None = None
    spans: list = field(default_factory=list)  # merged Span objects

    @property
    def ok(self) -> bool:
        return all(s["state"] == JOB_DONE for s in self.shards)

    def format_summary(self) -> str:
        lines = [
            f"dispatched {len(self.jobs)} jobs across "
            f"{len(self.shards)} endpoint(s)"
        ]
        for entry in self.shards:
            lines.append(
                f"  {entry['endpoint']:<28} {entry['id']} "
                f"{entry['state']} ({entry['n_subruns']} sub-runs)"
            )
        return "\n".join(lines)


def dispatch(
    endpoints: list[str],
    payload: dict,
    *,
    timeout: float | None = None,
    trace=None,
) -> DispatchReport:
    """Shard a grid request across daemon endpoints and merge results.

    The grid is expanded and deduplicated locally, partitioned with the
    deterministic contiguous :func:`~repro.service.jobs.shard`, and
    each shard is submitted to its endpoint as an explicit job list.
    All shards are submitted before any wait, so the daemons overlap.

    ``trace`` (a :class:`~repro.obs.context.TraceContext`) is sent with
    *every* shard submission, so one trace id spans the whole fan-out;
    after all shards finish, each endpoint's spans are fetched and
    merged into ``report.spans`` ready for
    :func:`~repro.obs.spans.stitch`.
    """
    if not endpoints:
        raise ValueError("dispatch needs at least one endpoint")
    jobs = sweep_from_request(payload)
    priority = payload.get("priority", 0)
    parts = shard(jobs, len(endpoints))
    report = DispatchReport(
        jobs=jobs,
        trace_id=trace.trace_id if trace is not None else None,
    )

    clients = [DaemonClient(url) for url in endpoints]
    submissions: list[tuple[DaemonClient, str, str]] = []
    by_label: dict[str, dict] = {}
    try:
        for client, part in zip(clients, parts):
            if not part:
                continue
            shard_payload = {
                "jobs": [asdict(job) for job in part],
                "priority": priority,
            }
            if trace is not None:
                accepted = client.submit(shard_payload, trace=trace)
            else:
                accepted = client.submit(shard_payload)
            submissions.append((client, client.base_url, accepted["id"]))

        for client, endpoint, job_id in submissions:
            final = client.wait(job_id, timeout=timeout)
            report.shards.append({
                "endpoint": endpoint,
                "id": job_id,
                "state": final.get("state"),
                "n_subruns": final.get("n_subruns"),
                "queue_latency": final.get("queue_latency"),
            })
            for row in client.results(job_id).get("results", []):
                by_label[row["label"]] = row

        if trace is not None:
            for client, endpoint, _ in submissions:
                try:
                    report.spans.extend(client.trace_spans(trace.trace_id))
                except ClientError:
                    pass  # a dead endpoint loses its spans, not the run
    finally:
        for client in clients:
            client.close()

    # Merge back into grid order.  Labels are unique across the
    # deduplicated expansion and shards are disjoint, so this is exact.
    report.results = [
        by_label[job.label()] for job in jobs if job.label() in by_label
    ]
    return report
