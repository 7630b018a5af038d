"""Stdlib HTTP front end for the simulation daemon.

A deliberately small JSON-over-HTTP surface on
``http.server.ThreadingHTTPServer`` — no third-party dependencies —
that adapts requests onto a :class:`~repro.service.daemon.Daemon`:

====== ===================== ==========================================
method path                  meaning
====== ===================== ==========================================
POST   ``/v1/jobs``          submit a sweep (grid or explicit-jobs
                             JSON); 202 accepted, 200 duplicate,
                             400 bad grid, 429 queue full (with
                             ``Retry-After``), 503 draining
GET    ``/v1/jobs/{id}``     submission state: per-sub-run states,
                             queued/started/finished timestamps,
                             queue latency; ``?wait=S`` holds the
                             answer until the submission is terminal
                             or S seconds pass (S capped at
                             :data:`MAX_HOLD_S`; 400 if not a number
                             >= 0)
GET    ``/v1/results/{id}``  completed sub-run breakdowns
GET    ``/v1/trace/{id}``    every span this daemon holds for one
                             distributed trace id (JSON span list)
GET    ``/v1/healthz``       liveness + queue depth + job counts
GET    ``/v1/metrics``       the daemon's metrics-registry snapshot;
                             ``?format=prom`` serves Prometheus text
                             exposition format instead
====== ===================== ==========================================

An ``X-Repro-Trace: <trace_id>-<span_id>`` header on ``POST /v1/jobs``
(minted client-side via :class:`~repro.obs.context.TraceContext`)
enrols the submission in a distributed trace: the daemon's queue-wait,
sweep, attempt and worker spans are recorded under that trace id and
served back by ``GET /v1/trace/{id}``.

Handler threads only ever touch the daemon's thread-safe surface
(queue submit/lookup and the result store), so a slow simulation never
blocks health checks or status calls.  A held status call parks its
handler thread on the queue's condition, which every terminal
transition notifies, so the answer leaves when the job finishes;
``daemon.http_hold_seconds`` records how long each hold lasted.

Connections persist (HTTP/1.1 keep-alive): one handler thread serves
every request a client sends on its connection, and closes it after
:data:`IDLE_TIMEOUT_S` seconds without one.  A response is buffered and
leaves in one send when it fits the write buffer.  Nagle's algorithm
is off on accepted sockets: a response sent in more than one write
(the head, then a body too big for the buffer) would otherwise wait
for the client's delayed ACK of the first (tens of milliseconds) on a
reused connection.  ``daemon.http_connections`` counts accepted
connections, ``daemon.http_requests`` answered requests.
"""

from __future__ import annotations

import json
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..obs.context import HEADER as TRACE_HEADER
from ..obs.context import TraceContext
from ..obs.prom import PROM_CONTENT_TYPE, render_prometheus
from .queue import QueueClosed, QueueFull

#: Largest accepted request body (a grid request is tiny; an explicit
#: job list for a big shard still fits comfortably).
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Seconds a keep-alive connection may sit idle before its handler
#: thread closes it (read when the connection is accepted).
IDLE_TIMEOUT_S = 30.0

#: Longest hold of ``GET /v1/jobs/{id}?wait=S``: below
#: :data:`IDLE_TIMEOUT_S` and below the client's 30 s socket timeout.
MAX_HOLD_S = 20.0


class DaemonHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to one daemon instance."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, daemon) -> None:
        super().__init__(address, _Handler)
        self.sim_daemon = daemon


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-sim-daemon/1"
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    # Buffer each response (the stdlib flushes after every request), so
    # a small one leaves in one send.  Written unbuffered, the body
    # waits for the GIL, which an in-thread simulation takes as soon as
    # the send of the head releases it.
    wbufsize = -1

    # -- plumbing ------------------------------------------------------

    def setup(self) -> None:
        self.timeout = IDLE_TIMEOUT_S
        super().setup()
        self.server.sim_daemon.metrics.counter(
            "daemon.http_connections"
        ).inc()

    def log_request(self, code="-", size="-") -> None:
        """Count each answered request instead of logging it."""
        self.server.sim_daemon.metrics.counter("daemon.http_requests").inc()

    def log_message(self, format, *args):  # noqa: A002 — stdlib name
        """Keep stderr quiet (errors, idle-connection timeouts)."""

    def _send_json(
        self, code: int, obj: dict, headers: dict | None = None
    ) -> None:
        body = (json.dumps(obj, indent=2) + "\n").encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> bytes | None:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            self._send_json(413, {"error": "request body too large"})
            return None
        return self.rfile.read(length)

    # -- routes --------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 — stdlib contract
        daemon = self.server.sim_daemon
        if self.path.rstrip("/") != "/v1/jobs":
            self._send_json(404, {"error": f"no such route {self.path}"})
            return
        body = self._read_body()
        if body is None:
            return
        try:
            payload = json.loads(body or b"{}")
        except json.JSONDecodeError as exc:
            self._send_json(400, {"error": f"invalid JSON: {exc}"})
            return
        header = self.headers.get(TRACE_HEADER)
        if header and isinstance(payload, dict):
            try:
                ctx = TraceContext.parse(header)
            except ValueError as exc:
                self._send_json(400, {"error": str(exc)})
                return
            payload.setdefault("trace", ctx.to_dict())
        try:
            job, created = daemon.submit(payload)
        except QueueFull as exc:
            self._send_json(
                429,
                {
                    "error": "queue full",
                    "queue_depth": exc.depth,
                    "retry_after": exc.retry_after,
                },
                headers={"Retry-After": f"{exc.retry_after:.0f}"},
            )
            return
        except QueueClosed:
            self._send_json(503, {"error": "daemon is draining"})
            return
        except ValueError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        self._send_json(
            202 if created else 200,
            {
                "id": job.id,
                "state": job.state,
                "n_subruns": len(job.sweep),
                "deduped": not created,
            },
        )

    def _send_text(self, code: int, text: str, content_type: str) -> None:
        body = text.encode()
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 — stdlib contract
        daemon = self.server.sim_daemon
        parsed = urllib.parse.urlsplit(self.path)
        query = urllib.parse.parse_qs(parsed.query)
        path = parsed.path.rstrip("/")
        if path == "/v1/healthz":
            self._send_json(200, daemon.healthz())
        elif path == "/v1/metrics":
            if query.get("format", [""])[0] == "prom":
                self._send_text(
                    200, render_prometheus(daemon.metrics),
                    PROM_CONTENT_TYPE,
                )
            else:
                self._send_json(200, daemon.metrics.snapshot())
        elif path.startswith("/v1/trace/"):
            trace_id = path.rsplit("/", 1)[1]
            spans = daemon.trace_spans(trace_id)
            self._send_json(200, {
                "trace_id": trace_id,
                "spans": [span.to_dict() for span in spans],
            })
        elif path.startswith("/v1/jobs/"):
            try:
                wait = float(query.get("wait", ["0"])[0])
            except ValueError:
                wait = -1.0
            if not wait >= 0:  # also rejects nan
                self._send_json(
                    400, {"error": "wait must be a number of seconds >= 0"}
                )
                return
            status = daemon.status(
                path.rsplit("/", 1)[1], min(wait, MAX_HOLD_S)
            )
            if status is None:
                self._send_json(404, {"error": "unknown job id"})
            else:
                self._send_json(200, status)
        elif path.startswith("/v1/results/"):
            results = daemon.results(path.rsplit("/", 1)[1])
            if results is None:
                self._send_json(404, {"error": "unknown job id"})
            else:
                self._send_json(200, results)
        else:
            self._send_json(404, {"error": f"no such route {self.path}"})


def make_server(
    daemon, host: str = "127.0.0.1", port: int = 0
) -> DaemonHTTPServer:
    """Bind the daemon's HTTP front end (port 0 = ephemeral)."""
    return DaemonHTTPServer((host, port), daemon)
