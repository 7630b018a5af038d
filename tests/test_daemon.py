"""Tests for the simulation-as-a-service front half.

Queue semantics run against the real thread-safe queue; HTTP tests run
against a real ThreadingHTTPServer on an ephemeral port; the daemon
lifecycle tests use the ``executor`` seam so they stay fast; and the
byte-identity tests run real (tiny) simulations through both the
daemon and the batch path and compare stored payloads.
"""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from contextlib import contextmanager
from functools import partial

import pytest

from repro.cpu.results import ExecutionBreakdown
from repro.service import (
    ClientError,
    Daemon,
    DaemonClient,
    JobQueue,
    QueueClosed,
    QueueFull,
    ResultStore,
    dispatch,
    expand_grid,
    make_server,
    run_batch,
    sleep_job,
    submission_id,
    sweep_from_request,
)
from repro.service.queue import JOB_CANCELLED, JOB_DONE, JOB_FAILED


def _sweep(**overrides):
    grid = dict(
        apps=("lu",), kinds=("base",), models=("RC",), windows=(16,),
        networks=("ideal",), penalties=(50,), procs=4, preset="tiny",
    )
    grid.update(overrides)
    return expand_grid(**grid)


def fake_executor(job):
    """Deterministic stand-in for a real simulation."""
    return ExecutionBreakdown(
        label=job.label(), busy=100, sync=10, read=20, write=30,
        other=5, instructions=100,
    )


class TestSubmissionId:
    def test_same_canonical_sweep_same_id(self):
        a = _sweep(kinds=("base", "ds"))
        b = _sweep(kinds=("ds", "base"))
        assert submission_id(a) == submission_id(b)

    def test_different_grid_different_id(self):
        assert submission_id(_sweep()) != submission_id(
            _sweep(penalties=(100,))
        )


class TestJobQueue:
    def test_priority_first_fifo_within(self):
        q = JobQueue(maxsize=16)
        low, _ = q.submit(_sweep(), priority=5)
        first, _ = q.submit(_sweep(penalties=(25,)), priority=0)
        second, _ = q.submit(_sweep(penalties=(100,)), priority=0)
        order = [q.pop(timeout=0.1).id for _ in range(3)]
        assert order == [first.id, second.id, low.id]

    def test_bounded_depth_rejects_with_hint(self):
        q = JobQueue(maxsize=2)
        q.submit(_sweep(), priority=0)
        q.submit(_sweep(penalties=(25,)), priority=0)
        with pytest.raises(QueueFull) as exc_info:
            q.submit(_sweep(penalties=(100,)), priority=0)
        assert exc_info.value.depth == 2
        assert exc_info.value.retry_after >= 1.0

    def test_retry_after_scales_with_drain_rate(self):
        q = JobQueue(maxsize=4)
        for _ in range(20):
            q.note_duration(10.0)
        assert q.retry_after(4) > q.retry_after(1) >= 1.0

    def test_duplicate_submission_returns_existing(self):
        q = JobQueue(maxsize=4)
        job, created = q.submit(_sweep())
        dup, dup_created = q.submit(_sweep())
        assert created and not dup_created
        assert dup is job
        assert q.depth() == 1

    def test_failed_job_resubmits_fresh(self):
        q = JobQueue(maxsize=4)
        job, _ = q.submit(_sweep())
        q.pop(timeout=0.1)
        job.state = JOB_FAILED
        retry, created = q.submit(_sweep())
        assert created
        assert retry.id == job.id  # same canonical content address

    def test_close_cancels_queued_and_refuses_new(self):
        q = JobQueue(maxsize=4)
        job, _ = q.submit(_sweep())
        cancelled = q.close()
        assert [j.id for j in cancelled] == [job.id]
        assert job.state == JOB_CANCELLED
        with pytest.raises(QueueClosed):
            q.submit(_sweep(penalties=(25,)))
        assert q.pop(timeout=0.1) is None

    def test_job_cancelled_between_pop_and_start_never_runs(self):
        q = JobQueue(maxsize=4)
        job, _ = q.submit(_sweep())
        assert q.pop(timeout=0) is job
        q.close()
        assert not q.start(job, [])
        assert job.state == JOB_CANCELLED
        assert job.started_at is None


class TestSweepFromRequest:
    def test_grid_form_expands_and_dedupes(self):
        jobs = sweep_from_request({
            "apps": ["lu"], "kinds": ["base", "ds"], "windows": [16],
            "procs": 4, "preset": "tiny",
        })
        assert [j.kind for j in jobs] == ["base", "ds"]

    def test_explicit_jobs_form(self):
        jobs = sweep_from_request({
            "jobs": [
                {"app": "lu", "kind": "ds", "window": 16,
                 "procs": 4, "preset": "tiny"},
                {"app": "lu", "kind": "ds", "window": 16,
                 "procs": 4, "preset": "tiny"},  # dup collapses
            ],
        })
        assert len(jobs) == 1

    @pytest.mark.parametrize("payload", [
        "not-a-dict",
        {"bogus_field": 1},
        {"apps": ["no-such-app"]},
        {"jobs": []},
        {"jobs": [{"kind": "ds"}]},                 # missing app
        {"jobs": [{"app": "lu"}], "apps": ["lu"]},  # mixed forms
        {"kinds": ["warp-drive"]},
        {"apps": ["lu"], "engine": "fast"},         # no such knob
        {"jobs": [{"app": "lu", "engine": "fast"}]},
    ])
    def test_malformed_rejected(self, payload):
        with pytest.raises(ValueError):
            sweep_from_request(payload)


@pytest.fixture
def daemon(tmp_path):
    d = Daemon(store_dir=tmp_path / "store", executor=fake_executor)
    d.start()
    yield d
    d.stop()


def _wait_done(daemon, job_id, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = daemon.job(job_id)
        if job.state in (JOB_DONE, JOB_FAILED, JOB_CANCELLED):
            return job
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} still {job.state}")


class TestDaemonLifecycle:
    def test_submit_executes_and_stores(self, daemon):
        job, created = daemon.submit({
            "apps": ["lu"], "kinds": ["base", "ds"], "windows": [16],
            "procs": 4, "preset": "tiny",
        })
        assert created
        final = _wait_done(daemon, job.id)
        assert final.state == JOB_DONE
        assert final.counts() == {"done": 2}
        assert final.queue_latency is not None
        rows = daemon.results(job.id)["results"]
        assert [r["source"] for r in rows] == ["computed", "computed"]
        assert all(r["breakdown"]["total"] == 165 for r in rows)

    def test_resubmit_of_done_job_dedupes(self, daemon):
        payload = {"apps": ["lu"], "kinds": ["base"], "procs": 4,
                   "preset": "tiny"}
        job, _ = daemon.submit(payload)
        _wait_done(daemon, job.id)
        dup, created = daemon.submit(payload)
        assert not created
        assert dup.id == job.id

    def test_overlapping_submission_served_from_result_cache(
        self, daemon
    ):
        first, _ = daemon.submit({"apps": ["lu"], "kinds": ["base"],
                                  "procs": 4, "preset": "tiny"})
        _wait_done(daemon, first.id)
        # A different submission sharing the sub-run: store/cache hit.
        second, created = daemon.submit({
            "apps": ["lu"], "kinds": ["base", "ds"], "windows": [16],
            "procs": 4, "preset": "tiny",
        })
        assert created
        final = _wait_done(daemon, second.id)
        sources = {r.label: r.source for r in final.records}
        assert sources["lu/base/ideal/m50"] == "store"
        assert sources["lu/ds/RC/w16/ideal/m50"] == "computed"

    def test_executor_failure_marks_job_failed(self, tmp_path):
        def boom(job):
            raise RuntimeError("synthetic failure")

        d = Daemon(store_dir=tmp_path / "store", executor=boom)
        d.start()
        try:
            job, _ = d.submit({"apps": ["lu"], "kinds": ["base"],
                               "procs": 4, "preset": "tiny"})
            final = _wait_done(d, job.id)
            assert final.state == JOB_FAILED
            record = final.records[0]
            assert record.state == "failed"
            assert "synthetic failure" in record.history[0]["detail"]
        finally:
            d.stop()

    def test_priority_orders_backlog(self, tmp_path):
        gate = threading.Event()
        ran = []

        def gated(job):
            gate.wait(10.0)
            ran.append(job.label())
            return fake_executor(job)

        d = Daemon(store_dir=tmp_path / "store", executor=gated)
        d.start()
        try:
            blocker, _ = d.submit({"apps": ["lu"], "kinds": ["base"],
                                   "procs": 4, "preset": "tiny"})
            time.sleep(0.1)  # scheduler is now blocked inside it
            low, _ = d.submit({"apps": ["lu"], "penalties": [100],
                               "procs": 4, "preset": "tiny",
                               "priority": 5})
            high, _ = d.submit({"apps": ["lu"], "penalties": [25],
                                "procs": 4, "preset": "tiny",
                                "priority": 0})
            gate.set()
            for job in (blocker, low, high):
                assert _wait_done(d, job.id).state == JOB_DONE
            assert ran.index("lu/ds/RC/w64/ideal/m25") < ran.index(
                "lu/ds/RC/w64/ideal/m100"
            )
        finally:
            d.stop()

    def test_stop_drains_in_flight_and_cancels_rest(self, tmp_path):
        started = threading.Event()
        gate = threading.Event()

        def gated(job):
            started.set()
            gate.wait(10.0)
            return fake_executor(job)

        d = Daemon(store_dir=tmp_path / "store", executor=gated)
        d.start()
        job, _ = d.submit({"apps": ["lu"], "kinds": ["base", "ds"],
                           "models": ["SC", "RC"], "windows": [16],
                           "procs": 4, "preset": "tiny"})
        assert started.wait(5.0)
        stopper = threading.Thread(target=d.stop)
        stopper.start()
        gate.set()  # let the in-flight sub-run finish
        stopper.join(10.0)
        assert not stopper.is_alive()
        final = d.job(job.id)
        counts = final.counts()
        # The sub-run that was executing drained; the rest cancelled.
        assert counts.get("done", 0) >= 1
        assert counts.get("cancelled", 0) >= 1
        assert final.state == JOB_CANCELLED

    def test_stop_interrupts_wedged_pool_within_twice_grace(
        self, tmp_path
    ):
        grace = 1.0
        d = Daemon(store_dir=tmp_path / "store", workers=2, grace=grace,
                   executor=partial(sleep_job, 60.0))
        d.start()
        job, _ = d.submit({"apps": ["lu"], "kinds": ["base", "ds"],
                           "windows": [16], "procs": 4, "preset": "tiny"})
        deadline = time.monotonic() + 10.0
        while not any(r.state == "running" for r in job.records):
            assert time.monotonic() < deadline, "pool never started"
            time.sleep(0.01)
        t0 = time.monotonic()
        d.stop()
        elapsed = time.monotonic() - t0
        # One grace for the drain, one for tearing the wedged fleet down.
        assert elapsed < 2 * grace + 1.0
        assert [r.state for r in job.records] == ["cancelled"] * 2
        assert job.state == JOB_CANCELLED

    def test_sigterm_stops_a_daemon_worker(self, tmp_path):
        """The fleet is forked at the first pooled run, after ``serve``
        has installed its SIGTERM handler; a worker must not keep that
        handler, so SIGTERM ends it."""
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
        d = Daemon(store_dir=tmp_path / "store", workers=2, grace=1.0,
                   executor=partial(sleep_job, 60.0))
        try:
            d.start()
            job, _ = d.submit({"apps": ["lu"], "kinds": ["base", "ds"],
                               "windows": [16], "procs": 4,
                               "preset": "tiny"})
            deadline = time.monotonic() + 10.0
            while not any(r.state == "running" for r in job.records):
                assert time.monotonic() < deadline, "pool never started"
                time.sleep(0.01)
            worker = d._pool._fleet[0].proc
            os.kill(worker.pid, signal.SIGTERM)
            deadline = time.monotonic() + 5.0
            while worker.is_alive() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert worker.exitcode == -signal.SIGTERM
        finally:
            signal.signal(signal.SIGTERM, previous)
            d.stop()

    def test_sigterm_before_the_worker_resets_its_handlers(
        self, monkeypatch
    ):
        """A SIGTERM that reaches a worker straight after the fork, while
        the supervisor's handler is still its own, is held until the
        worker has reset its handlers, and then ends it."""
        from multiprocessing import get_context

        from repro.service import pool as pool_mod

        worker_main = pool_mod._worker_main

        def signalled_at_fork(conn, chaos):
            os.kill(os.getpid(), signal.SIGTERM)
            worker_main(conn, chaos)

        monkeypatch.setattr(pool_mod, "_worker_main", signalled_at_fork)
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
        try:
            worker = pool_mod._Worker(get_context("fork"), None)
        finally:
            signal.signal(signal.SIGTERM, previous)
        try:
            worker.proc.join(5.0)
            assert worker.proc.exitcode == -signal.SIGTERM
        finally:
            worker.kill()

    def test_status_snapshots_are_never_mixed(
        self, tmp_path, monkeypatch
    ):
        """A reader racing both transitions sees each one whole: the
        records are built and the run time is noted slowly, inside what
        used to be the windows of a half-made transition."""
        from repro.service import daemon as daemon_mod

        records = daemon_mod.sweep_records

        def slow_records(*args):
            time.sleep(0.05)
            return records(*args)

        monkeypatch.setattr(daemon_mod, "sweep_records", slow_records)
        d = Daemon(store_dir=tmp_path / "store",
                   executor=lambda job: sleep_job(0.05, fake_executor(job)))
        note = d.queue.note_duration
        d.queue.note_duration = lambda s: (time.sleep(0.05), note(s))
        job, _ = d.submit({"apps": ["lu"], "kinds": ["base", "ds"],
                           "windows": [16], "procs": 4, "preset": "tiny"})
        d.start()
        seen = []
        deadline = time.monotonic() + 10.0
        try:
            while not seen or seen[-1]["state"] in ("queued", "running"):
                assert time.monotonic() < deadline, seen[-1]
                seen.append(d.status(job.id))
        finally:
            d.stop()
        for snap in seen:
            stamps = (snap["started_at"] is not None,
                      snap["finished_at"] is not None,
                      len(snap["subruns"]))
            assert stamps == {
                "queued": (False, False, 0),
                "running": (True, False, 2),
                "done": (True, True, 2),
            }[snap["state"]], snap
        assert {s["state"] for s in seen} >= {"running", "done"}

    def test_stop_cancels_queued_submissions(self, tmp_path):
        d = Daemon(store_dir=tmp_path / "store", executor=fake_executor)
        # Never started: everything stays queued until stop().
        job, _ = d.submit({"apps": ["lu"], "kinds": ["base"],
                           "procs": 4, "preset": "tiny"})
        cancelled = d.stop()
        assert [j.id for j in cancelled] == [job.id]
        assert job.state == JOB_CANCELLED


@pytest.fixture
def http_daemon(tmp_path):
    d = Daemon(store_dir=tmp_path / "store", executor=fake_executor,
               queue_depth=2)
    server = make_server(d)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    d.start()
    host, port = server.server_address[:2]
    with DaemonClient(f"http://{host}:{port}") as client:
        yield d, client
    server.shutdown()
    d.stop()
    server.server_close()


class TestDaemonHTTP:
    def test_healthz_and_metrics(self, http_daemon):
        _, client = http_daemon
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["queue_depth"] == 0
        assert isinstance(client.metrics(), dict)

    def test_submit_poll_results_roundtrip(self, http_daemon):
        _, client = http_daemon
        accepted = client.submit({
            "apps": ["lu"], "kinds": ["base", "ds"], "windows": [16],
            "procs": 4, "preset": "tiny",
        })
        assert accepted["deduped"] is False
        assert accepted["n_subruns"] == 2
        final = client.wait(accepted["id"], timeout=10)
        assert final["state"] == "done"
        assert final["counts"] == {"done": 2}
        assert final["queue_latency"] is not None
        for sub in final["subruns"]:
            assert sub["queued_at"] <= sub["started_at"]
            assert sub["started_at"] <= sub["finished_at"]
        rows = client.results(accepted["id"])["results"]
        assert len(rows) == 2

    def test_duplicate_submission_returns_existing_id(
        self, http_daemon
    ):
        _, client = http_daemon
        payload = {"apps": ["lu"], "kinds": ["base"], "procs": 4,
                   "preset": "tiny"}
        first = client.submit(payload)
        client.wait(first["id"], timeout=10)
        dup = client.submit(payload)
        assert dup["deduped"] is True
        assert dup["id"] == first["id"]

    def test_bad_grid_is_400(self, http_daemon):
        _, client = http_daemon
        with pytest.raises(ClientError) as exc_info:
            client.submit({"apps": ["no-such-app"]})
        assert exc_info.value.status == 400

    def test_invalid_json_is_400(self, http_daemon):
        _, client = http_daemon
        request = urllib.request.Request(
            client.base_url + "/v1/jobs", data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(request, timeout=5)
        assert exc_info.value.code == 400

    def test_unknown_ids_and_routes_are_404(self, http_daemon):
        _, client = http_daemon
        for path in ("/v1/jobs/feedface00000000",
                     "/v1/results/feedface00000000", "/v1/nope"):
            with pytest.raises(ClientError) as exc_info:
                client._request("GET", path)
            assert exc_info.value.status == 404

    def test_queue_full_is_429_with_retry_after(self, tmp_path):
        # No scheduler running, so submissions pile up in the queue.
        d = Daemon(store_dir=tmp_path / "store",
                   executor=fake_executor, queue_depth=1)
        server = make_server(d)
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        host, port = server.server_address[:2]
        client = DaemonClient(f"http://{host}:{port}")
        try:
            client.submit({"apps": ["lu"], "procs": 4,
                           "preset": "tiny"})
            request = urllib.request.Request(
                client.base_url + "/v1/jobs",
                data=json.dumps({"apps": ["lu"], "penalties": [100],
                                 "procs": 4,
                                 "preset": "tiny"}).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                urllib.request.urlopen(request, timeout=5)
            assert exc_info.value.code == 429
            retry_after = exc_info.value.headers.get("Retry-After")
            assert retry_after is not None
            assert float(retry_after) >= 1.0
        finally:
            server.shutdown()
            d.stop()
            server.server_close()

    def test_draining_daemon_is_503(self, http_daemon):
        daemon, client = http_daemon
        daemon.queue.close()
        with pytest.raises(ClientError) as exc_info:
            client.submit({"apps": ["lu"], "procs": 4,
                           "preset": "tiny"})
        assert exc_info.value.status == 503


def _count(daemon, name):
    counter = daemon.metrics.get(name)
    return counter.value if counter else 0


class TestPersistentConnection:
    """One client, one connection: calls reuse it, a connection the
    daemon closed is replaced without re-sending a request it read, and
    the error contract is unchanged."""

    def test_calls_share_one_connection_without_delayed_ack(
        self, http_daemon
    ):
        daemon, client = http_daemon
        # 36 sub-runs: the status body outgrows the handler's write
        # buffer, so head and body leave in separate writes.
        job, _ = daemon.submit({
            "apps": ["lu"], "kinds": ["ds"], "windows": [16, 32, 64],
            "models": ["SC", "PC", "WO", "RC"], "penalties": [25, 50, 100],
            "procs": 4, "preset": "tiny",
        })
        _wait_done(daemon, job.id)
        t0 = time.perf_counter()
        for _ in range(20):
            assert len(client.job(job.id)["subruns"]) == 36
        elapsed = time.perf_counter() - t0
        assert _count(daemon, "daemon.http_connections") == 1
        assert _count(daemon, "daemon.http_requests") >= 20
        # A body write stalled on the client's delayed ACK costs ~44 ms
        # a call: 20 calls would take at least 0.88 s.
        assert elapsed < 0.5

    def test_reconnects_after_idle_close_and_posts_once(
        self, http_daemon, monkeypatch
    ):
        from repro.service import http

        monkeypatch.setattr(http, "IDLE_TIMEOUT_S", 0.05)
        daemon, client = http_daemon
        assert client.healthz()["status"] == "ok"
        time.sleep(0.3)  # the daemon closes the idle connection
        accepted = client.submit({"apps": ["lu"], "procs": 4,
                                  "preset": "tiny"})
        assert list(daemon.queue.jobs) == [accepted["id"]]
        assert _count(daemon, "daemon.submitted") == 1
        time.sleep(0.3)  # the second connection idles out as well
        assert _count(daemon, "daemon.http_connections") == 2
        # Idle timeouts are not requests.
        assert _count(daemon, "daemon.http_requests") == 2

    def test_threads_share_a_client(self, http_daemon):
        daemon, client = http_daemon
        ids = []
        for penalty in (25, 50, 75, 100):
            job, _ = daemon.submit({"apps": ["lu"], "procs": 4,
                                    "preset": "tiny",
                                    "penalties": [penalty]})
            _wait_done(daemon, job.id)
            ids.append(job.id)
        errors = []

        def poll(job_id):
            try:
                for _ in range(10):
                    body = client.job(job_id)
                    assert (body["id"], body["state"]) == (job_id, "done")
            except Exception as exc:  # surfaced by the main thread
                errors.append(exc)

        threads = [threading.Thread(target=poll, args=(job_id,))
                   for job_id in ids]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
        assert errors == []
        assert _count(daemon, "daemon.http_connections") == 4

    def test_error_contract(self, tmp_path):
        # No scheduler running, so the second submission finds the
        # one-deep queue full.
        d = Daemon(store_dir=tmp_path / "store",
                   executor=fake_executor, queue_depth=1)
        server = make_server(d)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        host, port = server.server_address[:2]
        try:
            with DaemonClient(f"http://{host}:{port}") as client:
                with pytest.raises(ClientError) as bad:
                    client.submit({"apps": ["no-such-app"]})
                assert bad.value.status == 400
                assert "no-such-app" in bad.value.body["error"]
                assert bad.value.retry_after is None
                with pytest.raises(ClientError) as missing:
                    client.job("feedface00000000")
                assert missing.value.status == 404
                assert missing.value.body == {"error": "unknown job id"}
                client.submit({"apps": ["lu"], "procs": 4,
                               "preset": "tiny"})
                with pytest.raises(ClientError) as full:
                    client.submit({"apps": ["lu"], "penalties": [100],
                                   "procs": 4, "preset": "tiny"})
                assert full.value.status == 429
                assert full.value.body["error"] == "queue full"
                assert full.value.retry_after >= 1.0
                # The connection survives every error response.
                assert client.healthz()["status"] == "ok"
                assert _count(d, "daemon.http_connections") == 1
        finally:
            server.shutdown()
            d.stop()
            server.server_close()
        with pytest.raises(ClientError) as down:
            DaemonClient(f"http://{host}:{port}", timeout=2).healthz()
        assert down.value.status == 0
        assert "unreachable" in str(down.value)


@contextmanager
def _served(daemon):
    """A client on ``daemon``'s HTTP front end (scheduler not started)."""
    server = make_server(daemon)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address[:2]
    try:
        with DaemonClient(f"http://{host}:{port}") as client:
            yield client
    finally:
        server.shutdown()
        daemon.stop()
        server.server_close()


def _gated_daemon(tmp_path, gate, started):
    def gated(job):
        started.set()
        gate.wait(10.0)
        return fake_executor(job)

    return Daemon(store_dir=tmp_path / "store", executor=gated)


class TestHeldStatus:
    """``GET /v1/jobs/{id}?wait=S`` answers when the job is terminal."""

    def test_held_get_returns_within_50ms_of_finish(self, tmp_path):
        d = Daemon(store_dir=tmp_path / "store",
                   executor=lambda job: sleep_job(0.3, fake_executor(job)))
        with _served(d) as client:
            d.start()
            accepted = client.submit({"apps": ["lu"], "procs": 4,
                                      "preset": "tiny"})
            t0 = time.monotonic()
            body = client.job(accepted["id"])
            returned = time.time()
            assert body["state"] == "done"
            assert time.monotonic() - t0 >= 0.2  # it held, not polled
            assert returned - body["finished_at"] < 0.05
            hold = d.metrics.get("daemon.http_hold_seconds")
            assert hold.count == 1

    def test_hold_returns_when_stop_cancels_queued_job(self, tmp_path):
        d = Daemon(store_dir=tmp_path / "store", executor=fake_executor)
        with _served(d) as client:
            # Never started: the job stays queued until stop().
            accepted = client.submit({"apps": ["lu"], "procs": 4,
                                      "preset": "tiny"})
            answers = []
            waiter = threading.Thread(
                target=lambda: answers.append(client.job(accepted["id"]))
            )
            waiter.start()
            time.sleep(0.2)
            t0 = time.monotonic()
            d.stop()
            waiter.join(5.0)
            assert time.monotonic() - t0 < 1.0
            assert [a["state"] for a in answers] == ["cancelled"]

    def test_wait_zero_returns_running_snapshot_at_once(self, tmp_path):
        gate, started = threading.Event(), threading.Event()
        d = _gated_daemon(tmp_path, gate, started)
        with _served(d) as client:
            d.start()
            accepted = client.submit({"apps": ["lu"], "procs": 4,
                                      "preset": "tiny"})
            assert started.wait(5.0)
            t0 = time.monotonic()
            body = client.job(accepted["id"], wait=0)
            assert time.monotonic() - t0 < 0.1
            assert body["state"] == "running"
            gate.set()

    def test_wait_is_capped_and_bad_values_are_400(
        self, tmp_path, monkeypatch
    ):
        from repro.service import http

        monkeypatch.setattr(http, "MAX_HOLD_S", 0.2)
        gate, started = threading.Event(), threading.Event()
        d = _gated_daemon(tmp_path, gate, started)
        with _served(d) as client:
            d.start()
            accepted = client.submit({"apps": ["lu"], "procs": 4,
                                      "preset": "tiny"})
            assert started.wait(5.0)
            path = f"/v1/jobs/{accepted['id']}"
            t0 = time.monotonic()
            body = client._request("GET", path + "?wait=3600")
            assert 0.15 < time.monotonic() - t0 < 1.0
            assert body["state"] == "running"
            for bad in ("soon", "-1", "nan"):
                with pytest.raises(ClientError) as exc_info:
                    client._request("GET", f"{path}?wait={bad}")
                assert exc_info.value.status == 400
            gate.set()

    def test_unknown_id_is_404_without_holding(self, http_daemon):
        _, client = http_daemon
        t0 = time.monotonic()
        with pytest.raises(ClientError) as exc_info:
            client.job("feedface00000000")
        assert exc_info.value.status == 404
        assert time.monotonic() - t0 < 0.5

    def test_daemon_killed_mid_hold_is_unreachable(self, tmp_path):
        script = (
            "import functools, sys\n"
            "from repro.service import Daemon, serve, sleep_job\n"
            "d = Daemon(store_dir=sys.argv[1],\n"
            "           executor=functools.partial(sleep_job, 60.0))\n"
            "serve(d, banner=lambda line: print(line, flush=True))\n"
        )
        repo_src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(repo_src))
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(tmp_path / "store")],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        try:
            match = re.search(r"http://[\d.]+:\d+",
                              proc.stdout.readline().decode())
            assert match
            with DaemonClient(match.group(0)) as client:
                accepted = client.submit({"apps": ["lu"], "procs": 4,
                                          "preset": "tiny"})
                errors = []

                def hold():
                    try:
                        client.job(accepted["id"])
                    except ClientError as exc:
                        errors.append(exc)

                waiter = threading.Thread(target=hold)
                waiter.start()
                time.sleep(0.3)
                proc.kill()
                waiter.join(5.0)
                assert not waiter.is_alive()
        finally:
            proc.kill()
            proc.wait()
        assert [e.status for e in errors] == [0]
        assert "unreachable" in str(errors[0])

    def test_wait_keeps_its_interval_keyword(self, tmp_path):
        d = Daemon(store_dir=tmp_path / "store",
                   executor=lambda job: sleep_job(0.3, fake_executor(job)))
        with _served(d) as client:
            d.start()
            accepted = client.submit({"apps": ["lu"], "procs": 4,
                                      "preset": "tiny"})
            seen = []
            final = client.wait(accepted["id"], timeout=10,
                                interval=0.05, on_poll=seen.append)
            assert final["state"] == "done"
            # Each call held at most 0.05 s of the 0.3 s run.
            assert len(seen) >= 3

    def test_wait_is_one_held_call(self, http_daemon):
        daemon, client = http_daemon
        before = _count(daemon, "daemon.http_requests")
        accepted = client.submit({"apps": ["lu"], "procs": 4,
                                  "preset": "tiny"})
        assert client.wait(accepted["id"], timeout=10)["state"] == "done"
        client.results(accepted["id"])
        assert _count(daemon, "daemon.http_requests") - before == 3


class TestDaemonTracing:
    def test_trace_header_propagates_to_daemon_spans(
        self, http_daemon
    ):
        from repro.obs import TraceContext, stitch, validate_trace

        _, client = http_daemon
        ctx = TraceContext.mint()
        accepted = client.submit({
            "apps": ["lu"], "kinds": ["base", "ds"], "procs": 4,
            "preset": "tiny",
        }, trace=ctx)
        final = client.wait(accepted["id"], timeout=10)
        assert final["state"] == "done"

        spans = client.trace_spans(ctx.trace_id)
        assert spans, "daemon recorded no spans for the trace"
        assert all(s.trace_id == ctx.trace_id for s in spans)
        names = [s.name for s in spans]
        assert "queue-wait" in names
        assert any(n.startswith("sweep ") for n in names)
        assert sum(n.startswith("attempt") for n in names) == 2
        # The daemon's root span hangs off the client's submit span.
        queue_wait = next(s for s in spans if s.name == "queue-wait")
        assert queue_wait.parent_id == ctx.span_id
        # Grafting the client's own span on top yields one valid
        # timeline — the same stitch `submit --trace-out` performs.
        from repro.obs import Span

        t0 = min(s.start for s in spans)
        t1 = max(s.end for s in spans)
        root = Span(ctx.trace_id, ctx.span_id, None, "submit",
                    "client", "main", t0 - 0.001, t1 + 0.001)
        doc = stitch([root] + spans)
        assert validate_trace(doc) == []

    def test_malformed_trace_header_is_400(self, http_daemon):
        _, client = http_daemon
        request = urllib.request.Request(
            client.base_url + "/v1/jobs",
            data=json.dumps({"apps": ["lu"], "procs": 4,
                             "preset": "tiny"}).encode(),
            headers={"Content-Type": "application/json",
                     "X-Repro-Trace": "not-a-trace-context"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(request, timeout=5)
        assert exc_info.value.code == 400

    def test_untraced_submissions_record_no_spans(self, http_daemon):
        daemon, client = http_daemon
        accepted = client.submit({"apps": ["lu"], "procs": 4,
                                  "preset": "tiny"})
        client.wait(accepted["id"], timeout=10)
        assert len(daemon.spans) == 0

    def test_unknown_trace_id_is_empty_not_error(self, http_daemon):
        _, client = http_daemon
        assert client.trace_spans("feedfacefeedface") == []

    def test_prometheus_exposition_endpoint(self, http_daemon):
        from repro.obs import PROM_CONTENT_TYPE

        _, client = http_daemon
        accepted = client.submit({"apps": ["lu"], "procs": 4,
                                  "preset": "tiny"})
        client.wait(accepted["id"], timeout=10)
        with urllib.request.urlopen(
            client.base_url + "/v1/metrics?format=prom", timeout=5
        ) as response:
            assert response.status == 200
            assert response.headers["Content-Type"] == (
                PROM_CONTENT_TYPE
            )
            text = response.read().decode()
        assert "repro_daemon_submitted_total" in text
        assert "repro_daemon_jobs_done_total" in text
        assert "repro_daemon_job_wait_seconds_bucket" in text
        assert "repro_daemon_http_connections_total" in text
        assert 'le="+Inf"' in text
        # Default format is unchanged: the JSON snapshot.
        snapshot = client.metrics()
        assert "counters" in snapshot and "histograms" in snapshot


class TestShardDispatch:
    def test_dispatch_merges_in_grid_order(self, tmp_path):
        daemons, servers, endpoints = [], [], []
        for i in range(2):
            d = Daemon(store_dir=tmp_path / f"store{i}",
                       executor=fake_executor)
            server = make_server(d)
            threading.Thread(
                target=server.serve_forever, daemon=True
            ).start()
            d.start()
            host, port = server.server_address[:2]
            daemons.append(d)
            servers.append(server)
            endpoints.append(f"http://{host}:{port}")
        try:
            payload = {
                "apps": ["lu"], "kinds": ["base", "ds"],
                "windows": [16], "penalties": [25, 50],
                "procs": 4, "preset": "tiny",
            }
            report = dispatch(endpoints, payload, timeout=20)
            assert report.ok
            assert len(report.shards) == 2
            expected = [j.label() for j in
                        sweep_from_request(payload)]
            assert [r["label"] for r in report.results] == expected
            # Each daemon computed only its own disjoint shard.
            per_daemon = [len(d.store.keys()) for d in daemons]
            assert sum(per_daemon) == len(expected)
            assert all(n > 0 for n in per_daemon)
        finally:
            for server in servers:
                server.shutdown()
            for d in daemons:
                d.stop()
            for server in servers:
                server.server_close()


@pytest.fixture(scope="module")
def warm_traces(tmp_path_factory):
    """Shared tiny trace cache so real-simulation tests stay fast."""
    from repro.experiments.runner import TraceStore

    cache = tmp_path_factory.mktemp("daemon-traces")
    TraceStore(n_procs=4, preset="tiny", cache_dir=cache).get("lu")
    return cache


class TestByteIdentityWithBatch:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_daemon_results_byte_identical_to_batch(
        self, tmp_path, warm_traces, workers
    ):
        """Acceptance: the daemon path (in-thread and pooled) and the
        batch path store byte-identical payloads under identical keys."""
        sweep = _sweep(kinds=("base", "ds"))
        batch = run_batch(
            sweep, cache_dir=warm_traces,
            out_dir=tmp_path / "batches",
            store_dir=tmp_path / "batch-store",
        )
        assert not batch.partial

        d = Daemon(store_dir=tmp_path / "daemon-store",
                   cache_dir=warm_traces, workers=workers)
        d.start()
        try:
            job, _ = d.submit({
                "apps": ["lu"], "kinds": ["base", "ds"],
                "windows": [16], "procs": 4, "preset": "tiny",
            })
            final = _wait_done(d, job.id, timeout=60)
            assert final.state == JOB_DONE
        finally:
            d.stop()

        batch_store = ResultStore(tmp_path / "batch-store")
        daemon_store = ResultStore(tmp_path / "daemon-store")
        keys = batch_store.keys()
        assert sorted(keys) == sorted(daemon_store.keys())
        for key in keys:
            assert (
                daemon_store.get_bytes(key)
                == batch_store.get_bytes(key)
            )

    def test_warm_daemon_skips_trace_regeneration(
        self, tmp_path, warm_traces
    ):
        """A second sweep over the same traces must not rebuild them."""
        d = Daemon(store_dir=tmp_path / "store", cache_dir=warm_traces)
        d.start()
        try:
            first, _ = d.submit({"apps": ["lu"], "windows": [16],
                                 "procs": 4, "preset": "tiny"})
            assert _wait_done(d, first.id, timeout=60).state == JOB_DONE
            builds_before = d.metrics.get("trace.builds")
            builds_before = (
                builds_before.value if builds_before else 0
            )
            # Different window: same trace, new simulation.
            second, _ = d.submit({"apps": ["lu"], "windows": [32],
                                  "procs": 4, "preset": "tiny"})
            assert _wait_done(d, second.id, timeout=60).state == JOB_DONE
            builds_after = d.metrics.get("trace.builds")
            builds_after = builds_after.value if builds_after else 0
            warm_hits = d.metrics.get("trace.warm_hits").value
            assert builds_after == builds_before
            assert warm_hits >= 1
        finally:
            d.stop()


def _assert_sweep_span_shape(spans, records):
    """One ``job`` span per record, each with ``attempt`` children and
    the worker's ``run`` span parented on it."""
    for record in records:
        jobs = [s for s in spans if s.name == f"job {record.label}"]
        assert len(jobs) == 1, record.label
        job_id = jobs[0].span_id
        children = [s.name for s in spans if s.parent_id == job_id]
        assert any(n.startswith("attempt ") for n in children)
        assert f"run {record.label}" in children


class TestSpanShapeAcrossFrontEnds:
    """A traced pooled sweep yields the same span tree from the batch
    runner and from the daemon: both record it in one shared core."""

    GRID = {"apps": ["lu"], "kinds": ["base", "ds"], "windows": [16],
            "procs": 4, "preset": "tiny"}

    def test_batch_and_pooled_daemon_span_trees_match(
        self, tmp_path, warm_traces
    ):
        from repro.obs import (
            Span, TraceContext, read_spans, stitch, validate_trace,
        )

        batch_ctx = TraceContext.mint()
        report = run_batch(
            sweep_from_request(self.GRID), jobs=2, cache_dir=warm_traces,
            out_dir=tmp_path / "batches",
            store_dir=tmp_path / "batch-store", trace=batch_ctx,
        )
        assert not report.partial
        _assert_sweep_span_shape(
            read_spans(report.out_dir / "spans", batch_ctx.trace_id),
            report.records,
        )
        doc = json.loads((report.out_dir / "trace.json").read_text())
        assert validate_trace(doc) == []

        daemon_ctx = TraceContext.mint()
        d = Daemon(store_dir=tmp_path / "daemon-store",
                   cache_dir=warm_traces, workers=2)
        d.start()
        try:
            job, _ = d.submit(dict(self.GRID, trace={
                "trace_id": daemon_ctx.trace_id,
                "parent_id": daemon_ctx.span_id,
            }))
            assert _wait_done(d, job.id, timeout=60).state == JOB_DONE
            spans = d.trace_spans(daemon_ctx.trace_id)
        finally:
            d.stop()
        _assert_sweep_span_shape(spans, job.records)
        root = Span(daemon_ctx.trace_id, daemon_ctx.span_id, None,
                    "submit", "client", "main",
                    min(s.start for s in spans) - 0.001,
                    max(s.end for s in spans) + 0.001)
        assert validate_trace(stitch([root] + spans)) == []


class TestServeSignal:
    def test_sigterm_drains_and_exits_130(self, tmp_path):
        """SIGTERM against a live daemon: HTTP stops, the daemon
        drains within its grace budget, exit code is 130."""
        cmd = [
            sys.executable, "-u", "-m", "repro",
            "--preset", "tiny", "--procs", "4",
            "--cache-dir", str(tmp_path / "traces"),
            "serve", "--port", "0", "--grace", "5",
            "--store", str(tmp_path / "store"),
        ]
        repo_src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(repo_src))
        proc = subprocess.Popen(
            cmd, env=env, start_new_session=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        try:
            banner = proc.stdout.readline().decode()
            match = re.search(r"http://([\d.]+):(\d+)", banner)
            assert match, banner
            client = DaemonClient(match.group(0))
            accepted = client.submit({
                "apps": ["lu"], "kinds": ["base"], "procs": 4,
                "preset": "tiny",
            })
            final = client.wait(accepted["id"], timeout=60)
            assert final["state"] == "done"
            t0 = time.monotonic()
            os.killpg(proc.pid, signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
            elapsed = time.monotonic() - t0
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
        assert proc.returncode == 130, out.decode()
        assert elapsed < 10.0  # grace is 5s; shutdown is bounded
