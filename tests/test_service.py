"""Tests for the resilient batch-simulation service layer.

The chaos injectors fire *inside* real worker processes (actual
SIGKILLs, actual sleeps, actual byte flips), so these tests exercise
the supervisor against genuine failures, not mocks.
"""

import os
import pickle
import signal
import subprocess
import sys
import time

import pytest

from repro.experiments.runner import TraceStore
from repro.obs.metrics import MetricsRegistry
from repro.service import (
    ALWAYS,
    BatchInterrupted,
    ChaosSpec,
    Job,
    JobsFailedError,
    ResultStore,
    SupervisedPool,
    echo_job,
    expand_grid,
    parse_chaos_arg,
    result_key,
    run_batch,
    run_jobs,
    shard,
    square_job,
)
from repro.service.pool import (
    BACKOFF_BASE,
    BACKOFF_CAP,
    STATE_CANCELLED,
    STATE_DONE,
    STATE_FAILED,
)


class TestRunJobs:
    def test_serial_path(self):
        out = run_jobs(square_job, [(i,) for i in range(5)], jobs=1)
        assert out == [0, 1, 4, 9, 16]

    def test_parallel_results_in_submission_order(self):
        out = run_jobs(square_job, [(i,) for i in range(12)], jobs=4)
        assert out == [i * i for i in range(12)]

    def test_single_task_stays_serial(self):
        # One task never pays the process-spawn cost.
        assert run_jobs(square_job, [(7,)], jobs=8) == [49]

    def test_error_raises_jobs_failed(self):
        import multiprocessing

        before = set(multiprocessing.active_children())
        with pytest.raises(JobsFailedError) as exc_info:
            run_jobs(square_job, [("not-an-int",), (2,)], jobs=2)
        failures = exc_info.value.failures
        assert len(failures) == 1
        assert failures[0].index == 0
        assert failures[0].reason == "error"
        assert failures[0].attempts == 2
        # The pool is closed on the way out: no worker outlives the call.
        assert set(multiprocessing.active_children()) <= before

    def test_pooled_retry_succeeds(self, tmp_path):
        # Job 0 raises on its first attempt only; run_jobs' one
        # automatic retry turns that into the strict result list.
        marker = tmp_path / "failed-once"
        out = run_jobs(
            _fail_first_attempt, [(str(marker), i) for i in range(4)],
            jobs=2,
        )
        assert out == [0, 1, 4, 9]
        assert marker.exists()


def _fail_first_attempt(marker: str, i: int) -> int:
    """``i * i``, except that job 0 raises once (the first time it runs,
    which leaves ``marker`` behind)."""
    if i == 0 and not os.path.exists(marker):
        open(marker, "w").close()
        raise RuntimeError("first attempt fails")
    return i * i


def _pool_run(fn, n, **pool_args) -> list[Job]:
    """``fn(i)`` for every ``i < n`` on a two-worker pool; the jobs."""
    jobs = [Job(index=i, fn=fn, args=(i,)) for i in range(n)]
    with SupervisedPool(workers=2, **pool_args) as pool:
        pool.run(jobs)
    return jobs


class TestChaosRecovery:
    def test_crash_retried(self):
        metrics = MetricsRegistry(enabled=True)
        jobs = _pool_run(
            square_job, 4, chaos=ChaosSpec(crash={1: 1}), max_attempts=3,
            metrics=metrics,
        )
        assert [j.result for j in jobs] == [0, 1, 4, 9]
        assert all(j.state == STATE_DONE for j in jobs)
        assert metrics.get("service.crashes").value == 1
        assert metrics.get("service.retries").value == 1
        assert metrics.get("service.worker_restarts").value >= 1

    def test_transient_exception_retried(self):
        jobs = _pool_run(
            echo_job, 3, chaos=ChaosSpec(fail={0: 1}), max_attempts=2,
        )
        assert [j.result for j in jobs] == [0, 1, 2]
        assert all(j.state == STATE_DONE for j in jobs)

    def test_corrupt_payload_retried(self):
        metrics = MetricsRegistry(enabled=True)
        jobs = _pool_run(
            echo_job, 3, chaos=ChaosSpec(corrupt={2: 1}), max_attempts=2,
            metrics=metrics,
        )
        assert [j.result for j in jobs] == [0, 1, 2]
        assert all(j.state == STATE_DONE for j in jobs)
        assert metrics.get("service.corrupt_payloads").value == 1

    def test_hang_killed_and_retried(self):
        metrics = MetricsRegistry(enabled=True)
        t0 = time.monotonic()
        jobs = _pool_run(
            echo_job, 3, chaos=ChaosSpec(hang={1: 1}), timeout=0.5,
            max_attempts=2, metrics=metrics,
        )
        assert [j.result for j in jobs] == [0, 1, 2]
        assert all(j.state == STATE_DONE for j in jobs)
        assert metrics.get("service.timeouts").value == 1
        # One injected hang must not cost more than ~one timeout budget.
        assert time.monotonic() - t0 < 10.0

    def test_persistent_crash_quarantined_others_survive(self):
        jobs = _pool_run(
            square_job, 4, chaos=ChaosSpec(crash={2: ALWAYS}),
            max_attempts=2,
        )
        assert [j.state for j in jobs] == [
            STATE_DONE, STATE_DONE, STATE_FAILED, STATE_DONE
        ]
        failure = jobs[2].failure()
        assert failure.reason == "crash"
        history = failure.to_dict()["history"]
        assert [h["attempt"] for h in history] == [1, 2]


class TestSupervisedPool:
    def test_partial_results_never_raise(self):
        jobs = _pool_run(
            square_job, 4, max_attempts=2,
            chaos=ChaosSpec(fail={1: ALWAYS}),
        )
        assert [j.state for j in jobs] == [
            STATE_DONE, STATE_FAILED, STATE_DONE, STATE_DONE
        ]
        assert jobs[1].failure().attempts == 2

    def test_backoff_is_deterministic_and_bounded(self):
        pool_a = SupervisedPool(workers=1, seed=3)
        pool_b = SupervisedPool(workers=1, seed=3)
        for index in range(4):
            for attempt in range(1, 10):
                d = pool_a.backoff_delay(index, attempt)
                assert d == pool_b.backoff_delay(index, attempt)
                assert 0.0 < d <= BACKOFF_CAP
        # Late attempts are capped: jitter keeps them in [cap/2, cap].
        assert pool_a.backoff_delay(0, 9) >= BACKOFF_CAP / 2
        assert (
            pool_a.backoff_delay(0, 1)
            != SupervisedPool(workers=1, seed=4).backoff_delay(0, 1)
        )

    def test_backoff_grows_before_cap(self):
        pool = SupervisedPool(workers=1, seed=0)
        # Jitter is within [0.5, 1.0] x raw, so doubling the raw delay
        # always beats the previous attempt's upper bound... eventually.
        assert pool.backoff_delay(0, 3) < pool.backoff_delay(0, 5)
        assert pool.backoff_delay(0, 1) <= BACKOFF_BASE

    def test_retry_success_byte_identical_to_first_try(self):
        """Property: a result that needed retries is byte-for-byte the
        result an unfaulted run produces."""
        def payloads(chaos):
            jobs = _pool_run(square_job, 4, max_attempts=3, chaos=chaos)
            assert all(j.state == STATE_DONE for j in jobs)
            return [j.payload for j in jobs]

        clean = payloads(None)
        faulted = payloads(
            ChaosSpec(crash={0: 1}, corrupt={2: 1}, fail={3: 1})
        )
        assert clean == faulted
        assert clean == [
            pickle.dumps(i * i, pickle.HIGHEST_PROTOCOL)
            for i in range(4)
        ]


class TestPoolLifecycle:
    """One fleet per pool: runs top it up and reuse it, ``close()`` (the
    ``with`` block's exit) is the only teardown."""

    @staticmethod
    def _pids(pool, n):
        jobs = [Job(index=i, fn=os.getpid, args=()) for i in range(n)]
        pool.run(jobs)
        assert all(j.state == STATE_DONE for j in jobs)
        return {j.result for j in jobs}

    def test_runs_reuse_the_same_workers(self):
        with SupervisedPool(workers=2) as pool:
            first = self._pids(pool, 4)
            fleet = [w.proc for w in pool._fleet]
            second = self._pids(pool, 4)
            assert first == second == {p.pid for p in fleet}
            assert [w.proc for w in pool._fleet] == fleet
        assert not any(p.is_alive() for p in fleet)

    def test_fleet_grows_to_the_work_and_replaces_the_dead(self):
        with SupervisedPool(workers=2) as pool:
            (lone,) = self._pids(pool, 1)  # one job, one worker
            assert len(pool._fleet) == 1
            both = self._pids(pool, 2)
            assert lone in both and len(both) == 2
            os.kill(lone, signal.SIGKILL)
            next(
                w for w in pool._fleet if w.proc.pid == lone
            ).proc.join(5)
            again = self._pids(pool, 2)
            assert lone not in again and len(again) == 2
            fleet = [w.proc for w in pool._fleet]
        assert not any(p.is_alive() for p in fleet)

    def test_close_after_interrupt_leaves_no_worker(self):
        import threading

        jobs = [Job(index=i, fn=echo_job, args=(i,)) for i in range(3)]
        with pytest.raises(BatchInterrupted):
            with SupervisedPool(
                workers=2, chaos=ChaosSpec(hang={0: ALWAYS}), grace=0.5,
            ) as pool:
                threading.Timer(0.5, pool.interrupt).start()
                try:
                    pool.run(jobs)
                finally:
                    fleet = [w.proc for w in pool._fleet]
        assert len(fleet) == 2
        assert not any(p.is_alive() for p in fleet)
        assert jobs[0].state == STATE_CANCELLED

    def test_run_batch_leaves_no_worker(self, tmp_path, batch_env):
        import multiprocessing

        cache, sweep = batch_env
        before = set(multiprocessing.active_children())
        report = run_batch(
            sweep, jobs=2, cache_dir=cache, out_dir=tmp_path / "out"
        )
        assert not report.partial
        assert set(multiprocessing.active_children()) <= before


class TestChaosSpec:
    def test_attempt_bounds(self):
        spec = ChaosSpec(fail={0: 2})
        with pytest.raises(Exception):
            spec.before(0, 1)
        with pytest.raises(Exception):
            spec.before(0, 2)
        spec.before(0, 3)  # bound exhausted: no fault
        spec.before(1, 1)  # other jobs unaffected

    def test_corrupt_flips_but_preserves_length(self):
        payload = pickle.dumps([1, 2, 3])
        mutated = ChaosSpec(corrupt={0: 1}).after(0, 1, payload)
        assert mutated != payload
        assert len(mutated) == len(payload)
        assert ChaosSpec().after(0, 1, payload) == payload

    def test_parse_chaos_arg(self):
        mapping: dict[int, int] = {}
        parse_chaos_arg(mapping, "3")
        parse_chaos_arg(mapping, "5:2")
        assert mapping == {3: ALWAYS, 5: 2}
        for bad in ("x", "3:-1", "-1", "3:y"):
            with pytest.raises(ValueError):
                parse_chaos_arg({}, bad)


class TestResultStore:
    def test_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        key = store.key({"app": "lu", "kind": "ds"})
        store.put(key, {"total": 123}, meta={"label": "lu/ds"})
        assert store.get(key) == {"total": 123}
        assert store.meta(key) == {"label": "lu/ds"}
        assert store.keys() == [key]

    def test_key_ignores_dict_order(self):
        a = result_key({"app": "lu", "window": 64}, git_rev="r")
        b = result_key({"window": 64, "app": "lu"}, git_rev="r")
        assert a == b

    def test_key_varies_with_rev_and_schema_version(self, monkeypatch):
        import repro.service.store as store_module

        config = {"app": "lu"}
        assert result_key(config, git_rev="r1") != result_key(
            config, git_rev="r2"
        )
        monkeypatch.setattr(store_module, "TRACE_FORMAT_VERSION", 1)
        v1 = result_key(config, git_rev="r")
        monkeypatch.setattr(store_module, "TRACE_FORMAT_VERSION", 2)
        assert result_key(config, git_rev="r") != v1

    def test_missing_key_is_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get_bytes("0" * 64) is None

    @pytest.mark.parametrize("mutation", ["truncate", "flip", "garbage"])
    def test_corruption_evicts_and_regenerates(self, tmp_path, mutation):
        metrics = MetricsRegistry(enabled=True)
        store = ResultStore(tmp_path, metrics=metrics)
        key = store.key({"app": "lu"})
        store.put(key, list(range(100)))
        path = store.path(key)
        raw = path.read_bytes()
        if mutation == "truncate":
            path.write_bytes(raw[: len(raw) // 2])
        elif mutation == "flip":
            broken = bytearray(raw)
            broken[-20] ^= 0xFF
            path.write_bytes(bytes(broken))
        else:
            path.write_bytes(b"not a pickle at all")
        # Corrupt record: reported as a miss and deleted from disk.
        assert store.get(key) is None
        assert not path.exists()
        assert metrics.get("service.store_corrupt").value == 1
        # The caller regenerates; the store is healthy again.
        store.put(key, list(range(100)))
        assert store.get(key) == list(range(100))

    def test_wrong_key_record_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        key_a = store.key({"app": "lu"})
        key_b = store.key({"app": "ocean"})
        store.put(key_a, "A")
        # A record copied to the wrong address must not be served.
        store.path(key_b).parent.mkdir(parents=True, exist_ok=True)
        store.path(key_b).write_bytes(store.path(key_a).read_bytes())
        assert store.get(key_b) is None


class TestSweepGrid:
    def test_base_collapses_models_and_windows(self):
        grid = expand_grid(
            ["lu"], kinds=("base",), models=("SC", "RC"),
            windows=(16, 64),
        )
        assert len(grid) == 1
        assert grid[0].config()["model"] == "-"
        assert grid[0].config()["window"] == 0

    def test_static_kinds_collapse_windows_only(self):
        grid = expand_grid(
            ["lu"], kinds=("ssbr",), models=("SC", "RC"),
            windows=(16, 64),
        )
        assert len(grid) == 2  # one per model; windows deduped

    def test_ds_keeps_all_axes(self):
        grid = expand_grid(
            ["lu", "ocean"], kinds=("ds",), models=("RC",),
            windows=(16, 64), penalties=(50, 100),
        )
        assert len(grid) == 8

    def test_bad_axes_rejected(self):
        with pytest.raises(ValueError):
            expand_grid(["doom"])
        with pytest.raises(ValueError):
            expand_grid(["lu"], kinds=("vliw",))
        with pytest.raises(ValueError):
            expand_grid(["lu"], models=("TSO",))
        with pytest.raises(ValueError):
            expand_grid(["lu"], windows=(0,))
        with pytest.raises(ValueError):
            expand_grid(["lu"], penalties=(-1,))

    def test_labels_unique(self):
        grid = expand_grid(
            ["lu"], kinds=("base", "ssbr", "ds"), models=("SC", "RC"),
            windows=(16, 64),
        )
        labels = [job.label() for job in grid]
        assert len(labels) == len(set(labels))

    def test_shard_covers_everything_in_order(self):
        jobs = list(range(10))
        shards = shard(jobs, 3)
        assert len(shards) == 3
        assert [j for s in shards for j in s] == jobs
        assert shard(jobs, 100) == [[j] for j in jobs]


class TestShardDeterminism:
    """The multi-endpoint dispatcher depends on these properties."""

    GRID = dict(
        apps=("lu", "mp3d"), kinds=("base", "ssbr", "ds"),
        models=("SC", "RC"), windows=(16, 64), penalties=(50, 100),
    )

    @pytest.mark.parametrize("n_shards", [1, 2, 3, 5, 7, 64])
    def test_same_grid_same_partition(self, n_shards):
        first = shard(expand_grid(**self.GRID), n_shards)
        second = shard(expand_grid(**self.GRID), n_shards)
        assert first == second

    @pytest.mark.parametrize("n_shards", [1, 2, 3, 5, 7, 64])
    def test_disjoint_and_exhaustive(self, n_shards):
        jobs = expand_grid(**self.GRID)
        shards = shard(jobs, n_shards)
        flat = [job for part in shards for job in part]
        # Exhaustive and order-preserving ...
        assert flat == jobs
        # ... and disjoint (no job appears in two shards).
        labels = [job.label() for job in flat]
        assert len(labels) == len(set(labels))

    def test_sizes_balanced(self):
        shards = shard(list(range(10)), 4)
        assert [len(s) for s in shards] == [3, 3, 2, 2]


@pytest.fixture(scope="module")
def batch_env(tmp_path_factory):
    """Shared trace cache + sweep for the batch tests (tiny preset)."""
    cache = tmp_path_factory.mktemp("batch-traces")
    sweep = expand_grid(
        ["lu"], kinds=("base", "ssbr", "ds"), models=("RC",),
        windows=(16,), procs=4, preset="tiny",
    )
    # Pre-generate the shared trace so per-test timings stay honest.
    TraceStore(n_procs=4, preset="tiny", cache_dir=cache).get("lu")
    return cache, sweep


class TestRunBatch:
    def test_clean_batch_completes(self, tmp_path, batch_env):
        cache, sweep = batch_env
        report = run_batch(
            sweep, jobs=2, cache_dir=cache, out_dir=tmp_path / "out"
        )
        assert not report.partial
        assert len(report.completed) == 3
        assert all(r.source == "computed" for r in report.records)
        assert (report.out_dir / "state.json").is_file()
        assert (report.out_dir / "manifest.json").is_file()

    def test_rerun_served_entirely_from_store(self, tmp_path, batch_env):
        cache, sweep = batch_env
        out = tmp_path / "out"
        first = run_batch(sweep, jobs=2, cache_dir=cache, out_dir=out)
        again = run_batch(sweep, jobs=2, cache_dir=cache, out_dir=out)
        assert again.batch_id == first.batch_id
        assert all(r.source == "store" for r in again.records)
        assert not again.partial
        # Store-served jobs start and finish at acceptance: zero run
        # time, but the queue-latency fields are still populated.
        for record in again.records:
            assert record.started_at == record.finished_at
            assert record.queue_latency is not None

    def test_state_json_records_queue_timestamps(
        self, tmp_path, batch_env
    ):
        import json

        from repro.service import format_status

        cache, sweep = batch_env
        report = run_batch(
            sweep, jobs=2, cache_dir=cache, out_dir=tmp_path / "out"
        )
        state = json.loads(
            (report.out_dir / "state.json").read_text()
        )
        for job in state["jobs"]:
            assert job["queued_at"] is not None
            assert job["started_at"] >= job["queued_at"]
            assert job["finished_at"] >= job["started_at"]
        # status renders real wait/run figures from the timestamps.
        rendered = format_status(state)
        assert "wait " in rendered and "run " in rendered
        for record in report.records:
            assert record.queue_latency >= 0.0
            assert record.run_seconds >= 0.0

    def test_chaos_batch_degrades_gracefully(self, tmp_path, batch_env):
        cache, sweep = batch_env
        report = run_batch(
            sweep, jobs=2, cache_dir=cache, out_dir=tmp_path / "out",
            max_attempts=2, chaos=ChaosSpec(fail={0: ALWAYS}),
        )
        assert report.partial
        assert len(report.failed) == 1
        assert len(report.completed) == 2
        failure = report.failure_report()
        assert len(failure["failed"]) == 1
        history = failure["failed"][0]["history"]
        assert [h["attempt"] for h in history] == [1, 2]
        assert all(h["reason"] == "error" for h in history)
        assert "FAILED" in report.format_summary()

    def test_retried_batch_bytes_match_clean_run(
        self, tmp_path, batch_env
    ):
        """Acceptance: with a crash injected and retried, every
        successful job's stored bytes equal the uninjected run's."""
        cache, sweep = batch_env
        clean = run_batch(
            sweep, jobs=2, cache_dir=cache, out_dir=tmp_path / "clean"
        )
        faulted = run_batch(
            sweep, jobs=2, cache_dir=cache, out_dir=tmp_path / "faulted",
            max_attempts=3, chaos=ChaosSpec(crash={1: 1}),
        )
        assert not faulted.partial
        clean_store = ResultStore(clean.store_dir)
        faulted_store = ResultStore(faulted.store_dir)
        for record in clean.records:
            assert (
                faulted_store.get_bytes(record.key)
                == clean_store.get_bytes(record.key)
            )


class TestTraceStoreCorruption:
    def test_truncated_cache_regenerates_silently(self, tmp_path):
        store = TraceStore(n_procs=4, preset="tiny", cache_dir=tmp_path)
        run = store.get("lu")
        cached = store._cache_path("lu")
        assert cached.is_file()
        # Truncate the pickle mid-file: a torn write / partial copy.
        raw = cached.read_bytes()
        cached.write_bytes(raw[: len(raw) // 3])
        fresh = TraceStore(n_procs=4, preset="tiny", cache_dir=tmp_path)
        regen = fresh.get("lu")
        assert regen.base.total == run.base.total
        assert len(regen.trace) == len(run.trace)
        # The regenerated pickle is valid again for the next reader.
        third = TraceStore(n_procs=4, preset="tiny", cache_dir=tmp_path)
        assert third.get("lu").base.total == run.base.total


class TestSignalShutdown:
    def test_sigint_cancels_within_grace(self, tmp_path):
        """SIGINT against a wedged batch: pending jobs cancelled, hung
        workers killed within the grace budget, exit code 130."""
        cmd = [
            sys.executable, "-m", "repro",
            "--preset", "tiny", "--procs", "4",
            "--cache-dir", str(tmp_path / "traces"),
            "batch", "--apps", "lu", "--kinds", "base", "ssbr", "ds",
            "--jobs", "2", "--out", str(tmp_path / "out"),
            "--chaos-hang", "0", "1", "2",
        ]
        repo_src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(repo_src))
        proc = subprocess.Popen(
            cmd, env=env, start_new_session=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        try:
            time.sleep(4.0)  # let the workers start and wedge
            t0 = time.monotonic()
            os.killpg(proc.pid, signal.SIGINT)
            out, _ = proc.communicate(timeout=30)
            elapsed = time.monotonic() - t0
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
        assert proc.returncode == 130, out.decode()
        assert elapsed < 10.0  # grace is 5s; teardown is bounded
        assert b"interrupted" in out
        # The workers shared the batch's process group: none outlives it.
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            survivors = False
        else:
            survivors = True
            os.killpg(proc.pid, signal.SIGKILL)
        assert not survivors
