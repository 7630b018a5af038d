"""Application-level tests: functional verification and workload shape."""

import numpy as np
import pytest

from repro import MultiprocessorConfig, TangoExecutor, build_app
from repro.apps import APP_NAMES, lu, mp3d, ocean


class TestRegistry:
    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError):
            build_app("nonesuch")

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            build_app("lu", preset="huge")

    def test_override_params(self):
        w = build_app("lu", preset="tiny", n=20)
        assert w.params["n"] == 20

    @pytest.mark.parametrize("app", APP_NAMES)
    def test_builds_programs_for_all_cpus(self, app):
        w = build_app(app, preset="tiny", n_procs=4)
        assert w.n_procs == 4
        assert all(p.sealed for p in w.programs)
        assert w.static_instructions() > 0


class TestFunctionalCorrectness:
    """The session fixture already ran+verified all apps at 16 CPUs;
    these runs vary the processor count to catch partitioning bugs."""

    @pytest.mark.parametrize("app", APP_NAMES)
    @pytest.mark.parametrize("n_procs", [1, 3, 8])
    def test_verify_at_other_cpu_counts(self, app, n_procs):
        w = build_app(app, preset="tiny", n_procs=n_procs)
        config = MultiprocessorConfig(n_cpus=n_procs)
        result = TangoExecutor(w.programs, config, memory=w.memory).run()
        w.verify(result.memory)

    def test_lu_matches_reference_decomposition(self, tiny_runs):
        # verify() already ran; double-check determinism of the builder.
        w1 = build_app("lu", preset="tiny")
        w2 = build_app("lu", preset="tiny")
        base = w1.layout.segment("A")[0]
        for off in range(0, 24 * 24 * 8, 8):
            assert (
                w1.memory.read_double(base + off)
                == w2.memory.read_double(base + off)
            )


class TestWorkloadShape:
    def test_mp3d_uses_locks_and_barriers(self, tiny_runs):
        _, result = tiny_runs["mp3d"]
        stats = result.stats.cpu(0)
        assert stats.locks == 2          # one per step at tiny
        assert stats.barriers == 3       # start + one per step
        assert stats.read_misses > 0 and stats.write_misses > 0

    def test_lu_uses_events(self, tiny_runs):
        workload, result = tiny_runs["lu"]
        stats = result.stats.cpu(0)
        n = workload.params["n"]
        assert stats.barriers == 2       # as in the paper
        assert stats.wait_events == n    # one wait per column
        total_sets = sum(
            result.stats.cpu(c).set_events for c in range(16)
        )
        assert total_sets == n           # every column published once

    def test_pthor_is_lock_and_barrier_heavy(self, tiny_runs):
        _, result = tiny_runs["pthor"]
        stats = result.stats.cpu(0)
        assert stats.locks > 10
        assert stats.barriers > 10

    def test_locus_uses_central_work_lock(self, tiny_runs):
        workload, result = tiny_runs["locus"]
        total_locks = sum(
            result.stats.cpu(c).locks for c in range(16)
        )
        # One fetch per wire pair plus one sentinel fetch per processor.
        assert total_locks == workload.params["n_wires"] // 2 + 16

    def test_ocean_uses_only_barriers(self, tiny_runs):
        _, result = tiny_runs["ocean"]
        stats = result.stats.cpu(0)
        assert stats.locks == 0
        assert stats.barriers > 0

    @pytest.mark.parametrize("app", APP_NAMES)
    def test_every_cpu_does_work(self, tiny_runs, app):
        _, result = tiny_runs[app]
        for cpu in range(16):
            assert result.stats.cpu(cpu).busy_cycles > 0

    @pytest.mark.parametrize("app", APP_NAMES)
    def test_trace_covers_busy_cycles(self, tiny_runs, app):
        _, result = tiny_runs[app]
        assert len(result.trace(0)) == result.stats.cpu(0).busy_cycles


class TestOceanPartitioning:
    def test_row_ranges_cover_interior_exactly(self):
        n, procs = 20, 16
        rows = []
        for me in range(procs):
            lo, hi = ocean._row_range(me, procs, n)
            rows.extend(range(lo, hi))
        assert rows == list(range(1, n - 1))


class TestLUReference:
    def test_reference_lu_reconstructs_matrix(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(0.5, 1.0, size=(8, 8)) + np.eye(8) * 8
        f = lu._reference_lu(a)
        lower = np.tril(f, -1) + np.eye(8)
        upper = np.triu(f)
        assert np.allclose(lower @ upper, a, rtol=1e-10)


def _loop_lu(a):
    """``lu._reference_lu`` element by element, as the kernels run it."""
    a = a.copy()
    n = a.shape[0]
    for k in range(n):
        pivot = a[k, k]
        for i in range(k + 1, n):
            a[i, k] = a[i, k] / pivot
        for j in range(k + 1, n):
            m = a[k, j]
            for i in range(k + 1, n):
                a[i, j] = a[i, j] - a[i, k] * m
    return a


def _loop_particles(pos, vel, steps, dims, obstacle):
    """``mp3d._reference_particles`` particle by particle and axis by
    axis, as the kernels run it."""
    pos = pos.copy()
    vel = vel.copy()
    ox0, ox1, oy0, oy1, oz0, oz1 = obstacle
    for _ in range(steps):
        for p in range(pos.shape[0]):
            for axis in range(3):
                pos[p, axis] = pos[p, axis] + vel[p, axis]
            for axis, limit in enumerate(dims):
                if pos[p, axis] < 0.0:
                    pos[p, axis] = -pos[p, axis]
                    vel[p, axis] = -vel[p, axis]
                elif pos[p, axis] > limit:
                    pos[p, axis] = 2.0 * limit - pos[p, axis]
                    vel[p, axis] = -vel[p, axis]
            if (
                ox0 < pos[p, 0] < ox1
                and oy0 < pos[p, 1] < oy1
                and oz0 < pos[p, 2] < oz1
            ):
                vel[p, 0] = -vel[p, 0]
                vel[p, 1] = -vel[p, 1]
                vel[p, 2] = -vel[p, 2]
    return pos, vel


class TestReferenceKernels:
    """The array forms of the reference solutions round exactly as the
    per-element loops of the assembly kernels do."""

    @pytest.mark.parametrize("n,seed", [(7, 1), (40, 2)])
    def test_lu_equals_loop_form(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1.0, 1.0, size=(n, n)) + np.eye(n) * n
        before = a.copy()
        assert np.array_equal(lu._reference_lu(a), _loop_lu(a))
        assert np.array_equal(a, before)

    @pytest.mark.parametrize(
        "n_particles,steps,grid,seed",
        [(30, 6, (8, 4, 4), 3), (500, 4, (16, 8, 8), 4)],
    )
    def test_particles_equal_loop_form(self, n_particles, steps, grid, seed):
        rng = np.random.default_rng(seed)
        dims = tuple(float(d) for d in grid)
        pos = rng.uniform(0.0, 1.0, size=(n_particles, 3)) * np.array(dims)
        # Fast enough that many particles bounce off a wall every step.
        vel = rng.uniform(-3.0, 3.0, size=(n_particles, 3))
        nx, ny, nz = grid
        obstacle = (
            nx * 0.3, nx * 0.45, ny * 0.25, ny * 0.75, nz * 0.25, nz * 0.75
        )
        got = mp3d._reference_particles(pos, vel, steps, dims, obstacle)
        want = _loop_particles(pos, vel, steps, dims, obstacle)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
