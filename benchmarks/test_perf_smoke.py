"""Performance smoke test: the repository's one perf gate on ratios.

Times the hot loops everything else is gated on — the functional
interpreter (trace generation, with one CPU traced and with all), the
event-driven static and DS engines (both against their scalar oracles
in ``tests/oracles/``), the co-simulation coupling, instrumentation, and
the daemon's warm caches — on the tiny LU workload, and asserts a fixed
floor or ceiling on every ratio, each assertion message showing the
measured value.  Run from the repository root (``pyproject.toml`` puts
``tests/`` on the path for the oracles) with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_smoke.py -q

Ratios (speedups, instrumentation overhead) are computed from
interleaved min-of-reps samples so machine-speed drift between the two
sides of a ratio cancels out.
"""

from __future__ import annotations

import time
from pathlib import Path

from oracles import simulate_base, simulate_ds, simulate_ss, simulate_ssbr

from repro import MultiprocessorConfig, TangoExecutor, build_app
from repro.consistency import get_model
from repro.cpu import ProcessorConfig, simulate
from repro.cpu.ds import DSConfig
from repro.verify import ExecutionRecorder, check_execution


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _race(*fns, reps=5):
    """Interleaved min-of-reps wall times, one per callable."""
    best = [float("inf")] * len(fns)
    for _ in range(reps):
        for i, fn in enumerate(fns):
            _, s = _timed(fn)
            if s < best[i]:
                best[i] = s
    return best


def _executor_race(app, runs, reps=3):
    """Interleaved min-of-reps executor seconds, one per ``(config,
    compiled)`` in ``runs``, each run on a freshly built workload (the
    run mutates its memory)."""
    best = [float("inf")] * len(runs)
    for _ in range(reps):
        for i, (config, compiled) in enumerate(runs):
            workload = build_app(app, preset="tiny")
            executor = TangoExecutor(
                workload.programs, config, memory=workload.memory,
                compiled=compiled,
            )
            _, s = _timed(executor.run)
            best[i] = min(best[i], s)
    return best


def test_perf_smoke():
    config = MultiprocessorConfig(trace_cpus=(0,))

    workload = build_app("lu", preset="tiny")
    compiled = TangoExecutor(
        workload.programs, config, memory=workload.memory
    )
    result = compiled.run()
    workload.verify(result.memory)
    trace = result.trace(0)

    # Run-ahead gains least where private runs between shared accesses
    # are shortest, which is pthor: gate it on its own so a per-app
    # regression cannot hide inside the lu number.
    speedups = {}
    for app in ("lu", "pthor"):
        fast_s, slow_s = _executor_race(app, [(config, True), (config, False)])
        speedups[app] = slow_s / fast_s

    # Tracing every CPU, as the co-simulation inputs do, against tracing
    # one: traced threads log a template id per block and the rows are
    # expanded once when the run ends, so the extra CPUs cost little.
    all_cpus = MultiprocessorConfig(
        trace_cpus=tuple(range(config.n_cpus)), record_sync_schedule=True
    )
    all_s, one_s = _executor_race(
        "lu", [(all_cpus, True), (config, True)], reps=5
    )

    # DS replay with every miss re-timed through the mesh backend.
    from repro.net import build_network

    ds_cfg = ProcessorConfig(kind="ds", model="RC", window=256)
    mesh = build_network("mesh", config.n_cpus, config.line_size)
    simulate(trace, ds_cfg, network=mesh)

    from repro.cosim import run_cosim
    from repro.experiments.runner import TraceStore

    cosim_cfg = ProcessorConfig(kind="ds", model="RC", window=64)

    # What sharing one contended fabric costs on top of the DS engine's
    # own work: co-simulated mesh seconds over the same traces' solo
    # ideal-fabric seconds.  16 nodes, because 4 leave the mesh nearly
    # idle; with real queueing a miss waits hundreds of cycles, and
    # fabric timing that ticks through that wait instead of jumping it
    # doubles this ratio.
    coupling_store = TraceStore(n_procs=16, preset="tiny")
    coupling_run = coupling_store.get_cosim("lu")

    def cosim_mesh(run, store, sync_mode="replay"):
        return lambda: run_cosim(
            run, cosim_cfg, network_kind="mesh",
            line_size=store.line_size, sync_mode=sync_mode,
        )

    coupled_s, solo_s = _race(
        cosim_mesh(coupling_run, coupling_store),
        lambda: [simulate(t, cosim_cfg) for t in coupling_run.traces],
    )

    # Live sync runs on the same DS engine as replayed sync: on a
    # 4-node tiny LU the ratio sits a little above 1 (an acquire re-queries
    # every cycle it waits) and doubles if live ever falls back to a
    # scalar stepper.
    cosim_store = TraceStore(n_procs=4, preset="tiny")
    crun = cosim_store.get_cosim("lu")
    live_s, replay_s = _race(
        cosim_mesh(crun, cosim_store, "live"), cosim_mesh(crun, cosim_store)
    )

    # Vectorized engines vs. their scalar oracles, on the same trace.
    # SS is the static model with the most per-row work; DS pairs the
    # event-driven engine against the per-cycle reference.
    rc = get_model("RC")
    static_fast_s, static_scalar_s = _race(
        lambda: simulate(trace, ProcessorConfig(kind="ss", model="RC")),
        lambda: simulate_ss(trace, rc),
    )
    ds_fast_s, ds_scalar_s = _race(
        lambda: simulate(trace, ds_cfg),
        lambda: simulate_ds(trace, rc, DSConfig(window=256)),
        reps=3,
    )

    # Engine and oracle must agree exactly — the cheap CI echo of the
    # full differential suite in tests/test_fastpath.py.
    for kind, oracle in (
        ("base", lambda: simulate_base(trace)),
        ("ssbr", lambda: simulate_ssbr(trace, rc, label="SSBR-RC")),
        ("ss", lambda: simulate_ss(trace, rc, label="SS-RC")),
        ("ds", lambda: simulate_ds(
            trace, rc, DSConfig(window=64), label="DS-RC-w64"
        )),
    ):
        config = ProcessorConfig(kind=kind, model="RC")
        assert simulate(trace, config) == oracle(), kind

    # The axiomatic checker accepts a freshly recorded run.
    rec_workload = build_app("lu", preset="tiny")
    recorder = ExecutionRecorder()
    rec_result = TangoExecutor(
        rec_workload.programs,
        MultiprocessorConfig(trace_cpus=()),
        memory=rec_workload.memory,
        recorder=recorder,
    ).run()
    rec_workload.verify(rec_result.memory)
    assert check_execution(recorder.log(), "SC").ok

    # Instrumentation overhead on the DS replay loop, measured on the
    # event-driven engine (where a stray per-instruction hook would be
    # catastrophic relative to the vectorized loop) and on its scalar
    # oracle, so probed differential tests stay affordable.  The disabled
    # path (a probe with metrics off and no tracer resolves to None
    # inside the models) is guarded at <=2% on each; the fully enabled
    # path (occupancy histograms + a Chrome trace span per
    # instruction) at <=60% on the fast engine.
    from repro.obs import ChromeTracer, MetricsRegistry, Probe

    fast_cfg = ProcessorConfig(kind="ds", model="RC", window=256)
    ref_cfg = DSConfig(window=256)
    plain_s, disabled_s, enabled_s = _race(
        lambda: simulate(trace, fast_cfg),
        lambda: simulate(trace, fast_cfg, probe=Probe()),
        lambda: simulate(
            trace, fast_cfg,
            probe=Probe(metrics=MetricsRegistry(), tracer=ChromeTracer()),
        ),
        reps=9,
    )
    obs_disabled_ratio = disabled_s / plain_s
    obs_enabled_ratio = enabled_s / plain_s
    ref_plain_s, ref_disabled_s = _race(
        lambda: simulate_ds(trace, rc, ref_cfg),
        lambda: simulate_ds(trace, rc, ref_cfg, probe=Probe()),
        reps=9,
    )
    obs_disabled_ratio_ref = ref_disabled_s / ref_plain_s

    # Daemon cold vs. warm: the first sweep through a fresh daemon pays
    # trace generation; a second sweep over the same traces (different
    # window) is served from the warm in-memory stores.  This is the
    # latency the simulation service exists to hide.
    import tempfile

    from repro.service import Daemon
    from repro.service.queue import JOB_DONE

    with tempfile.TemporaryDirectory() as svc_dir:
        svc = Path(svc_dir)
        daemon = Daemon(store_dir=svc / "store", cache_dir=svc / "cache")
        daemon.start()

        def _daemon_sweep(windows):
            job, _ = daemon.submit({
                "apps": ["lu"], "kinds": ["base", "ds"],
                "windows": windows, "procs": 4, "preset": "tiny",
            })
            while daemon.job(job.id).state not in (
                JOB_DONE, "failed", "cancelled"
            ):
                time.sleep(0.005)
            assert daemon.job(job.id).state == JOB_DONE
            return job

        try:
            _, daemon_cold_s = _timed(lambda: _daemon_sweep([16]))
            _, daemon_warm_s = _timed(lambda: _daemon_sweep([32]))
            trace_builds = daemon.metrics.get("trace.builds").value
            trace_warm_hits = daemon.metrics.get("trace.warm_hits").value
        finally:
            daemon.stop()

    assert len(mesh.latencies) > 0
    # The compiled interpreter must keep its run-ahead gain over the
    # reference one (measured ~8x on lu, ~2.9x on pthor), and the
    # vectorized model engines theirs over the scalar oracles (~3.6x
    # static, ~2.7x DS): floors well under those so CI noise cannot
    # flake them, but a lost fast path trips.
    assert speedups["lu"] >= 4.0, f"compiled_speedup {speedups['lu']:.2f}"
    assert speedups["pthor"] >= 1.8, (
        f"compiled_speedup_pthor {speedups['pthor']:.2f}"
    )
    # Tracing all 16 CPUs (and recording the sync schedule) costs
    # 1.06-1.25x tracing CPU 0 alone; row-at-a-time emission cost
    # 1.55-1.90x.
    all_cpu_ratio = all_s / one_s
    assert all_cpu_ratio <= 1.4, f"all_cpu_trace_ratio {all_cpu_ratio:.2f}"
    static_speedup = static_scalar_s / static_fast_s
    ds_event_speedup = ds_scalar_s / ds_fast_s
    assert static_speedup >= 2.3, f"static_speedup {static_speedup:.2f}"
    assert ds_event_speedup >= 1.6, f"ds_event_speedup {ds_event_speedup:.2f}"
    # Sharing one contended mesh costs ~1.4x the solo ideal-fabric runs;
    # fabric timing that ticked through every queueing wait would double
    # it.
    coupling_ratio = coupled_s / solo_s
    assert coupling_ratio <= 1.9, f"cosim_coupling_ratio {coupling_ratio:.2f}"
    # Live sync must stay on the engine replayed sync runs on.
    live_ratio = live_s / replay_s
    assert live_ratio <= 1.7, f"cosim_live_ratio {live_ratio:.2f}"
    # Observability off may cost at most 2% on the replay hot loop —
    # on the event-driven engine AND the scalar reference engine;
    # fully on (histograms + per-instruction spans) at most 60%.
    assert obs_disabled_ratio <= 1.02, (
        f"obs_disabled_overhead {obs_disabled_ratio:.4f}"
    )
    assert obs_disabled_ratio_ref <= 1.02, (
        f"obs_disabled_overhead_ref {obs_disabled_ratio_ref:.4f}"
    )
    assert obs_enabled_ratio <= 1.6, (
        f"obs_enabled_overhead {obs_enabled_ratio:.2f}"
    )
    # A warm daemon sweep must not regenerate traces (that is its whole
    # point) and must beat the cold sweep that built them.
    assert trace_builds == 1, trace_builds  # one lu trace, built once
    assert trace_warm_hits >= 1, trace_warm_hits
    daemon_warm_speedup = daemon_cold_s / daemon_warm_s
    assert daemon_warm_speedup >= 1.2, (
        f"daemon_warm_speedup {daemon_warm_speedup:.2f}"
    )
