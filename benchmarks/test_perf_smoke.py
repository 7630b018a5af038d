"""Performance smoke test: record core throughput numbers.

Times the hot loops everything else is gated on — the functional
interpreter (trace generation), the vectorized static-model kernels,
the event-driven DS engine (both against their scalar oracles), and
the batch cache-lookup kernel — on the tiny LU workload, and writes
the numbers to ``BENCH_core.json`` at the repository root so
successive PRs leave a performance trajectory.  Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_smoke.py -q

Ratios (speedups, instrumentation overhead) are computed from
interleaved min-of-reps samples so machine-speed drift between the two
sides of a ratio cancels out.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro import MultiprocessorConfig, TangoExecutor, build_app
from repro.consistency import get_model
from repro.cpu import (
    ProcessorConfig,
    simulate,
    simulate_base,
    simulate_ds,
    simulate_ds_fast,
    simulate_ss,
    simulate_ss_fast,
    simulate_ssbr,
)
from repro.cpu.ds import DSConfig
from repro.verify import ExecutionRecorder, check_execution

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_core.json"


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


def _interpreter_race(app, config, reps=3):
    """Interleaved min-of-reps executor seconds, compiled and reference,
    each run on a freshly built workload (the run mutates its memory)."""
    best = {True: float("inf"), False: float("inf")}
    for _ in range(reps):
        for compiled in best:
            workload = build_app(app, preset="tiny")
            executor = TangoExecutor(
                workload.programs, config, memory=workload.memory,
                compiled=compiled,
            )
            _, s = _timed(executor.run)
            best[compiled] = min(best[compiled], s)
    return best[True], best[False]


def test_perf_smoke():
    config = MultiprocessorConfig(trace_cpus=(0,))

    workload = build_app("lu", preset="tiny")
    compiled = TangoExecutor(
        workload.programs, config, memory=workload.memory
    )
    result, gen_s = _timed(compiled.run)
    workload.verify(result.memory)
    instructions = result.stats.total_instructions()
    trace = result.trace(0)
    n = len(trace)

    ref_workload = build_app("lu", preset="tiny")
    reference = TangoExecutor(
        ref_workload.programs, config, memory=ref_workload.memory,
        compiled=False,
    )
    _, ref_s = _timed(reference.run)

    # Run-ahead gains least where private runs between shared accesses
    # are shortest, which is pthor: gate it on its own so a per-app
    # regression cannot hide inside the lu number.
    speedups = {}
    for app in ("lu", "pthor"):
        fast_s, slow_s = _interpreter_race(app, config)
        speedups[app] = slow_s / fast_s

    ds_cfg = ProcessorConfig(kind="ds", model="RC", window=256)
    _, ds_s = _timed(lambda: simulate(trace, ds_cfg))

    # DS replay with every miss re-timed through the mesh backend: the
    # contention model's overhead relative to the fixed penalty.
    from repro.net import build_network

    mesh = build_network("mesh", config.n_cpus, config.line_size)
    _, mesh_s = _timed(lambda: simulate(trace, ds_cfg, network=mesh))

    # Co-simulation throughput: every processor of a 4-node tiny LU
    # stepping against one shared mesh (the fast engines' steppers),
    # in co-simulated cycles per second of wall time.
    from repro.cosim import run_cosim
    from repro.experiments.runner import TraceStore

    cosim_cfg = ProcessorConfig(kind="ds", model="RC", window=64)
    cosim_store = TraceStore(n_procs=4, preset="tiny")
    crun = cosim_store.get_cosim("lu")
    cosim_result, cosim_s = _timed(lambda: run_cosim(
        crun, cosim_cfg,
        network_kind="mesh", line_size=cosim_store.line_size,
    ))
    cosim_cycles = sum(cosim_result.cycles())

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

    # Live sync runs on the same DS engine as replayed sync: on the
    # 4-node run the ratio sits a little above 1 (an acquire re-queries
    # every cycle it waits) and doubles if live ever falls back to a
    # scalar stepper.
    live_s, replay_s = _race(
        cosim_mesh(crun, cosim_store, "live"), cosim_mesh(crun, cosim_store)
    )

    # Vectorized engines vs. their scalar oracles, on the same trace.
    # SS is the static model with the most per-row work; DS pairs the
    # event-driven engine against the per-cycle reference.
    rc = get_model("RC")
    static_fast_s, static_scalar_s = _race(
        lambda: simulate_ss_fast(trace, rc),
        lambda: simulate_ss(trace, rc),
    )
    ds_fast_s, ds_scalar_s = _race(
        lambda: simulate_ds_fast(trace, rc, DSConfig(window=256)),
        lambda: simulate_ds(trace, rc, DSConfig(window=256)),
        reps=3,
    )

    # Batch cache-lookup kernel: one vectorized set-index/tag-match
    # over the trace's whole memory-access column.
    import numpy as np

    from repro.mem.cache import EXCLUSIVE, Cache

    cols = trace.np_columns()
    addrs = cols[6][cols[9] != 0].astype(np.int64)
    probe_cache = Cache()
    for addr in addrs[: probe_cache.num_lines].tolist():
        probe_cache.install(addr, EXCLUSIVE)
    (batch_s,) = _race(lambda: probe_cache.batch_hits(addrs), reps=7)

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

    # Axiomatic-checker throughput over a freshly recorded run.
    rec_workload = build_app("lu", preset="tiny")
    recorder = ExecutionRecorder()
    rec_result = TangoExecutor(
        rec_workload.programs,
        MultiprocessorConfig(trace_cpus=()),
        memory=rec_workload.memory,
        recorder=recorder,
    ).run()
    rec_workload.verify(rec_result.memory)
    log = recorder.log()
    check, verify_s = _timed(lambda: check_execution(log, "SC"))
    assert check.ok

    # Instrumentation overhead on the DS replay loop, measured on the
    # event-driven engine (where a stray per-instruction hook would be
    # catastrophic relative to the vectorized loop) and on its scalar
    # oracle, so probed differential tests stay affordable.  The disabled
    # path (a probe with metrics off and no tracer resolves to None
    # inside the models) is guarded at <=2% on each; the fully enabled
    # path (occupancy histograms + a Chrome trace span per
    # instruction) at <=40% on the fast engine.
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
        reps=5,
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

    payload = {
        "app": "lu",
        "preset": "tiny",
        "interp_instructions": instructions,
        "interp_seconds": round(gen_s, 4),
        "interp_instr_per_s": round(instructions / gen_s),
        "interp_reference_instr_per_s": round(instructions / ref_s),
        "compiled_speedup": round(speedups["lu"], 2),
        "compiled_speedup_pthor": round(speedups["pthor"], 2),
        "ds_trace_instructions": n,
        "ds_seconds": round(ds_s, 4),
        "ds_instr_per_s": round(n / ds_s),
        "ds_mesh_seconds": round(mesh_s, 4),
        "ds_mesh_instr_per_s": round(n / mesh_s),
        "ds_mesh_misses_timed": len(mesh.latencies),
        "cosim_procs": len(cosim_result.breakdowns),
        "cosim_seconds": round(cosim_s, 4),
        "cosim_cycles_per_s": round(cosim_cycles / cosim_s),
        "cosim_coupling_ratio": round(coupled_s / solo_s, 2),
        "cosim_live_ratio": round(live_s / replay_s, 2),
        "static_instr_per_s": round(n / static_fast_s),
        "static_scalar_instr_per_s": round(n / static_scalar_s),
        "static_speedup": round(static_scalar_s / static_fast_s, 2),
        "ds_event_instr_per_s": round(n / ds_fast_s),
        "ds_scalar_instr_per_s": round(n / ds_scalar_s),
        "ds_event_speedup": round(ds_scalar_s / ds_fast_s, 2),
        "cache_batch_lookups_per_s": round(len(addrs) / batch_s),
        "verify_events": len(log),
        "verify_seconds": round(verify_s, 4),
        "verify_events_per_s": round(len(log) / verify_s),
        "obs_disabled_overhead": round(obs_disabled_ratio, 4),
        "obs_disabled_overhead_ref": round(obs_disabled_ratio_ref, 4),
        "obs_enabled_seconds": round(enabled_s, 4),
        "obs_enabled_overhead": round(obs_enabled_ratio, 2),
        "daemon_cold_seconds": round(daemon_cold_s, 4),
        "daemon_warm_seconds": round(daemon_warm_s, 4),
        "daemon_warm_speedup": round(daemon_cold_s / daemon_warm_s, 2),
        "daemon_trace_builds": trace_builds,
        "daemon_trace_warm_hits": trace_warm_hits,
        "python": sys.version.split()[0],
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    assert payload["interp_instr_per_s"] > 0
    assert payload["ds_instr_per_s"] > 0
    assert payload["ds_mesh_instr_per_s"] > 0
    assert payload["ds_mesh_misses_timed"] > 0
    assert payload["cosim_cycles_per_s"] > 0
    assert payload["cache_batch_lookups_per_s"] > 0
    assert payload["verify_events_per_s"] > 0
    # The compiled engine must never regress below the reference one.
    assert payload["compiled_speedup"] > 1.0
    assert payload["compiled_speedup_pthor"] > 1.0
    # Nor may the vectorized model engines: conservative floors well
    # under the measured ~4.5x (static) and ~1.7-2.1x (DS) so CI noise
    # cannot flake them, but any real regression to scalar parity trips.
    assert payload["static_speedup"] >= 2.0, payload["static_speedup"]
    assert payload["ds_event_speedup"] >= 1.2, payload["ds_event_speedup"]
    # Live sync must stay on the engine replayed sync runs on.
    assert payload["cosim_live_ratio"] <= 1.7, payload["cosim_live_ratio"]
    # Observability off may cost at most 2% on the replay hot loop —
    # on the event-driven engine AND the scalar reference engine;
    # fully on (histograms + per-instruction spans) at most 40%.
    assert obs_disabled_ratio <= 1.02, payload["obs_disabled_overhead"]
    assert obs_disabled_ratio_ref <= 1.02, (
        payload["obs_disabled_overhead_ref"]
    )
    assert obs_enabled_ratio <= 1.4, payload["obs_enabled_overhead"]
    # A warm daemon sweep must not regenerate traces (that is its whole
    # point) and must beat the cold sweep that built them.
    assert trace_builds == 1, trace_builds  # one lu trace, built once
    assert trace_warm_hits >= 1, trace_warm_hits
    assert payload["daemon_warm_speedup"] >= 1.2, (
        payload["daemon_warm_speedup"]
    )
