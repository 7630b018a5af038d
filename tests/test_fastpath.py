"""Differential and determinism tests for the fast paths.

The compiled-dispatch interpreter and the process-pool experiment
fan-out are pure performance work: both must reproduce the reference
results exactly — trace for trace, counter for counter, byte for byte.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import record, reference_stepper
from trace_helpers import TraceBuilder

from repro import MultiprocessorConfig, TangoExecutor, build_app
from repro.apps import APP_NAMES
from repro.cli import main
from repro.consistency import get_model
from repro.cosim import build_node, run_cosim
from repro.experiments import (
    TraceStore,
    figure3_configs,
    generate_traces,
    run_miss_analysis,
    run_sc_boost,
    simulate_app_models,
)
from repro.cpu import (
    DSProcessor,
    ProcessorConfig,
    drive,
    make_stepper,
    simulate,
    simulate_base,
    simulate_base_fast,
    simulate_ds,
    simulate_ds_fast,
    simulate_ss,
    simulate_ss_fast,
    simulate_ssbr,
    simulate_ssbr_fast,
)
from repro.cpu.ds import DSConfig
from repro.net import build_network
from repro.obs import ChromeTracer, MetricsRegistry, Probe, run_profile
from repro.service import sweep_from_request
from repro.tango.trace import TRACE_FORMAT_VERSION
from repro.verify import ExecutionRecorder

MODELS = ("SC", "PC", "WO", "RC")


def _run(app: str, compiled: bool, network: str = "ideal", probe=None):
    workload = build_app(app, preset="tiny")
    config = MultiprocessorConfig(trace_cpus=(0, 1), network=network)
    result = TangoExecutor(
        workload.programs, config, memory=workload.memory,
        compiled=compiled, probe=probe,
    ).run()
    workload.verify(result.memory)
    return result


class TestCompiledDispatch:
    """The threaded-code engine is an exact drop-in for the reference."""

    @pytest.mark.parametrize("app", APP_NAMES)
    def test_traces_and_stats_match_reference(self, app):
        fast = _run(app, compiled=True)
        ref = _run(app, compiled=False)
        assert fast.stats == ref.stats
        for cpu in (0, 1):
            assert fast.trace(cpu) == ref.trace(cpu)


class TestRecordedCompiledDispatch:
    """Recording must not perturb the fast path — and both engines must
    emit the *identical* global event log, coherence stream included."""

    @staticmethod
    def _record(app: str, compiled: bool):
        workload = build_app(app, preset="tiny")
        recorder = ExecutionRecorder()
        config = MultiprocessorConfig(trace_cpus=())
        result = TangoExecutor(
            workload.programs, config, memory=workload.memory,
            compiled=compiled, recorder=recorder,
        ).run()
        workload.verify(result.memory)
        return result, recorder.log()

    @pytest.mark.parametrize("app", APP_NAMES)
    def test_compiled_log_matches_reference(self, app):
        fast_result, fast_log = self._record(app, compiled=True)
        ref_result, ref_log = self._record(app, compiled=False)
        assert fast_result.stats == ref_result.stats
        assert fast_log.n_threads == ref_log.n_threads
        assert len(fast_log) == len(ref_log) > 0
        assert fast_log.events == ref_log.events
        assert fast_log.coherence == ref_log.coherence
        assert fast_log.audit_violations == []
        assert ref_log.audit_violations == []

    def test_recording_does_not_change_unrecorded_results(self):
        recorded, _ = self._record("lu", compiled=True)
        bare = _run("lu", compiled=True)
        assert recorded.stats == bare.stats


class TestParallelFanOut:
    """`--jobs N` changes wall time only, never results."""

    @pytest.fixture()
    def cache_dir(self, tmp_path):
        return tmp_path / "traces"

    def test_parallel_generation_matches_serial(self, cache_dir):
        parallel = TraceStore(preset="tiny", cache_dir=cache_dir)
        runs_par = generate_traces(parallel, jobs=2)
        serial = TraceStore(preset="tiny", cache_dir=None)
        runs_ser = generate_traces(serial, jobs=1)
        for par, ser in zip(runs_par, runs_ser):
            assert par.app == ser.app
            assert par.trace == ser.trace
            assert par.stats == ser.stats
            assert par.base == ser.base

    def test_parallel_sims_match_serial(self, cache_dir):
        store = TraceStore(preset="tiny", cache_dir=cache_dir)
        configs = figure3_configs()
        par = simulate_app_models(store, configs, jobs=2)
        ser = simulate_app_models(store, configs, jobs=1)
        assert list(par) == list(ser)
        assert par == ser
        # Single-app fan-out chunks the config list instead.
        one_par = simulate_app_models(
            store, configs, apps=("lu",), jobs=3
        )
        one_ser = simulate_app_models(
            store, configs, apps=("lu",), jobs=1
        )
        assert one_par == one_ser

    def test_cli_jobs_output_identical(self, cache_dir, capsys):
        argv = ["--preset", "tiny", "--cache-dir", str(cache_dir)]
        main(argv + ["figure3", "--jobs", "2"])
        first = capsys.readouterr().out
        main(argv + ["figure3", "--jobs", "2"])
        second = capsys.readouterr().out
        main(argv + ["figure3"])
        serial = capsys.readouterr().out
        assert first == second == serial


class TestProbeByteIdentity:
    """An attached `repro.obs.Probe` only observes — every simulated
    result must be byte-identical with instrumentation on or off."""

    @staticmethod
    def _probe():
        return Probe(metrics=MetricsRegistry(), tracer=ChromeTracer())

    @pytest.mark.parametrize("network", ("ideal", "mesh"))
    def test_executor_results_unchanged(self, network):
        probe = self._probe()
        instrumented = _run("lu", compiled=True, network=network,
                            probe=probe)
        bare = _run("lu", compiled=True, network=network)
        assert instrumented.stats == bare.stats
        for cpu in (0, 1):
            assert instrumented.trace(cpu) == bare.trace(cpu)
        # ... and the probe actually saw the run.
        assert probe.metrics.counter("cache.total.reads").value > 0
        assert len(probe.tracer) > 0

    @pytest.mark.parametrize("network", ("ideal", "mesh"))
    @pytest.mark.parametrize("kind", ("base", "ssbr", "ss", "ds"))
    def test_model_breakdowns_unchanged(self, kind, network):
        trace = _run("lu", compiled=True).trace(0)
        config = ProcessorConfig(kind=kind, model="RC", window=64)

        def breakdown(probe):
            net = build_network(network, 8, 16)
            return simulate(trace, config, network=net, probe=probe)

        assert breakdown(self._probe()) == breakdown(None)


@pytest.fixture(scope="module")
def lu_trace():
    """One real tiny-preset trace, shared by the differential tests."""
    return _run("lu", compiled=True).trace(0)


class TestStaticFastEngines:
    """`static_fast` batch kernels vs. the scalar BASE/SSBR/SS models."""

    def test_base_matches_scalar(self, lu_trace):
        assert simulate_base_fast(lu_trace) == simulate_base(lu_trace)

    @pytest.mark.parametrize("model_name", MODELS)
    @pytest.mark.parametrize("network", ("ideal", "mesh"))
    def test_ssbr_ss_match_scalar(self, lu_trace, model_name, network):
        model = get_model(model_name)

        def net():
            return (None if network == "ideal"
                    else build_network("mesh", 16, 16))

        assert (simulate_ssbr_fast(lu_trace, model, network=net())
                == simulate_ssbr(lu_trace, model, network=net()))
        assert (simulate_ss_fast(lu_trace, model, network=net())
                == simulate_ss(lu_trace, model, network=net()))


class TestDSEventEngine:
    """The event-driven DS engine vs. the per-cycle scalar oracle."""

    @pytest.mark.parametrize("model_name", MODELS)
    @pytest.mark.parametrize("network", ("ideal", "mesh"))
    def test_matches_scalar_oracle(self, lu_trace, model_name, network):
        model = get_model(model_name)
        for kw in (
            dict(window=16),
            dict(window=64),
            dict(window=256),
            dict(window=64, prefetch=True),
            dict(window=64, speculative_loads=True),
            dict(window=64, perfect_branch_prediction=True),
            dict(window=64, ignore_data_dependences=True),
            dict(window=32, issue_width=4),
            dict(window=64, store_buffer_depth=4),
        ):
            def net():
                return (None if network == "ideal"
                        else build_network("mesh", 16, 16))

            ref = simulate_ds(
                lu_trace, model, DSConfig(**kw), network=net()
            )
            fast = simulate_ds_fast(
                lu_trace, model, DSConfig(**kw), network=net()
            )
            assert fast == ref, kw

    @pytest.mark.parametrize("network", ("ideal", "mesh"))
    def test_probe_stream_matches_scalar(self, lu_trace, network):
        """Instrumented runs agree on everything the probe records:
        occupancy histograms, retire spans (deferred without a network,
        interleaved with miss spans behind one), and the breakdown."""
        model = get_model("RC")

        def run(fn):
            net = (None if network == "ideal"
                   else build_network("mesh", 16, 16))
            probe = Probe(metrics=MetricsRegistry(), tracer=ChromeTracer())
            if net is not None:
                net.attach_probe(probe)
            breakdown = fn(
                lu_trace, model, DSConfig(window=64), probe=probe,
                network=net,
            )
            return breakdown, probe

        ref_bd, ref_probe = run(simulate_ds)
        fast_bd, fast_probe = run(simulate_ds_fast)
        assert fast_bd == ref_bd
        assert (fast_probe.metrics.snapshot()
                == ref_probe.metrics.snapshot())
        assert fast_probe.tracer.events == ref_probe.tracer.events
        assert fast_probe.span_budget == ref_probe.span_budget

    def test_miss_stats_match_scalar(self, lu_trace):
        """`collect_miss_stats`: the issue delay of every read miss, in
        issue order, as the oracle records them on its processor."""
        config = DSConfig(
            window=64, perfect_branch_prediction=True,
            collect_miss_stats=True,
        )
        model = get_model("RC")
        oracle = DSProcessor(lu_trace, model, config)
        ref = oracle.run()
        fast = simulate_ds_fast(lu_trace, model, config)
        delays = fast.extras.pop("read_miss_issue_delays")
        assert delays == oracle.read_miss_issue_delays
        assert len(delays) == lu_trace.read_misses() > 0
        assert fast == ref


def _raise_oracle(*args, **kwargs):
    raise AssertionError("the product executed a scalar oracle")


class TestEngineSelection:
    """One engine runs; its scalar oracle is only ever a reference."""

    @pytest.mark.parametrize("kind", ("base", "ssbr", "ss", "ds"))
    def test_reference_engine_equivalent(self, lu_trace, kind):
        config = ProcessorConfig(kind=kind, model="WO", window=64)
        assert simulate(lu_trace, config) == drive(
            reference_stepper(lu_trace, config), cpu=lu_trace.cpu
        )

    def test_unknown_engine_rejected(self, lu_trace):
        # There is no engine to name any more: the word is an unknown
        # field wherever a configuration comes in from outside.
        with pytest.raises(TypeError, match="engine"):
            ProcessorConfig(engine="reference")
        with pytest.raises(ValueError, match="engine"):
            sweep_from_request({"apps": ["lu"], "engine": "fast"})
        with pytest.raises(ValueError, match="engine"):
            sweep_from_request(
                {"jobs": [{"app": "lu", "engine": "fast"}]}
            )
        # Standalone and co-simulated runs share one dispatch: neither
        # may fall back to some kind the caller did not name.
        for run in (simulate, build_node):
            with pytest.raises(ValueError, match="kind"):
                run(lu_trace, ProcessorConfig(kind="vliw"))

    def test_product_never_executes_an_oracle(self, monkeypatch, tmp_path):
        """With every scalar stepper booby-trapped, each product surface
        still runs: standalone (probed or not), co-simulated (replayed
        and live sync), `profile`, and experiments E10 and E12."""
        from repro.cpu import base, static
        from repro.cpu.ds import engine

        # Swap the code, not the module attribute, so a reference
        # imported by name anywhere is trapped as well.
        for oracle in (
            base.base_stepper, static.ssbr_stepper, static.ss_stepper
        ):
            monkeypatch.setattr(oracle, "__code__", _raise_oracle.__code__)
        monkeypatch.setattr(engine.DSProcessor, "steps", _raise_oracle)

        store = TraceStore(
            n_procs=4, preset="tiny", cache_dir=tmp_path / "traces"
        )
        trace = store.get("lu").trace
        crun = store.get_cosim("lu")
        with pytest.raises(AssertionError, match="oracle"):
            base.simulate_base(trace)  # the traps are live
        for kind in ("base", "ssbr", "ss", "ds"):
            config = ProcessorConfig(kind=kind, model="SC", window=16)
            probe = Probe(metrics=MetricsRegistry(), tracer=ChromeTracer())
            assert simulate(trace, config) == simulate(
                trace, config, probe=probe
            )
            for sync_mode in ("replay", "live"):
                result = run_cosim(
                    crun, config, network_kind="mesh",
                    line_size=store.line_size, sync_mode=sync_mode,
                )
                assert all(c > 0 for c in result.cycles())
        for kind in ("ss", "ds"):
            profile = run_profile(
                "lu", store, kind=kind, out_dir=tmp_path / "profiles"
            )
            assert profile.ok, profile.errors
        assert all(r.issue_delays for r in run_miss_analysis(store))
        assert len(run_sc_boost(store, apps=("lu",))["lu"]) == 6


@st.composite
def small_traces(draw):
    """Random short traces mixing every memory class and sync episodes."""
    tb = TraceBuilder()
    regs = st.integers(-1, 5)
    stalls = st.sampled_from((0, 0, 0, 1, 5, 18, 50))
    addrs = st.builds(lambda k: 0x1000 + 16 * k, st.integers(0, 7))
    n = draw(st.integers(1, 30))
    for _ in range(n):
        kind = draw(st.sampled_from((
            "alu", "alu", "fp", "load", "load", "store", "branch",
            "acquire", "release", "barrier",
        )))
        if kind == "alu":
            tb.alu(rd=draw(regs), rs1=draw(regs), rs2=draw(regs))
        elif kind == "fp":
            tb.fp(rd=draw(regs), rs1=draw(regs), rs2=draw(regs))
        elif kind == "load":
            tb.load(rd=draw(regs), rs1=draw(regs), addr=draw(addrs),
                    stall=draw(stalls))
        elif kind == "store":
            tb.store(rs2=draw(regs), rs1=draw(regs), addr=draw(addrs),
                     stall=draw(stalls))
        elif kind == "branch":
            tb.branch(taken=draw(st.booleans()), rs1=draw(regs),
                      rs2=draw(regs))
        elif kind == "acquire":
            tb.acquire(addr=draw(addrs), stall=draw(stalls),
                       wait=draw(st.sampled_from((0, 0, 2, 9))))
        elif kind == "release":
            tb.release(addr=draw(addrs), stall=draw(stalls))
        else:
            tb.barrier(addr=draw(addrs), stall=draw(stalls),
                       wait=draw(st.sampled_from((0, 0, 4))))
    return tb.build()


def _stepper_configs():
    yield ProcessorConfig(kind="base")
    for name in MODELS:
        for kind in ("ssbr", "ss", "ds"):
            yield ProcessorConfig(kind=kind, model=name, window=16)


class TestStepperContract:
    """What co-simulation rests on: whatever answers it is given, a
    fast stepper makes exactly the requests of its scalar oracle —
    every miss, acquire and release, every field, at the same cycle, in
    the same order — and returns the same breakdown.  Sync is answered
    from the trace (replay) and from a seeded function that mixes
    zeros, positive waits and, for DS, runs of PENDING (live)."""

    @staticmethod
    def check(trace, config, coupled):
        pending_ok = config.kind == "ds"
        for live in (False, True):
            fast, ref = (
                record(
                    build(trace, config, coupled=coupled, live_sync=live),
                    live=live, pending_ok=pending_ok,
                )
                for build in (make_stepper, reference_stepper)
            )
            assert fast == ref, (config.label(), coupled, live)
        return fast

    @pytest.mark.parametrize("coupled", (False, True))
    @pytest.mark.parametrize(
        "config", _stepper_configs(), ids=ProcessorConfig.label
    )
    def test_same_requests_as_scalar_stepper(
        self, lu_trace, config, coupled
    ):
        requests, _ = self.check(lu_trace, config, coupled)
        kinds = {req[0] for req in requests}
        # The tiny LU trace misses, synchronizes and releases.
        assert kinds == {"MemRequest", "SyncRequest", "ReleaseNotify"}
        if config.kind == "ds":
            # ... and the live driver did make the DS model re-query.
            asked = [req[1:3] for req in requests if req[0] == "SyncRequest"]
            assert len(asked) > len(set(asked))

    @given(trace=small_traces())
    @settings(max_examples=40, deadline=None)
    def test_same_requests_on_arbitrary_traces(self, trace):
        for config in _stepper_configs():
            for coupled in (False, True):
                self.check(trace, config, coupled)

    @pytest.mark.parametrize("live", (False, True), ids=("replay", "live"))
    @pytest.mark.parametrize("coupled", (False, True))
    @pytest.mark.parametrize(
        "config",
        [
            ProcessorConfig(kind="ssbr", model="PC"),
            ProcessorConfig(kind="ss", model="SC"),
            ProcessorConfig(kind="ss", model="RC"),
            ProcessorConfig(kind="ds", model="RC", window=16),
        ],
        ids=ProcessorConfig.label,
    )
    def test_probes_record_the_same(self, lu_trace, config, coupled, live):
        """Instrumented, the two sides also leave the same histogram
        snapshots, the same tracer events and the same span budget."""
        def observe(build):
            probe = Probe(
                metrics=MetricsRegistry(), tracer=ChromeTracer(),
                span_limit=2_000,
            )
            stepper = build(
                lu_trace, config, coupled=coupled, live_sync=live,
                probe=probe,
            )
            outcome = record(
                stepper, live=live, pending_ok=config.kind == "ds"
            )
            return (
                outcome, probe.metrics.snapshot(), probe.tracer.events,
                probe.span_budget,
            )

        fast, ref = observe(make_stepper), observe(reference_stepper)
        assert fast == ref
        assert any(h["count"] for h in fast[1]["histograms"].values())


class TestFastpathFuzz:
    """Property-based differential: on arbitrary small traces, every
    fast engine must agree with its scalar oracle, for every model."""

    @given(trace=small_traces())
    @settings(max_examples=60, deadline=None)
    def test_all_models_match_scalar(self, trace):
        assert simulate_base_fast(trace) == simulate_base(trace)
        for name in MODELS:
            model = get_model(name)
            assert (simulate_ssbr_fast(trace, model)
                    == simulate_ssbr(trace, model))
            assert (simulate_ss_fast(trace, model)
                    == simulate_ss(trace, model))
            for kw in (
                dict(window=4),
                dict(window=16, issue_width=2),
                dict(window=8, store_buffer_depth=2),
            ):
                fast = simulate_ds_fast(trace, model, DSConfig(**kw))
                ref = simulate_ds(trace, model, DSConfig(**kw))
                assert fast == ref, (name, kw)


class TestTraceRoundTrip:
    """Trace pickling is byte-stable and the zero-copy views survive."""

    def test_pickle_round_trip_byte_identity(self, lu_trace):
        blob = pickle.dumps(lu_trace, protocol=pickle.HIGHEST_PROTOCOL)
        clone = pickle.loads(blob)
        assert clone == lu_trace
        reblob = pickle.dumps(clone, protocol=pickle.HIGHEST_PROTOCOL)
        assert reblob == blob
        for ours, theirs in zip(lu_trace.np_columns(), clone.np_columns()):
            assert ours.dtype == theirs.dtype
            assert np.array_equal(ours, theirs)

    def test_fastpath_cache_never_pickled(self, lu_trace):
        # Populate the derived-index cache, then make sure the pickle
        # neither carries it nor resurrects it.
        simulate_ds_fast(lu_trace, get_model("RC"), DSConfig(window=16))
        assert lu_trace.fastpath_cache is not None
        state = lu_trace.__getstate__()
        assert set(state) == {"version", "cpu", "columns"}
        clone = pickle.loads(pickle.dumps(lu_trace))
        assert clone.fastpath_cache is None


class TestCacheVersioning:
    """Trace pickles carry their schema + simulation parameters."""

    def test_key_covers_all_parameters(self, tmp_path):
        base = TraceStore(preset="tiny", cache_dir=tmp_path)
        assert f"_v{TRACE_FORMAT_VERSION}_" in base._cache_path("lu").name
        variants = [
            TraceStore(preset="tiny", cache_dir=tmp_path, line_size=32),
            TraceStore(preset="tiny", cache_dir=tmp_path,
                       sync_access_latency=25),
            TraceStore(preset="tiny", cache_dir=tmp_path, miss_penalty=100),
            TraceStore(preset="tiny", cache_dir=tmp_path,
                       cache_size=128 * 1024),
            TraceStore(preset="default", cache_dir=tmp_path),
            TraceStore(preset="tiny", cache_dir=tmp_path, n_procs=8),
            TraceStore(preset="tiny", cache_dir=tmp_path, trace_cpu=1),
        ]
        paths = {s._cache_path("lu") for s in [base, *variants]}
        assert len(paths) == len(variants) + 1

    def test_corrupt_pickle_regenerates(self, tmp_path):
        store = TraceStore(preset="tiny", cache_dir=tmp_path)
        run = store.get("lu")
        path = store._cache_path("lu")
        path.write_bytes(b"not a pickle")
        fresh = TraceStore(preset="tiny", cache_dir=tmp_path)
        reloaded = fresh.get("lu")
        assert reloaded.trace == run.trace
        # The bad file was replaced with a good one.
        third = TraceStore(preset="tiny", cache_dir=tmp_path)
        assert third.get("lu").trace == run.trace
