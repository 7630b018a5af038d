"""Tests for the memory-consistency verification subsystem.

Covers the three layers end to end: the execution recorder (event
capture, reads-from derivation, barrier episodes, the coherence SWMR
audit), the axiomatic checker (synthetic consistent and cyclic logs,
value and cross-location rf violations, barrier fusion), the model-aware
relaxed engine (SC soundness, store-to-load forwarding, deadlock and
runaway detection), and the litmus/app harnesses behind
``python -m repro verify``.
"""

import pytest

from repro.asm import AsmBuilder
from repro.isa import MemClass, Op
from repro.mem.cache import MODIFIED, SHARED
from repro.verify import (
    ALL_MODELS,
    CATALOG,
    ExecutionRecorder,
    RelaxedEngine,
    RelaxedExecutionError,
    check_execution,
    format_litmus_report,
    run_litmus,
    tango_crosscheck,
    verify_app,
    verify_litmus,
)
from repro.verify.recorder import RecorderError

R = int(MemClass.READ)
W = int(MemClass.WRITE)
BAR = int(MemClass.BARRIER)
LW = int(Op.LW)
SW = int(Op.SW)
BARRIER = int(Op.BARRIER)

X, Y = 0x1000, 0x1040


class TestRecorder:
    def test_bind_rejects_different_width(self):
        rec = ExecutionRecorder()
        rec.bind(4)
        rec.bind(4)  # idempotent
        with pytest.raises(RecorderError):
            rec.bind(8)

    def test_program_order_and_gid_assignment(self):
        rec = ExecutionRecorder()
        rec.bind(2)
        a = rec.record(0, 0, SW, W, X, value=1)
        b = rec.record(1, 0, SW, W, Y, value=2)
        c = rec.record(0, 1, LW, R, Y, value=2)
        assert (a.gid, b.gid, c.gid) == (0, 1, 2)
        assert (a.po, b.po, c.po) == (0, 0, 1)
        assert [e.completed for e in (a, b, c)] == [0, 1, 2]

    def test_reads_from_tracks_last_completed_write(self):
        rec = ExecutionRecorder()
        rec.bind(2)
        w1 = rec.record(0, 0, SW, W, X, value=1)
        w2 = rec.record(1, 0, SW, W, X, value=2)
        r = rec.record(0, 1, LW, R, X, value=2)
        assert r.rf == w2.gid != w1.gid

    def test_initial_read_has_no_writer(self):
        rec = ExecutionRecorder()
        rec.bind(1)
        r = rec.record(0, 0, LW, R, X, value=0)
        assert r.rf == -1

    def test_words_and_doubles_are_distinct_locations(self):
        rec = ExecutionRecorder()
        rec.bind(1)
        rec.record(0, 0, int(Op.FSD), W, X, value=1.5, wide=True)
        r = rec.record(0, 1, LW, R, X, value=0)
        assert r.rf == -1  # the double write is a different key

    def test_barrier_episodes_group_by_generation(self):
        rec = ExecutionRecorder()
        rec.bind(2)
        eps = [
            rec.record(tid, 0, BARRIER, BAR, 0x30)
            for tid in (0, 1)
        ] + [
            rec.record(tid, 1, BARRIER, BAR, 0x30)
            for tid in (1, 0)
        ]
        assert [e.episode for e in eps] == [0, 0, 1, 1]

    def test_swmr_audit_flags_two_owners(self):
        rec = ExecutionRecorder()
        rec.bind(2)
        rec.coherence_event("install", 0, 0x100, MODIFIED)
        rec.coherence_event("install", 1, 0x100, SHARED)
        assert rec.audit_violations
        assert "SWMR" in rec.audit_violations[0]

    def test_invalidate_then_install_is_clean(self):
        rec = ExecutionRecorder()
        rec.bind(2)
        rec.coherence_event("install", 0, 0x100, MODIFIED)
        rec.coherence_event("invalidate", 0, 0x100, True)
        rec.coherence_event("install", 1, 0x100, MODIFIED)
        assert rec.audit_violations == []


def _sb_log(complete_writes_last: bool):
    """Build an SB log; delayed write completion makes it non-SC."""
    rec = ExecutionRecorder()
    rec.bind(2)
    if complete_writes_last:
        wx = rec.begin(0, 0, SW, W, X, value=1)
        rec.record(0, 1, LW, R, Y, value=0)
        wy = rec.begin(1, 0, SW, W, Y, value=1)
        rec.record(1, 1, LW, R, X, value=0)
        rec.complete(wx)
        rec.complete(wy)
    else:
        rec.record(0, 0, SW, W, X, value=1)
        rec.record(0, 1, LW, R, Y, value=0)
        rec.record(1, 0, SW, W, Y, value=1)
        rec.record(1, 1, LW, R, X, value=1)
    return rec.log()


class TestChecker:
    def test_interleaved_sb_is_sequentially_consistent(self):
        log = _sb_log(complete_writes_last=False)
        for model in ALL_MODELS:
            assert check_execution(log, model).ok

    def test_buffered_sb_cycles_under_sc_only(self):
        log = _sb_log(complete_writes_last=True)
        result = check_execution(log, "SC")
        assert not result.ok
        (violation,) = result.violations
        assert violation.kind == "cycle"
        labels = {label for _, label in violation.cycle}
        assert "po[SC]" in labels and "fr-init" in labels
        for model in ("PC", "WO", "RC"):
            assert check_execution(log, model).ok

    def test_cycle_report_names_events(self):
        result = check_execution(_sb_log(True), "SC")
        text = result.violations[0].format()
        assert "SW" in text and "LW" in text and "pc=" in text
        assert "... back to" in text

    def test_value_mismatch_reported(self):
        rec = ExecutionRecorder()
        rec.bind(1)
        rec.record(0, 0, SW, W, X, value=5)
        rec.record(0, 1, LW, R, X, value=7)
        result = check_execution(rec.log(), "SC")
        assert any(v.kind == "value" for v in result.violations)

    def test_rf_across_locations_reported(self):
        rec = ExecutionRecorder()
        rec.bind(1)
        w = rec.record(0, 0, SW, W, X, value=5)
        rec.record(0, 1, LW, R, Y, value=5, rf_event=w)
        result = check_execution(rec.log(), "SC")
        assert any(
            v.kind == "value" and "crosses locations" in v.message
            for v in result.violations
        )

    def test_stale_read_after_barrier_cycles_under_every_model(self):
        rec = ExecutionRecorder()
        rec.bind(2)
        rec.record(0, 0, SW, W, X, value=1)
        rec.record(0, 1, BARRIER, BAR, 0x30)
        rec.record(1, 0, BARRIER, BAR, 0x30)
        rec.record(1, 1, LW, R, X, value=0, rf_event=None)
        for model in ALL_MODELS:  # barriers order under RC too
            result = check_execution(rec.log(), model)
            assert not result.ok
            (violation,) = result.violations
            descs = [d for d, _ in violation.cycle]
            assert "barrier-episode" in descs

    def test_coherence_audit_becomes_violation(self):
        rec = ExecutionRecorder()
        rec.bind(2)
        rec.coherence_event("install", 0, 0x100, MODIFIED)
        rec.coherence_event("install", 1, 0x100, MODIFIED)
        result = check_execution(rec.log(), "SC")
        assert any(
            v.kind == "coherence-audit" for v in result.violations
        )

    def test_empty_log_is_consistent(self):
        rec = ExecutionRecorder()
        rec.bind(1)
        assert check_execution(rec.log(), "SC").ok


class TestRelaxedEngine:
    def test_sc_never_shows_store_buffering(self):
        test = CATALOG["sb"]
        for seed in range(100):
            programs, observers = test.build()
            engine = RelaxedEngine(programs, model="SC", seed=seed)
            log = engine.run()
            r0 = engine.states[0].regs[observers[0][2]]
            r1 = engine.states[1].regs[observers[1][2]]
            assert (r0, r1) != (0, 0)
            assert check_execution(log, "SC").ok

    def test_every_model_accepts_its_own_executions(self):
        for model in ALL_MODELS:
            for seed in range(25):
                programs, _ = CATALOG["mp"].build()
                engine = RelaxedEngine(programs, model=model, seed=seed)
                log = engine.run()
                assert check_execution(log, model).ok, (model, seed)

    @staticmethod
    def _forwarding_program():
        b = AsmBuilder("fwd")
        a = b.ireg("a")
        v = b.ireg("v")
        r = b.ireg("r")
        b.la(a, X)
        b.li(v, 7)
        b.sw(v, a)
        b.lw(r, a)
        b.halt()
        return [b.build()], int(r)

    def test_store_to_load_forwarding(self):
        saw_forward = saw_drained = False
        for seed in range(40):
            programs, r = self._forwarding_program()
            engine = RelaxedEngine(programs, model="PC", seed=seed)
            log = engine.run()
            assert engine.states[0].regs[r] == 7
            store, load = (
                e for e in log.events if e.cls in (W, R)
            )
            assert load.rf == store.gid  # forwarded or via memory
            if load.completed < store.completed:
                saw_forward = True  # read performed under the buffered store
            else:
                saw_drained = True
        assert saw_forward and saw_drained

    def test_blocked_sync_deadlock_raises(self):
        b = AsmBuilder("stuck")
        a = b.ireg("a")
        b.la(a, 0x40)
        b.evwait(a)
        b.halt()
        engine = RelaxedEngine([b.build()], model="SC", seed=0)
        with pytest.raises(RelaxedExecutionError, match="deadlock"):
            engine.run()

    def test_runaway_execution_raises(self, monkeypatch):
        from repro.verify import relaxed

        monkeypatch.setattr(relaxed, "MAX_STEPS", 500)
        b = AsmBuilder("spin")
        top = b.label(b.newlabel("top"))
        b.j(top)
        b.halt()
        engine = RelaxedEngine([b.build()], model="SC", seed=0)
        with pytest.raises(RelaxedExecutionError, match="exceeded 500"):
            engine.run()

    def test_locks_serialize_increments_under_rc(self):
        programs, observers = CATALOG["inc"].build()
        for seed in range(10):
            programs, observers = CATALOG["inc"].build()
            engine = RelaxedEngine(programs, model="RC", seed=seed)
            log = engine.run()
            addr = observers[0][1]
            assert engine.memory.read_word(addr) == len(programs)
            assert check_execution(log, "RC").ok


class TestLitmusHarness:
    def test_sb_clean_under_sc(self):
        result = run_litmus("sb", "SC", schedules=60, seed=0)
        assert result.ok
        assert (0, 0) not in result.outcomes
        assert result.demo_cycle is None

    def test_sb_demo_cycle_under_pc(self):
        result = run_litmus("sb", "PC", schedules=60, seed=0)
        assert result.ok
        assert (0, 0) in result.outcomes
        assert result.demo_cycle is not None
        assert "fr-init" in result.demo_cycle

    def test_mp_relaxed_outcome_under_wo(self):
        result = run_litmus("mp", "WO", schedules=100, seed=0)
        assert result.ok
        assert (0,) in result.outcomes

    def test_forbidden_outcome_is_flagged(self):
        # Annotate an outcome that *does* occur as forbidden: the
        # harness must catch it (guards the detection machinery).
        from dataclasses import replace

        bad = replace(
            CATALOG["mp"],
            forbidden={"WO": frozenset({(0,), (42,)})},
        )
        result = run_litmus(bad, "WO", schedules=50, seed=0)
        assert not result.ok
        assert any("forbidden" in v for v in result.violations)

    def test_missing_expected_outcome_is_flagged(self):
        from dataclasses import replace

        bad = replace(
            CATALOG["sb"], expect_observed={"SC": (0, 0)}
        )
        result = run_litmus(bad, "SC", schedules=60, seed=0)
        assert any("never appeared" in v for v in result.violations)

    def test_few_schedules_do_not_demand_expected_outcome(self):
        from dataclasses import replace

        lenient = replace(
            CATALOG["sb"], expect_observed={"SC": (0, 0)}
        )
        result = run_litmus(lenient, "SC", schedules=5, seed=0)
        assert result.ok  # below MIN_SCHEDULES_FOR_EXPECT

    def test_catalog_subset_report(self):
        results = verify_litmus(
            names=("sb",), models=("SC", "PC"), schedules=60, seed=0
        )
        assert all(r.ok for r in results)
        report = format_litmus_report(results)
        assert "[sb/SC] ok" in report and "[sb/PC] ok" in report
        assert "provably non-SC" in report

    def test_parallel_jobs_match_serial(self):
        serial = verify_litmus(
            names=("sb", "inc"), models=("SC",), schedules=20, seed=3
        )
        parallel = verify_litmus(
            names=("sb", "inc"), models=("SC",), schedules=20, seed=3,
            jobs=2,
        )
        assert [(r.test, r.model, r.outcomes, r.violations)
                for r in serial] == \
               [(r.test, r.model, r.outcomes, r.violations)
                for r in parallel]


class TestAppHarness:
    def test_lu_verifies_under_every_model(self):
        result = verify_app("lu", n_procs=4)
        assert result.ok
        assert result.functional_ok
        assert result.n_events > 0
        assert result.n_coherence_events > 0
        assert set(result.checks) == set(ALL_MODELS)
        assert "ok" in result.format()

    def test_tango_crosscheck_accepts_all_models(self):
        checks = tango_crosscheck("mp")
        assert set(checks) == set(ALL_MODELS)
        assert all(c.ok for c in checks.values())


class TestOOOIssue:
    """Out-of-order issue mode: the decode window over loads/stores."""

    def test_lb_reordering_appears_under_rc_never_under_sc(self):
        relaxed = run_litmus("lb", "RC", schedules=150, seed=0, ooo=True)
        assert relaxed.ok
        assert (1, 1) in relaxed.outcomes
        assert relaxed.demo_cycle is not None  # provably non-SC
        strict = run_litmus("lb", "SC", schedules=150, seed=0, ooo=True)
        assert strict.ok
        assert (1, 1) not in strict.outcomes

    def test_iriw_reordering_appears_under_rc_never_under_sc(self):
        relaxed = run_litmus(
            "iriw", "RC", schedules=400, seed=0, ooo=True
        )
        assert relaxed.ok
        assert (1, 0, 1, 0) in relaxed.outcomes
        assert relaxed.demo_cycle is not None
        strict = run_litmus(
            "iriw", "SC", schedules=400, seed=0, ooo=True
        )
        assert strict.ok
        assert (1, 0, 1, 0) not in strict.outcomes

    def test_pc_keeps_load_order_with_ooo(self):
        for test, forbidden in (("lb", (1, 1)), ("iriw", (1, 0, 1, 0))):
            result = run_litmus(test, "PC", schedules=150, seed=0,
                                ooo=True)
            assert result.ok
            assert forbidden not in result.outcomes

    def test_checker_accepts_every_ooo_execution(self):
        # Violations would include checker rejections; the full catalog
        # must stay clean under OOO issue for every model.
        for result in verify_litmus(schedules=40, seed=5, ooo=True):
            assert result.ok, result.format()

    def test_register_dependence_blocks_reordering(self):
        # A load feeding a dependent store's address must issue first:
        # the window stops decoding at the RAW, so the pair can never
        # produce a value the in-order engine could not.
        b0 = AsmBuilder("dep_w")
        a = b0.ireg("a")
        v = b0.ireg("v")
        b0.la(a, X)
        b0.li(v, 0x2000)
        b0.sw(v, a)
        b0.halt()
        b1 = AsmBuilder("dep_r")
        a = b1.ireg("a")
        p = b1.ireg("p")
        one = b1.ireg("one")
        b1.la(a, X)
        b1.li(one, 1)
        b1.lw(p, a)          # p = mem[X] (0 or 0x2000)
        skip = b1.newlabel("skip")
        b1.beqz(p, skip)
        b1.sw(one, p)        # store through the loaded pointer
        b1.label(skip)
        b1.halt()
        for seed in range(60):
            engine = RelaxedEngine(
                [b0.build(), b1.build()], model="RC", seed=seed, ooo=True,
            )
            engine.run()  # would fault on a bogus address if reordered

    def test_store_forwarding_still_works_with_ooo(self):
        b = AsmBuilder("fwd")
        a = b.ireg("a")
        v = b.ireg("v")
        r = b.ireg("r")
        b.la(a, X)
        b.li(v, 7)
        b.sw(v, a)
        b.lw(r, a)  # same address: must wait for (and see) the store
        b.halt()
        for seed in range(40):
            engine = RelaxedEngine([b.build()], model="RC", seed=seed,
                                   ooo=True)
            log = engine.run()
            assert engine.states[0].regs[int(r)] == 7
            assert check_execution(log, "RC").ok
