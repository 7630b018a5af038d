"""Whole-application verification through the recorded Tango executor.

The Tango host performs every access against the single functional store
in virtual-time order, so its recorded executions are sequentially
consistent by construction — every model's axioms must accept them, and
the coherence-event audit must stay clean.  Running the five benchmark
applications through the checker is therefore a *regression oracle*: a
future executor or protocol change that silently reorders or corrupts
events turns up as a happens-before cycle, an rf value mismatch, or an
SWMR audit entry.

The litmus cross-check at the bottom runs a litmus program on the Tango
executor (rather than the relaxed engine) for the same reason: the
resulting log must pass under *every* model.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..apps import build_app
from ..service.pool import run_jobs
from ..tango.executor import MultiprocessorConfig, TangoExecutor
from .checker import CheckResult, check_execution
from .litmus import ALL_MODELS, CATALOG
from .recorder import ExecutionRecorder


@dataclass
class AppVerifyResult:
    """Per-application verification outcome across models."""

    app: str
    n_events: int
    n_coherence_events: int
    checks: dict[str, CheckResult]
    functional_ok: bool

    @property
    def ok(self) -> bool:
        return self.functional_ok and all(
            c.ok for c in self.checks.values()
        )

    def format(self) -> str:
        status = "ok" if self.ok else "FAIL"
        models = ", ".join(
            f"{name}={'ok' if c.ok else 'FAIL'}"
            for name, c in self.checks.items()
        )
        lines = [
            f"[{self.app}] {status}: {self.n_events} events, "
            f"{self.n_coherence_events} coherence events, "
            f"functional={'ok' if self.functional_ok else 'FAIL'}, "
            f"{models}"
        ]
        for check in self.checks.values():
            if not check.ok:
                lines.append(check.format())
        return "\n".join(lines)


def verify_app(
    app: str,
    models=ALL_MODELS,
    n_procs: int = 8,
    preset: str = "tiny",
    miss_penalty: int = 50,
) -> AppVerifyResult:
    """Record one application run and check it against ``models``."""
    workload = build_app(app, n_procs=n_procs, preset=preset)
    recorder = ExecutionRecorder()
    config = MultiprocessorConfig(
        n_cpus=n_procs, miss_penalty=miss_penalty, trace_cpus=()
    )
    executor = TangoExecutor(
        workload.programs,
        config,
        memory=workload.memory,
        recorder=recorder,
    )
    result = executor.run()
    functional_ok = True
    try:
        workload.verify(result.memory)
    except AssertionError:
        functional_ok = False
    log = recorder.log()
    checks = {name: check_execution(log, name) for name in models}
    return AppVerifyResult(
        app=app,
        n_events=len(log),
        n_coherence_events=len(log.coherence),
        checks=checks,
        functional_ok=functional_ok,
    )


def _app_job(job) -> AppVerifyResult:
    app, models, n_procs, preset, miss_penalty = job
    return verify_app(
        app, models=models, n_procs=n_procs, preset=preset,
        miss_penalty=miss_penalty,
    )


def verify_apps(
    apps,
    models=ALL_MODELS,
    n_procs: int = 8,
    preset: str = "tiny",
    miss_penalty: int = 50,
    jobs: int = 1,
) -> list[AppVerifyResult]:
    """Verify several applications, optionally across worker processes.

    The fan-out runs on the supervised pool: a worker that dies or
    wedges is restarted and its application retried, so one bad run
    cannot abort the whole verification sweep.
    """
    job_list = [
        (app, tuple(models), n_procs, preset, miss_penalty) for app in apps
    ]
    return run_jobs(
        _app_job,
        [(job,) for job in job_list],
        jobs=jobs,
        labels=[f"verify:{job[0]}" for job in job_list],
    )


def tango_crosscheck(test) -> dict[str, CheckResult]:
    """Run a litmus test on the (SC-atomic) Tango executor.

    The recorded log must be accepted by every model — the relaxed
    outcomes only exist in the model-aware engine.
    """
    if isinstance(test, str):
        test = CATALOG[test]
    programs, _ = test.build()
    recorder = ExecutionRecorder()
    config = MultiprocessorConfig(
        n_cpus=len(programs), trace_cpus=()
    )
    TangoExecutor(programs, config, recorder=recorder).run()
    log = recorder.log()
    return {name: check_execution(log, name) for name in ALL_MODELS}
