"""The four benchmark workloads (names are fixed; later issues cite them).

Every workload runs at the **default preset, 16 simulated processors,
fast engines** (``--quick``: tiny preset, 4 processors) and keeps all
inputs and outputs under the temp directory it is given.  A workload
exposes ``setup()`` (untimed preparation, returns the seconds to report
as ``setup_s``), ``one_pass()`` (one timed pass, returns a
:class:`PassResult`), ``install(rec)`` (span wrappers for the traced
pass), ``extras()`` (traced run only: isolated layer measurements) and
``layers(spans)`` (per-layer metrics).  Why each workload exists and
which layer does its work is recorded in ``perf/README.md``.
"""

from __future__ import annotations

import collections
import filecmp
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from perf import spans as span_tools
from perf.stats import percentile

WORKLOAD_NAMES = ("trace_cold", "fig3_warm", "cosim_mesh", "svc_closed")

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


@dataclass(frozen=True)
class Scale:
    """Problem size: the paper's machine, or the ``--quick`` smoke."""

    preset: str
    procs: int
    quick: bool


FULL = Scale("default", 16, False)
QUICK = Scale("tiny", 4, True)


@dataclass
class PassResult:
    """One timed pass: its wall-clock and its operation rate."""

    wall_s: float
    ops: int
    rate_s: float  # seconds the ops/s rate is taken over

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.rate_s


class Ledger:
    """Jobs (timed calls into the program), the operations they carry,
    failures, and the exact simulated facts the golden file pins."""

    def __init__(self) -> None:
        self.jobs: list[dict] = []
        self.facts: dict[str, object] = {}
        self.errors: list[str] = []

    @contextmanager
    def job(self, key: str, ops: int = 1, timed: bool = False):
        """Run one call into the program; an exception fails all of its
        operations.  ``timed`` jobs are latency samples."""
        entry = {"key": key, "ops": ops, "failed": 0, "timed": timed}
        t0 = time.perf_counter()
        try:
            yield entry
        except Exception as exc:  # noqa: BLE001 — recorded as failures
            entry["failed"] = ops
            self.errors.append(f"{key}: {type(exc).__name__}: {exc}")
        entry["seconds"] = time.perf_counter() - t0
        self.jobs.append(entry)

    def check(self, entry: dict, ok: bool, message: str) -> None:
        """A failed output check fails one operation of ``entry``."""
        if not ok:
            entry["failed"] = min(entry["ops"], entry["failed"] + 1)
            self.errors.append(f"{entry['key']}: {message}")

    def fact(self, entry: dict, key: str, value) -> None:
        """Record an exact simulated statistic; the simulator is
        deterministic, so a later pass must reproduce it."""
        # Compared with pinned JSON, so normalised the way a round trip
        # does (tuples become lists).
        value = json.loads(json.dumps(value))
        seen = self.facts.setdefault(key, value)
        self.check(entry, seen == value, f"{key} changed between passes")

    @property
    def attempted(self) -> int:
        return sum(j["ops"] for j in self.jobs)

    @property
    def failed(self) -> int:
        return sum(j["failed"] for j in self.jobs)

    def latencies(self) -> list[float]:
        return [j["seconds"] for j in self.jobs if j["timed"]]

    def median_seconds_by_key(self) -> dict[str, float]:
        """Which job a slow run was slow in (kept in the result file)."""
        by_key: dict[str, list[float]] = {}
        for j in self.jobs:
            by_key.setdefault(j["key"], []).append(j["seconds"])
        return {k: statistics.median(v) for k, v in sorted(by_key.items())}


def check_breakdown(ledger: Ledger, entry: dict, bd, rows: int) -> None:
    """Invariants every :class:`ExecutionBreakdown` must satisfy."""
    parts = (bd.busy, bd.sync, bd.read, bd.write, bd.other)
    ledger.check(
        entry,
        bd.total == sum(parts) and bd.busy == bd.instructions == rows,
        f"{bd.label}: components {parts} / instructions "
        f"{bd.instructions} inconsistent with {rows} trace rows",
    )
    cycles = bd.extras.get("cycles")
    ledger.check(
        entry, cycles is None or cycles == bd.total,
        f"{bd.label}: engine clock {cycles} != attributed {bd.total}",
    )


def breakdown_tuple(bd) -> list[int]:
    return [bd.total, bd.busy, bd.sync, bd.read, bd.write, bd.other]


def stats_facts(stats) -> dict:
    """Per-application RunStats totals."""
    cpus = stats.cpus
    return {
        "total_cycles": stats.total_cycles,
        "instr": stats.total_instructions(),
        "reads": sum(c.reads for c in cpus),
        "writes": sum(c.writes for c in cpus),
        "read_misses": sum(c.read_misses for c in cpus),
        "write_misses": sum(c.write_misses for c in cpus),
    }


def fresh_import_seconds(n: int) -> list[float]:
    """``import repro`` (all the layers the workloads use) in ``n`` fresh
    interpreters."""
    code = (
        "import time; t = time.perf_counter(); "
        "import repro.experiments, repro.cosim, repro.service; "
        "print(time.perf_counter() - t)"
    )
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, "-c", code], env=child_env(),
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(proc.stdout.strip()))
    return out


def child_env() -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC_DIR) + (os.pathsep + extra if extra else "")
    return env


class Workload:
    """Common state of one workload run."""

    name = ""

    def __init__(self, seed: int, scale: Scale, tmp: Path) -> None:
        self.seed = seed
        self.scale = scale
        self.tmp = tmp
        self.ledger = Ledger()
        self.rec = span_tools.Recorder(self.name, enabled=False)
        #: Counts and isolated timings gathered while running, read by
        #: :meth:`layers`.
        self.counts: dict[str, float] = {}

    #: Inputs the golden facts depend on; a golden section applies only
    #: to a run whose inputs equal the pinned ones.
    def inputs(self) -> dict:
        return {"preset": self.scale.preset, "procs": self.scale.procs}

    def setup(self) -> float:
        raise NotImplementedError

    def one_pass(self) -> PassResult:
        raise NotImplementedError

    def install(self, rec) -> None:
        """Wrap the public functions of each layer this workload calls
        into, for the traced pass."""
        self.rec = rec

    def extras(self) -> None:
        """Traced run only: measurements of single layers in isolation."""

    def layers(self, spans: list[dict]) -> dict[str, float]:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        """Release whatever outlives a pass."""

    def _store(self, cache_dir, **kwargs):
        from repro.experiments.runner import TraceStore

        return TraceStore(
            n_procs=self.scale.procs, preset=self.scale.preset,
            cache_dir=cache_dir, verify=True, **kwargs,
        )


# -- trace_cold ---------------------------------------------------------


class TraceCold(Workload):
    """What the first ``figure3``/``all`` on a clean checkout pays: the
    five single-CPU trace builds, one all-CPU co-simulation trace build,
    and the reload of all six pickles.  Inputs are fixed by the paper's
    machine, so the seed changes nothing."""

    name = "trace_cold"
    ALL_CPUS_APP = "ocean"

    def setup(self) -> float:
        # Nothing is prepared: a cold build starts from an empty cache.
        # What precedes it is the interpreter importing the simulator,
        # timed in fresh interpreters so it is never 0 and never warm.
        return min(fresh_import_seconds(5))

    def install(self, rec) -> None:
        from repro.apps.common import Workload as AppWorkload
        from repro.experiments import runner
        from repro.tango import TangoExecutor

        super().install(rec)

        def trace_verify(workload: AppWorkload) -> AppWorkload:
            workload.verify = rec.traced(workload.verify, "apps.verify")
            return workload

        rec.wrap(runner, "build_app", "apps.build", post=trace_verify)
        rec.wrap(
            TangoExecutor, "run",
            lambda ex: "tango.run_all_cpus"
            if len(ex.config.trace_cpus) > 1 else "tango.run",
        )
        rec.wrap(runner, "simulate_base", "cpu.base")
        for method in ("get", "get_cosim"):
            rec.wrap(
                runner.TraceStore, method,
                lambda *_: f"experiments.trace_{self._phase}",
            )

    def one_pass(self) -> PassResult:
        from repro.apps import APP_NAMES

        ledger, counts = self.ledger, collections.Counter()
        cache = self.tmp / "cold-cache"
        t0 = time.perf_counter()
        self._phase = "build"
        store = self._store(cache)
        built = {}
        for app in APP_NAMES:
            with ledger.job(f"build/{app}") as job:
                run = store.get(app)
                totals = stats_facts(run.stats)
                counts.update(totals)
                ledger.fact(job, job["key"], {
                    **totals, "trace_rows": len(run.trace),
                    "base": breakdown_tuple(run.base),
                })
                check_breakdown(ledger, job, run.base, len(run.trace))
                built[app] = len(run.trace)
        all_app = self.ALL_CPUS_APP
        with ledger.job(f"build_all_cpus/{all_app}") as job:
            crun = store.get_cosim(all_app)
            totals = stats_facts(crun.stats)
            counts.update(totals)
            built["all_cpus"] = sum(len(t) for t in crun.traces)
            ledger.fact(job, job["key"], {
                **totals, "trace_rows": built["all_cpus"],
                "sync": crun.schedule.summary(),
            })
            ledger.check(
                job, len(crun.traces) == self.scale.procs,
                f"{len(crun.traces)} traces for {self.scale.procs} cpus",
            )

        self._phase = "load"
        on_disk = _listing(cache)
        with ledger.job("reload", ops=len(built)) as job:
            again = self._store(cache)
            for app in APP_NAMES:
                ledger.check(
                    job, len(again.get(app).trace) == built[app],
                    f"reloaded {app} trace differs from the built one",
                )
            rows = sum(len(t) for t in again.get_cosim(all_app).traces)
            ledger.check(
                job, rows == built["all_cpus"],
                "reloaded all-cpu traces differ from the built ones",
            )
            # A pickle that failed to load is regenerated and rewritten.
            ledger.check(
                job, _listing(cache) == on_disk,
                "reload rewrote the cache instead of reading it",
            )
        wall = time.perf_counter() - t0
        self.counts = dict(counts)
        self.counts["trace_bytes"] = sum(
            size for _, size in on_disk.values()
        )
        shutil.rmtree(cache)
        return PassResult(wall, len(built) * 2, wall)

    def layers(self, spans) -> dict[str, float]:
        own = span_tools.self_time_by_name(spans)
        run_s = own.get("tango.run", 0.0)
        all_s = own.get("tango.run_all_cpus", 0.0)
        return {
            "apps.build_s": own.get("apps.build", 0.0),
            "apps.verify_s": own.get("apps.verify", 0.0),
            "tango.run_s": run_s,
            "tango.run_all_cpus_s": all_s,
            "tango.instr": self.counts["instr"],
            "tango.instr_per_s": self.counts["instr"] / (run_s + all_s),
            "tango.read_misses": self.counts["read_misses"],
            "tango.write_misses": self.counts["write_misses"],
            "experiments.trace_save_s": own.get(
                "experiments.trace_build", 0.0
            ),
            "experiments.trace_load_s": own.get(
                "experiments.trace_load", 0.0
            ),
            "experiments.trace_bytes": self.counts["trace_bytes"],
            "cpu.base_s": own.get("cpu.base", 0.0),
        }


def _listing(root: Path) -> dict[str, tuple[int, int]]:
    """File name -> (inode, size); atomic rewrites change the inode."""
    stats = {p.name: p.stat() for p in root.iterdir()}
    return {name: (st.st_ino, st.st_size) for name, st in stats.items()}


# -- fig3_warm ----------------------------------------------------------


class Fig3Warm(Workload):
    """The paper's central artefact from a warm disk cache: 70
    simulations (5 BASE, 30 SSBR/SS, 35 DS), the formatted figure and
    the section-7 read-latency-hidden averages.  The seed selects the
    traced processor."""

    name = "fig3_warm"

    def __init__(self, seed, scale, tmp) -> None:
        super().__init__(seed, scale, tmp)
        self.trace_cpu = seed % scale.procs
        self.cache = tmp / "fig3-cache"
        self.paper_err_pts = 0.0

    def inputs(self) -> dict:
        return {**super().inputs(), "trace_cpu": self.trace_cpu}

    def setup(self) -> float:
        from repro.apps import APP_NAMES

        t0 = time.perf_counter()
        store = self._store(self.cache, trace_cpu=self.trace_cpu)
        with self.ledger.job("setup/traces", ops=len(APP_NAMES)):
            self.rows = {
                app: len(store.get(app).trace) for app in APP_NAMES
            }
        return time.perf_counter() - t0

    def install(self, rec) -> None:
        from repro.experiments import runner

        super().install(rec)

        def sim_name(trace, config, *args, **kwargs) -> str:
            kind = config.kind.lower()
            if kind == "ds":
                return f"cpu.ds.{config.model.lower()}"
            return f"cpu.{kind}"

        rec.wrap(runner, "simulate", sim_name)
        rec.wrap(runner.TraceStore, "get", "experiments.trace_load")

    def one_pass(self) -> PassResult:
        from repro.experiments.figure3 import (
            figure3_configs,
            format_figure3,
            run_figure3,
        )
        from repro.experiments.headline import PAPER_HIDDEN

        ledger, rec = self.ledger, self.rec
        configs = figure3_configs()
        n_sims = len(configs) * len(self.rows)
        t0 = time.perf_counter()
        with ledger.job("figure3", ops=n_sims) as job:
            store = self._store(self.cache, trace_cpu=self.trace_cpu)
            with rec.span("experiments.run_figure3"):
                results = run_figure3(store, jobs=1)
            with rec.span("experiments.format"):
                text = format_figure3(results)
            ledger.check(
                job, all(app.upper() in text for app in results),
                "formatted figure misses an application",
            )
            done = sum(len(bars) for bars in results.values())
            ledger.check(job, done == n_sims, f"{done}/{n_sims} bars")
            hidden: dict[int, list[float]] = {}
            static_rows = ds_rows = ds_cycles = 0
            for app, bars in results.items():
                base = bars[0]
                for cfg, bd in zip(configs, bars):
                    ledger.fact(
                        job, f"fig3/{app}/{bd.label}", breakdown_tuple(bd)
                    )
                    check_breakdown(ledger, job, bd, self.rows[app])
                    if cfg.kind == "ds":
                        ds_rows += self.rows[app]
                        ds_cycles += bd.total
                        if cfg.model == "RC":
                            hidden.setdefault(cfg.window, []).append(
                                bd.read_latency_hidden_vs(base)
                            )
                    else:
                        static_rows += self.rows[app]
            averages = {
                window: sum(vals) / len(vals)
                for window, vals in hidden.items()
            }
            ledger.fact(
                job, "fig3/headline",
                {str(w): round(avg, 12) for w, avg in averages.items()},
            )
            self.paper_err_pts = 100 * max(
                abs(averages[w] - paper) for w, paper in PAPER_HIDDEN.items()
            )
        wall = time.perf_counter() - t0
        self.counts = {
            "static_rows": static_rows, "ds_rows": ds_rows,
            "ds_cycles": ds_cycles,
        }
        return PassResult(wall, n_sims, wall)

    def extras(self) -> None:
        """cpu.first_sim_s: the first simulate() on a freshly loaded
        trace minus a repeat of the same config (column / fast-path
        precompute the first consumer of a trace pays)."""
        from repro.cpu import ProcessorConfig, simulate

        store = self._store(self.cache, trace_cpu=self.trace_cpu)
        cfg = ProcessorConfig(kind="ssbr", model="RC")
        extra = 0.0
        for app in self.rows:
            trace = store.get(app).trace
            times = []
            for _ in range(2):
                t0 = time.perf_counter()
                simulate(trace, cfg)
                times.append(time.perf_counter() - t0)
            extra += times[0] - times[1]
        self.counts["first_sim_s"] = extra

    def layers(self, spans) -> dict[str, float]:
        own = span_tools.self_time_by_name(spans)
        static_s = sum(own.get(f"cpu.{k}", 0.0) for k in ("base", "ssbr", "ss"))
        ds_s = sum(own.get(f"cpu.ds.{m}", 0.0) for m in ("sc", "pc", "rc"))
        return {
            "experiments.trace_load_s": own.get(
                "experiments.trace_load", 0.0
            ),
            "experiments.format_s": own.get("experiments.format", 0.0),
            "experiments.paper_err_pts": self.paper_err_pts,
            "cpu.base_s": own.get("cpu.base", 0.0),
            "cpu.ssbr_s": own.get("cpu.ssbr", 0.0),
            "cpu.ss_s": own.get("cpu.ss", 0.0),
            "cpu.static_rows_per_s": self.counts["static_rows"] / static_s,
            "cpu.first_sim_s": self.counts["first_sim_s"],
            "cpu.ds.sc_s": own.get("cpu.ds.sc", 0.0),
            "cpu.ds.pc_s": own.get("cpu.ds.pc", 0.0),
            "cpu.ds.rc_s": own.get("cpu.ds.rc", 0.0),
            "cpu.ds.rows_per_s": self.counts["ds_rows"] / ds_s,
            "cpu.ds.sim_cycles": self.counts["ds_cycles"],
        }


# -- cosim_mesh ---------------------------------------------------------


class CosimMesh(Workload):
    """All processors of one regular application on one shared mesh,
    three ways: replayed through the event-driven DS engine and through
    the static kernels (both behind ``ThreadStepper``), and through the
    scalar SS stepper with live synchronisation (``GenStepper``).  Inputs
    are fixed by the paper's machine, so the seed changes nothing."""

    name = "cosim_mesh"
    APP = "ocean"
    #: (processor kind, sync mode, span name); the first run is the one
    #: :meth:`extras` decomposes.
    RUNS = (
        ("ds", "replay", "cosim.ds_replay"),
        ("ss", "replay", "cosim.ss_replay"),
        ("ss", "live", "cosim.ss_live"),
    )

    def setup(self) -> float:
        # Replay hands every miss between two threads.  On an unpinned
        # multi-CPU guest each hand-off wakes a halted virtual CPU, and
        # what that costs follows the host's load, not the code: the same
        # commit measured 7.3 s and 9.9 s (medians of ten runs, back to
        # back) while the compute-bound workloads ran 6 % faster in the
        # slower set.  The GIL runs the two threads one at a time anyway.
        self._affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(self._affinity)})
        # A one-second set-up is cheap enough to repeat; the best of three
        # cold builds is reported, like the best pass.
        builds = []
        for attempt in range(1 if self.scale.quick else 3):
            t0 = time.perf_counter()
            store = self._store(self.tmp / f"cosim-cache-{attempt}")
            with self.ledger.job("setup/traces"):
                self.crun = store.get_cosim(self.APP)
            builds.append(time.perf_counter() - t0)
        self.line_size = store.line_size
        return min(builds)

    def close(self) -> None:
        if hasattr(self, "_affinity"):
            os.sched_setaffinity(0, self._affinity)

    def _config(self, kind: str):
        from repro.cpu import ProcessorConfig

        return ProcessorConfig(kind=kind, model="RC", window=64)

    def one_pass(self) -> PassResult:
        from repro.cosim import run_cosim

        ledger = self.ledger
        cycles = misses = 0
        t0 = time.perf_counter()
        crun = self.crun
        for kind, mode, span_name in self.RUNS:
            with ledger.job(f"cosim/{self.APP}/{kind}/{mode}") as job:
                with self.rec.span(span_name):
                    result = run_cosim(
                        crun, self._config(kind), network_kind="mesh",
                        line_size=self.line_size, sync_mode=mode,
                    )
                served = sum(len(m) for m in result.miss_latencies)
                ledger.fact(job, job["key"], {
                    "cycles": result.cycles(),
                    "misses": served,
                    "net": result.net_summary,
                })
                for trace, bd in zip(crun.traces, result.breakdowns):
                    check_breakdown(ledger, job, bd, len(trace))
                ledger.check(
                    job, served == result.net_summary["count"],
                    "engine and fabric disagree on misses served",
                )
                cycles += max(result.cycles())
                misses += served
                if span_name == "cosim.ds_replay":
                    self.counts["net_mean"] = result.net_summary["mean"]
                    self.counts["net_p99"] = result.net_summary["p99"]
                    self.counts["cycles_max"] = max(result.cycles())
        wall = time.perf_counter() - t0
        self.counts.update(cycles=cycles, misses=misses)
        return PassResult(wall, len(self.RUNS), wall)

    def extras(self) -> None:
        """Each CPU of the DS-replay application simulated alone, on a
        fresh mesh and on the ideal fabric: the difference is what the
        network layer costs without any coupling, and the coupled run
        minus the solo-with-mesh total bounds the coupling overhead."""
        from repro.cpu import simulate
        from repro.net import build_network

        traces, cfg = self.crun.traces, self._config(self.RUNS[0][0])
        timed = 0
        t0 = time.perf_counter()
        for trace in traces:
            network = build_network("mesh", len(traces), self.line_size)
            simulate(trace, cfg, network=network)
            timed += network.summary()["count"]
        t1 = time.perf_counter()
        for trace in traces:
            simulate(trace, cfg)
        t2 = time.perf_counter()
        self.counts.update(
            solo_mesh_s=t1 - t0, solo_ideal_s=t2 - t1, solo_misses=timed,
        )

    def layers(self, spans) -> dict[str, float]:
        own = span_tools.self_time_by_name(spans)
        c = self.counts
        run_s = sum(own.get(run[2], 0.0) for run in self.RUNS)
        solo_net_s = c["solo_mesh_s"] - c["solo_ideal_s"]
        return {
            "cpu.ds.rc_s": c["solo_ideal_s"],
            "net.solo_replay_s": solo_net_s,
            "net.misses_timed": c["solo_misses"],
            "net.us_per_miss": 1e6 * solo_net_s / c["solo_misses"],
            "net.miss_mean_cycles": c["net_mean"],
            "net.miss_p99_cycles": c["net_p99"],
            "cosim.ds_replay_s": own.get("cosim.ds_replay", 0.0),
            "cosim.ss_replay_s": own.get("cosim.ss_replay", 0.0),
            "cosim.ss_live_s": own.get("cosim.ss_live", 0.0),
            "cosim.cycles_per_s": c["cycles"] / run_s,
            "cosim.misses": c["misses"],
            "cosim.us_per_miss": 1e6 * run_s / c["misses"],
            "cosim.sim_cycles_max": c["cycles_max"],
            "cosim.coupling_overhead_s": (
                own.get("cosim.ds_replay", 0.0) - c["solo_mesh_s"]
            ),
        }


# -- svc_closed ---------------------------------------------------------

#: Seconds between the client's status polls.
POLL_INTERVAL_S = 0.005
#: Re-submissions of already-completed configs, per pass.
REPEATS = 30


def canonical_configs(scale: Scale) -> list[dict]:
    """The distinct single-config requests of one pass: cheap static
    jobs on the ideal fabric (the median request), contended-fabric
    static jobs and DS jobs (the tail)."""
    from repro.apps import APP_NAMES

    static = [("base", "RC")] + [
        (kind, model) for kind in ("ssbr", "ss") for model in ("SC", "RC")
    ]
    picks = [("ideal", kind, model) for kind, model in static]
    picks += [("mesh", "ssbr", "RC"), ("mesh", "ss", "RC")]
    picks += [("crossbar", "base", "RC"), ("ideal", "ds", "RC")]
    return [
        dict(app=app, kind=kind, model=model, window=64, network=network,
             penalty=50, procs=scale.procs, preset=scale.preset)
        for app in APP_NAMES
        for network, kind, model in picks
    ]


def request_order(seed: int, pass_index: int, n_configs: int) -> list[int]:
    """Seeded request sequence of one pass: every config once, shuffled,
    plus REPEATS re-submissions, each somewhere after its original.
    Returns indices into the canonical list.  Each pass of a run draws
    its own order."""
    rng = random.Random(seed * 1009 + pass_index)
    order = list(range(n_configs))
    rng.shuffle(order)
    for _ in range(REPEATS):
        first = rng.randrange(0, len(order) - 1)
        order.insert(rng.randrange(first + 1, len(order) + 1),
                     order[first])
    return order


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class DaemonProc:
    """A ``python -m repro serve`` child: free port found by
    bind-to-0 with retry, readiness by polling ``/v1/healthz``, always
    reaped (SIGTERM, wait ``grace``, SIGKILL)."""

    def __init__(self, cache_dir: Path, store_dir: Path, log_path: Path,
                 grace: float = 3.0) -> None:
        self.cache_dir, self.store_dir = cache_dir, store_dir
        self.log_path, self.grace = log_path, grace
        self.proc: subprocess.Popen | None = None
        self.client = None
        self.peak_rss_mb = 0.0

    def __enter__(self) -> "DaemonProc":
        return self.start()

    def start(self) -> "DaemonProc":
        from repro.service import ClientError, DaemonClient

        for _ in range(5):
            port = free_port()
            with open(self.log_path, "ab") as log:
                self.proc = subprocess.Popen(
                    [sys.executable, "-m", "repro",
                     "--cache-dir", str(self.cache_dir),
                     "serve", "--port", str(port), "--jobs", "1",
                     "--grace", str(self.grace),
                     "--store", str(self.store_dir)],
                    env=child_env(), stdout=log, stderr=subprocess.STDOUT,
                )
            client = DaemonClient(f"http://127.0.0.1:{port}", timeout=30)
            deadline = time.monotonic() + 60
            # The port can be taken between our probe and the daemon's
            # bind; the daemon then exits and we try another one.
            while self.proc.poll() is None and time.monotonic() < deadline:
                try:
                    if client.healthz().get("status") == "ok":
                        self.client = client
                        return self
                except ClientError:
                    time.sleep(0.02)
            self.stop()
        raise RuntimeError(
            f"daemon did not come up; see {self.log_path}"
        )

    def __exit__(self, *exc) -> None:
        self.stop()

    def stop(self) -> None:
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            self.peak_rss_mb = max(self.peak_rss_mb, _vm_hwm_mb(proc.pid))
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(self.grace + 5)
            except subprocess.TimeoutExpired:
                proc.kill()
        proc.wait()
        self.proc = None


def _vm_hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _tree_mismatches(left: Path, right: Path) -> int:
    """Files that differ or exist on one side only (byte comparison)."""
    cmp = filecmp.dircmp(left, right)
    count = len(cmp.left_only) + len(cmp.right_only) + len(cmp.funny_files)
    _, differ, errors = filecmp.cmpfiles(
        left, right, cmp.common_files, shallow=False
    )
    count += len(differ) + len(errors)
    for sub in cmp.common_dirs:
        count += _tree_mismatches(left / sub, right / sub)
    return count


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


class SvcClosed(Workload):
    """The service as sweep scripts use it: a daemon subprocess driven
    over HTTP by a closed loop of one client (submit, poll, fetch; the
    next request only after the previous completes), then the same
    configs through ``run_batch(jobs=2)``, whose store must equal the
    daemon's byte for byte.  The seed sets the request order and which
    configs repeat.

    One client, not two: with two clients on the daemon's single worker,
    which request queues behind which follows the seeded order, and the
    latency percentiles then spread by 20 % from seed to seed (measured)
    — wider than any usable bound.  Queueing under load belongs to the
    open-loop harness of the service issue."""

    name = "svc_closed"

    def __init__(self, seed, scale, tmp) -> None:
        super().__init__(seed, scale, tmp)
        self.cache = tmp / "svc-cache"
        self.configs = canonical_configs(scale)
        self.order: list[int] = []
        self.passes = 0
        self._rss_mb = 0.0
        self.samples: list[dict] = []

    def setup(self) -> float:
        """Daemon start plus a cold five-application sweep over HTTP,
        which builds every trace into the temp cache."""
        from repro.apps import APP_NAMES

        t0 = time.perf_counter()
        with self._daemon("setup") as daemon:
            with self.ledger.job("setup/cold_sweep",
                                 ops=len(APP_NAMES)) as job:
                t1 = time.perf_counter()
                client = daemon.client
                accepted = client.submit({
                    "kinds": ["base"], "procs": self.scale.procs,
                    "preset": self.scale.preset,
                })
                final = client.wait(accepted["id"], timeout=150,
                                    interval=0.05)
                self.ledger.check(
                    job, final["state"] == "done",
                    f"cold sweep ended {final['state']}",
                )
                self.counts["cold_sweep_s"] = time.perf_counter() - t1
                builds = _counter(client.metrics(), "trace.builds")
                self.ledger.check(
                    job, builds == len(APP_NAMES),
                    f"cold sweep built {builds} traces",
                )
                self.counts["trace_builds"] = builds
        return time.perf_counter() - t0

    def _daemon(self, tag: str) -> DaemonProc:
        return DaemonProc(
            self.cache, self.tmp / f"store-{tag}",
            self.tmp / f"daemon-{tag}.log",
        )

    def peak_rss_mb(self) -> float:
        return self._rss_mb

    # -- one request -----------------------------------------------------

    def _request(self, client, cfg: dict) -> None:
        from repro.service.client import TERMINAL_STATES
        from repro.service.jobs import SweepJob

        ledger, rec = self.ledger, self.rec
        label = SweepJob(**cfg).label()
        with ledger.job(f"http/{label}", timed=True) as job, \
                rec.span("service.request"):
            t0 = time.perf_counter()
            with rec.span("service.http.submit"):
                accepted = client.submit({"jobs": [cfg]})
            t_submit = time.perf_counter() - t0
            polls = 0
            while True:
                with rec.span("service.http.poll"):
                    state = client.job(accepted["id"])
                polls += 1
                if state["state"] in TERMINAL_STATES:
                    break
                time.sleep(POLL_INTERVAL_S)
            seen_done = time.time()
            t1 = time.perf_counter()
            with rec.span("service.http.results"):
                body = client.results(accepted["id"])
            t2 = time.perf_counter()
            rows = body.get("results", [])
            ledger.check(
                job, state["state"] == "done" and len(rows) == 1
                and rows[0]["label"] == label,
                f"ended {state['state']} with {len(rows)} rows",
            )
            bd = rows[0]["breakdown"]
            parts = [bd[k] for k in ("busy", "sync", "read", "write",
                                     "other")]
            ledger.check(
                job, bd["total"] == sum(parts)
                and bd["busy"] == bd["instructions"],
                f"inconsistent breakdown {bd}",
            )
            ledger.fact(job, f"svc/{label}", [bd["total"], *parts])
            self.samples.append({
                "pass": self.passes,
                "deduped": accepted.get("deduped", False),
                "latency": t2 - t0, "submit": t_submit, "results": t2 - t1,
                "polls": polls,
                "poll_lag": seen_done - state["finished_at"],
                "queue_wait": state["started_at"] - state["submitted_at"],
                "run": state["finished_at"] - state["started_at"],
            })

    # -- one pass --------------------------------------------------------

    def one_pass(self) -> PassResult:
        from repro.service import run_batch
        from repro.service.jobs import SweepJob

        ledger, rec = self.ledger, self.rec
        tag = f"pass{self.passes}"
        self.order = request_order(
            self.seed, self.passes, len(self.configs)
        )
        self.passes += 1
        # A restarted daemon per pass: its dedup table and result store
        # start empty, its traces come warm from the setup's disk cache.
        daemon = self._daemon(tag)
        try:
            with rec.span("service.daemon.start"):
                daemon.start()
            t0 = time.perf_counter()
            with rec.span("service.closed_loop"):
                for index in self.order:
                    self._request(daemon.client, self.configs[index])
            loop_s = time.perf_counter() - t0
            metrics = daemon.client.metrics()
        finally:
            with rec.span("service.daemon.stop"):
                daemon.stop()
        self._rss_mb = max(self._rss_mb, daemon.peak_rss_mb)
        with ledger.job(f"daemon/{tag}") as job:
            # The daemon must have served every trace from the warm disk
            # cache and refused nothing.
            ledger.check(
                job, _counter(metrics, "trace.builds") == 0
                and _counter(metrics, "daemon.rejected_full") == 0,
                "daemon rebuilt traces or refused requests",
            )

        sweep = [SweepJob(**cfg) for cfg in self.configs]
        batch_store = self.tmp / f"batch-store-{tag}"
        t1 = time.perf_counter()
        with ledger.job(f"batch/{tag}", ops=len(sweep)) as job:
            with rec.span("service.batch"):
                report = run_batch(
                    sweep, jobs=2, cache_dir=self.cache,
                    out_dir=self.tmp / f"batch-{tag}",
                    store_dir=batch_store,
                )
            for record in report.records:
                ledger.check(
                    job, record.state == "done",
                    f"{record.label} ended {record.state}",
                )
            mismatches = _tree_mismatches(daemon.store_dir, batch_store)
            ledger.check(
                job, mismatches == 0,
                f"{mismatches} files differ between daemon and batch store",
            )
        batch_s = time.perf_counter() - t1
        self.counts.update(
            batch_s=batch_s, batch_jobs=len(sweep),
            store_bytes=_tree_bytes(batch_store),
            store_mismatches=mismatches,
            result_cache_hits=_counter(metrics, "daemon.result_cache_hits"),
            trace_warm_hits=_counter(metrics, "trace.warm_hits"),
            rejected_429=_counter(metrics, "daemon.rejected_full"),
        )
        return PassResult(loop_s + batch_s, len(self.order), loop_s)

    def layers(self, spans) -> dict[str, float]:
        c = self.counts
        own = span_tools.self_time_by_name(spans)
        traced = [s for s in self.samples if s["pass"] == self.passes]
        n = len(traced)
        fresh = [s for s in traced if not s["deduped"]]
        dedup = [s for s in traced if s["deduped"]]

        def pct(rows, field, p):
            return percentile([r[field] for r in rows], p)

        return {
            "service.http.submit_s": own["service.http.submit"] / n,
            "service.http.results_s": own["service.http.results"] / n,
            "service.http.poll_lag_s": pct(fresh, "poll_lag", 50),
            "service.http.polls": sum(s["polls"] for s in traced),
            "service.queue.wait_p50_s": pct(fresh, "queue_wait", 50),
            "service.queue.wait_p95_s": pct(fresh, "queue_wait", 95),
            "service.daemon.run_p50_s": pct(fresh, "run", 50),
            "service.daemon.run_p95_s": pct(fresh, "run", 95),
            "service.dedup_latency_s": pct(dedup, "latency", 50),
            "service.overhead_per_job_s": percentile(
                [s["latency"] - s["run"] for s in fresh], 50
            ),
            "service.result_cache_hits": c["result_cache_hits"],
            "service.trace_builds": c["trace_builds"],
            "service.trace_warm_hits": c["trace_warm_hits"],
            "service.rejected_429": c["rejected_429"],
            "service.daemon.cold_sweep_s": c["cold_sweep_s"],
            "service.batch.run_s": own["service.batch"],
            "service.pool.jobs_per_s": c["batch_jobs"] / c["batch_s"],
            "service.store.bytes": c["store_bytes"],
            "service.store_mismatches": c["store_mismatches"],
        }


def _counter(snapshot: dict, name: str) -> int:
    return snapshot.get("counters", {}).get(name, 0)


WORKLOADS = {
    cls.name: cls for cls in (TraceCold, Fig3Warm, CosimMesh, SvcClosed)
}
