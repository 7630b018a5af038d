"""Shared experiment infrastructure.

Every table and figure consumes the same inputs: the multiprocessor run
of each application (statistics + the traced processor's dynamic trace).
Generating a trace takes seconds-to-minutes of functional simulation, so
this module provides :class:`TraceStore` — an in-memory plus on-disk
cache keyed by every parameter that shapes the trace (application,
processor count, miss penalty, cache size, line size, sync latency,
preset, traced processor) plus the on-disk trace schema version
(:data:`repro.tango.trace.TRACE_FORMAT_VERSION`).  A cached run is a
small pickled header followed by every trace's columns as raw bytes,
written from and read into the columns' own buffers, so saving or
loading a run never holds a second copy of its traces.  Stale, torn or
foreign files are regenerated, never trusted.

The defaults mirror the paper's simulation parameters: 16 processors,
64 KB direct-mapped write-back caches with 16-byte lines, a 50-cycle miss
penalty, and processor 0 as the traced processor.

For multi-core hosts the module also provides process-pool fan-out:
:func:`generate_traces` builds the five application traces concurrently
and :func:`simulate_app_models` — the one sweep behind every breakdown
experiment — distributes independent processor simulations across
workers; :func:`run_experiments` runs any set of :class:`Experiment`
through it as one sweep, each distinct configuration once.  The
fan-out runs on the supervised pool of :mod:`repro.service` — a worker
that crashes, hangs, or returns a torn payload is restarted and its job
retried instead of aborting the sweep.  Results are collected in
submission order, so output is byte-identical regardless of ``jobs``.
"""

from __future__ import annotations

import os
import pickle
from array import array
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from ..apps import APP_NAMES, build_app
from ..cpu import ExecutionBreakdown, ProcessorConfig, simulate
from ..tango import (
    MultiprocessorConfig,
    RunStats,
    TangoExecutor,
    Trace,
)
from ..obs.metrics import NULL_REGISTRY
from ..service.pool import run_jobs
from ..service.store import canonical_config_blob
from ..tango.trace import TRACE_COLUMNS, TRACE_FORMAT_VERSION

DEFAULT_CACHE_DIR = Path(__file__).resolve().parents[3] / ".cache" / "traces"

_BASE = ProcessorConfig(kind="base")


def simulate_base(trace: Trace) -> ExecutionBreakdown:
    """The BASE breakdown every :class:`AppRun` caches with its trace."""
    return simulate(trace, _BASE)


@dataclass
class AppRun:
    """Cached outcome of one multiprocessor run of one application."""

    app: str
    trace: Trace
    stats: RunStats
    base: ExecutionBreakdown
    params: dict = field(default_factory=dict)


@dataclass
class CosimRun:
    """Cached all-processor outcome of one multiprocessor run: every
    processor's annotated trace plus the recorded synchronization
    schedule — the inputs of the co-simulation engine
    (:mod:`repro.cosim`)."""

    app: str
    traces: list[Trace]  # indexed by cpu id, all n_procs of them
    schedule: object  # repro.sync.SyncSchedule
    stats: RunStats
    params: dict = field(default_factory=dict)


#: The fields of a cached run that hold its traces.
_TRACE_FIELDS = ("trace", "traces")
_ROW_BYTES = sum(array(code).itemsize for _, code in TRACE_COLUMNS)


def _read_run(f, cls):
    """The run of type ``cls`` in the open cache file ``f``: the header,
    then each trace's columns read into preallocated arrays.  A file
    that is not one whole run of that type raises ``ValueError``."""
    try:
        kind, values, shapes = pickle.load(f)
    except (MemoryError, OverflowError) as exc:
        # A damaged length field asks for more bytes than there are.
        raise ValueError("header damaged") from exc
    if kind != cls.__name__:
        raise ValueError(f"{kind} file where a {cls.__name__} was wanted")
    body = sum(rows for _, rows in shapes) * _ROW_BYTES
    if (any(rows < 0 for _, rows in shapes)
            or os.fstat(f.fileno()).st_size - f.tell() != body):
        raise ValueError("columns torn or followed by stray bytes")
    traces = []
    for cpu, rows in shapes:
        trace = Trace(cpu=cpu)
        for name, code in TRACE_COLUMNS:
            col = array(code, [0]) * rows
            if f.readinto(col) != rows * col.itemsize:
                raise ValueError(f"column {name!r} cut short")
            setattr(trace, name, col)
        traces.append(trace)
    if cls is CosimRun:
        return cls(traces=traces, **values)
    (values["trace"],) = traces
    return cls(**values)


class TraceStore:
    """Builds, runs, verifies and caches application traces."""

    def __init__(
        self,
        n_procs: int = 16,
        miss_penalty: int = 50,
        cache_size: int = 64 * 1024,
        preset: str = "default",
        trace_cpu: int = 0,
        cache_dir: Path | str | None = DEFAULT_CACHE_DIR,
        verify: bool = True,
        line_size: int = 16,
        sync_access_latency: int | None = None,
        metrics=None,
    ) -> None:
        self.n_procs = n_procs
        self.miss_penalty = miss_penalty
        self.cache_size = cache_size
        self.line_size = line_size
        self.sync_access_latency = sync_access_latency
        self.preset = preset
        self.trace_cpu = trace_cpu
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.verify = verify
        #: Warm-cache observability sink (re-attachable; the daemon
        #: points a long-lived shared store at its own registry).  Not
        #: part of :meth:`spec` — workers attach their own.
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._runs: dict[str, AppRun] = {}
        self._cosim_runs: dict[str, CosimRun] = {}

    def _cache_path(self, app: str, cosim: bool = False) -> Path | None:
        """The file of ``app``'s run: the traced-cpu run by default, the
        all-processor :class:`CosimRun` with ``cosim``."""
        if self.cache_dir is None:
            return None
        sync = (
            "auto" if self.sync_access_latency is None
            else str(self.sync_access_latency)
        )
        prefix, suffix = (
            ("cosim_", "") if cosim else ("", f"_t{self.trace_cpu}")
        )
        name = (
            f"{prefix}{app}_v{TRACE_FORMAT_VERSION}_p{self.n_procs}"
            f"_m{self.miss_penalty}_c{self.cache_size}_l{self.line_size}"
            f"_s{sync}_{self.preset}{suffix}.run"
        )
        return self.cache_dir / name

    def _load(self, path: Path, cls):
        """Read a cached run of type ``cls`` (module docstring); a
        missing file is a miss, and so is a torn, stale or foreign one,
        which is removed."""
        try:
            with open(path, "rb") as f:
                return _read_run(f, cls)
        except FileNotFoundError:
            return None
        except (pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, ValueError, TypeError):
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def _save(self, path: Path, run) -> None:
        """Write the header, then each trace's column buffers as they
        are; atomic, so concurrent workers never see a partial file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        traces = run.traces if isinstance(run, CosimRun) else [run.trace]
        header = (
            type(run).__name__,
            {f.name: getattr(run, f.name) for f in fields(run)
             if f.name not in _TRACE_FIELDS},
            [(trace.cpu, len(trace)) for trace in traces],
        )
        with open(tmp, "wb") as f:
            pickle.dump(header, f, protocol=pickle.HIGHEST_PROTOCOL)
            for trace in traces:
                for col in trace.columns():
                    f.write(col)
        os.replace(tmp, path)

    def _cached(self, app: str, cosim: bool):
        """``app``'s run from memory, else from disk, else built (and
        written back): the one lookup behind :meth:`get` and
        :meth:`get_cosim`."""
        if app not in APP_NAMES:
            raise ValueError(f"unknown application {app!r}")
        memo, cls, build = (
            (self._cosim_runs, CosimRun, self._build_cosim) if cosim
            else (self._runs, AppRun, self._build)
        )
        run = memo.get(app)
        if run is not None:
            self.metrics.counter("trace.warm_hits").inc()
            return run
        path = self._cache_path(app, cosim)
        if path is not None:
            run = self._load(path, cls)
            if run is not None:
                self.metrics.counter("trace.disk_hits").inc()
                memo[app] = run
                return run
        self.metrics.counter("trace.builds").inc()
        run = memo[app] = build(app)
        if path is not None:
            self._save(path, run)
        return run

    def get(self, app: str) -> AppRun:
        """Return the cached run for ``app``, generating it if needed."""
        return self._cached(app, cosim=False)

    def get_cosim(self, app: str) -> CosimRun:
        """The all-processor run for ``app``: every cpu's trace plus the
        recorded sync schedule, generated (and disk-cached) on demand.
        The underlying functional execution is identical to
        :meth:`get` — the traced-cpu set and the schedule recording are
        observational — so cpu ``trace_cpu``'s trace is byte-identical
        to the single-trace cache's."""
        return self._cached(app, cosim=True)

    def _execute(
        self, app: str, trace_cpus: tuple[int, ...],
        record_sync_schedule: bool = False,
    ):
        """One verified functional run of ``app`` tracing ``trace_cpus``;
        returns the workload and the executor's result."""
        workload = build_app(app, n_procs=self.n_procs, preset=self.preset)
        mp_config = MultiprocessorConfig(
            n_cpus=self.n_procs,
            cache_size=self.cache_size,
            line_size=self.line_size,
            miss_penalty=self.miss_penalty,
            sync_access_latency=self.sync_access_latency,
            trace_cpus=trace_cpus,
            record_sync_schedule=record_sync_schedule,
        )
        result = TangoExecutor(
            workload.programs, mp_config, memory=workload.memory
        ).run()
        if self.verify:
            workload.verify(result.memory)
        return workload, result

    def _build(self, app: str) -> AppRun:
        workload, result = self._execute(app, (self.trace_cpu,))
        trace = result.trace(self.trace_cpu)
        return AppRun(
            app=app,
            trace=trace,
            stats=result.stats,
            base=simulate_base(trace),
            params=dict(workload.params),
        )

    def _build_cosim(self, app: str) -> CosimRun:
        cpus = tuple(range(self.n_procs))
        workload, result = self._execute(
            app, cpus, record_sync_schedule=True
        )
        return CosimRun(
            app=app,
            traces=[result.trace(cpu) for cpu in cpus],
            schedule=result.sync_schedule,
            stats=result.stats,
            params=dict(workload.params),
        )

    def all_apps(self) -> list[AppRun]:
        return [self.get(app) for app in APP_NAMES]

    def spec(self) -> dict:
        """Picklable constructor arguments for pool workers."""
        return dict(
            n_procs=self.n_procs,
            miss_penalty=self.miss_penalty,
            cache_size=self.cache_size,
            preset=self.preset,
            trace_cpu=self.trace_cpu,
            cache_dir=self.cache_dir,
            verify=self.verify,
            line_size=self.line_size,
            sync_access_latency=self.sync_access_latency,
        )


#: Process-wide stores keyed by their full constructor spec.  A
#: persistent daemon worker serves many jobs over its lifetime; routing
#: them through one shared store per spec keeps the in-memory trace and
#: program caches warm across jobs, so a repeated sweep skips both
#: regeneration and the disk-cache load.
_SHARED_BY_SPEC: dict[tuple, TraceStore] = {}


def shared_store(spec: dict, metrics=None) -> TraceStore:
    """The process-wide :class:`TraceStore` for ``spec`` (see above).

    ``metrics``, when given, (re)binds the store's warm-cache counters
    to the caller's registry — the daemon's serial path attaches its
    own so ``GET /v1/metrics`` reports warm hits.
    """
    key = tuple(sorted((k, str(v)) for k, v in spec.items()))
    store = _SHARED_BY_SPEC.get(key)
    if store is None:
        store = TraceStore(**spec)
        _SHARED_BY_SPEC[key] = store
    if metrics is not None:
        store.metrics = metrics
    return store


def _gen_worker(spec: dict, app: str) -> AppRun:
    """Pool worker: generate (or load) one application run."""
    return TraceStore(**spec).get(app)


def _sim_worker(
    spec: dict, app: str, configs: list[ProcessorConfig]
) -> list[ExecutionBreakdown]:
    """Pool worker: run a batch of processor models over one trace."""
    run = TraceStore(**spec).get(app)
    return [simulate(run.trace, cfg) for cfg in configs]


def _select_apps(apps: tuple[str, ...] | None) -> list[str]:
    return [a for a in APP_NAMES if apps is None or a in apps]


def generate_traces(
    store: TraceStore,
    apps: tuple[str, ...] | None = None,
    jobs: int = 1,
) -> list[AppRun]:
    """Materialise application runs, fanning out across processes.

    With ``jobs > 1`` each missing trace is generated in its own
    supervised worker process (workers share the on-disk cache, and a
    crashed or wedged worker is restarted with its trace retried);
    results are collected in canonical application order, so the
    outcome is independent of worker scheduling.  ``jobs <= 1`` is the
    plain serial path.
    """
    names = _select_apps(apps)
    missing = [a for a in names if a not in store._runs]
    if jobs > 1 and len(missing) > 1:
        spec = store.spec()
        runs = run_jobs(
            _gen_worker,
            [(spec, a) for a in missing],
            jobs=jobs,
            labels=[f"trace:{a}" for a in missing],
        )
        for app, run in zip(missing, runs):
            store._runs[app] = run
    return [store.get(a) for a in names]


def _chunk(seq: list, n: int) -> list[list]:
    """Split ``seq`` into at most ``n`` contiguous, order-preserving
    chunks."""
    n = max(1, min(n, len(seq)))
    size, extra = divmod(len(seq), n)
    chunks, start = [], 0
    for i in range(n):
        end = start + size + (1 if i < extra else 0)
        chunks.append(seq[start:end])
        start = end
    return chunks


def simulate_app_models(
    store: TraceStore,
    configs: list[ProcessorConfig],
    apps: tuple[str, ...] | None = None,
    jobs: int = 1,
) -> dict[str, list[ExecutionBreakdown]]:
    """Run every config over every app's trace, optionally in parallel.

    The fan-out unit is one app (several apps) or one contiguous config
    chunk (single app), whichever exposes parallelism.  Results are
    assembled in input order — identical to the serial path, bar wall
    time.  Requires an on-disk cache for ``jobs > 1`` (workers cannot
    share in-memory traces); without one the sims run serially.
    """
    names = _select_apps(apps)
    if jobs > 1 and store.cache_dir is not None and names and configs:
        generate_traces(store, tuple(names), jobs)
        spec = store.spec()
        if len(names) > 1:
            batches = run_jobs(
                _sim_worker,
                [(spec, a, configs) for a in names],
                jobs=jobs,
                labels=[f"sim:{a}" for a in names],
            )
            return dict(zip(names, batches))
        app = names[0]
        chunks = _chunk(list(configs), jobs)
        batches = run_jobs(
            _sim_worker,
            [(spec, app, chunk) for chunk in chunks],
            jobs=jobs,
            labels=[f"sim:{app}[{i}]" for i in range(len(chunks))],
        )
        return {app: [bd for batch in batches for bd in batch]}
    return {
        a: [simulate(store.get(a).trace, cfg) for cfg in configs]
        for a in names
    }


@dataclass(frozen=True)
class Experiment:
    """One table or figure.

    ``configs`` are the processor configurations it replays over each
    application's stored trace, generated at ``miss_penalty`` when set.
    ``collect(store, results)`` turns their breakdowns, ``{app: [one per
    config]}``, into its result; without it the result is those
    breakdowns.  They are shared with the sweep's other experiments, so
    ``collect`` never mutates them.  ``format`` renders the result.
    """

    configs: tuple[ProcessorConfig, ...]
    format: Callable[[object], str]
    collect: Callable[[TraceStore, dict], object] | None = None
    miss_penalty: int | None = None


def _config_key(config: ProcessorConfig) -> str:
    """Every field of ``config``, ``ds`` items included, canonically."""
    return canonical_config_blob(asdict(config))


def run_experiments(
    store: TraceStore,
    experiments: list[Experiment],
    apps: tuple[str, ...] | None = None,
    jobs: int = 1,
) -> list:
    """Each experiment's result, in order, from one sweep per trace
    store: the union of their config lists, repeats dropped by
    :func:`_config_key`, simulated once through
    :func:`simulate_app_models`."""
    collected: list = [None] * len(experiments)
    penalties = [e.miss_penalty or store.miss_penalty for e in experiments]
    for penalty in dict.fromkeys(penalties):
        target = store if penalty == store.miss_penalty else TraceStore(
            **{**store.spec(), "miss_penalty": penalty}
        )
        group = [i for i, p in enumerate(penalties) if p == penalty]
        union = {
            _config_key(c): c for i in group for c in experiments[i].configs
        }
        slot = {key: n for n, key in enumerate(union)}
        results = simulate_app_models(
            target, list(union.values()), apps=apps, jobs=jobs
        )
        for i in group:
            experiment = experiments[i]
            slots = [slot[_config_key(c)] for c in experiment.configs]
            runs = {a: [r[s] for s in slots] for a, r in results.items()}
            collected[i] = (
                experiment.collect(target, runs) if experiment.collect
                else runs
            )
    return collected
