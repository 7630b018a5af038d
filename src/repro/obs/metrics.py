"""Metrics registry: counters, gauges, histograms, time-series reservoirs.

The single sink every simulator layer publishes observability data into
(the paper's Figures 3/4 decompose *aggregate* time; the registry keeps
the time-resolved signals that explain those aggregates — ROB occupancy,
store-buffer depth, per-link queue lengths, miss-latency distributions).

Two design rules keep the hot paths honest:

* **Opt-in**: a disabled :class:`MetricsRegistry` hands out shared no-op
  instruments whose recording methods do nothing, so call sites may hold
  an instrument unconditionally; the truly hot loops additionally guard
  with ``if probe is not None`` and skip even the no-op call.
* **Determinism**: every instrument is plain integer/float arithmetic in
  registration order — snapshots of two identical runs are identical,
  which the trace/metrics determinism tests rely on.
"""

from __future__ import annotations

from bisect import bisect_left

#: Default histogram bucket upper bounds (cycles / latencies).
LATENCY_BOUNDS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000)

#: Histogram bucket upper bounds for wall-clock durations in seconds
#: (service-layer job wait/run latencies).
SECONDS_BOUNDS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 300.0,
)


def label_key(name: str, labels: dict | None) -> str:
    """The registry key for an instrument: ``name{k="v",...}``.

    Unlabeled instruments keep the bare name, so every pre-existing
    call site (and ``snapshot()`` consumer) is unchanged.  Label pairs
    are sorted, so ``{"a": 1, "b": 2}`` and ``{"b": 2, "a": 1}``
    address the same instrument.
    """
    if not labels:
        return name
    inner = ",".join(
        f'{k}="{labels[k]}"' for k in sorted(labels)
    )
    return f"{name}{{{inner}}}"


def occupancy_bounds(capacity: int) -> tuple[int, ...]:
    """Power-of-two bucket bounds for an occupancy in ``0..capacity``."""
    bounds = [0]
    b = 1
    while b < capacity:
        bounds.append(b)
        b *= 2
    bounds.append(capacity)
    return tuple(bounds)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.labels: dict = {}
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def snapshot(self):
        return self.value


class Gauge:
    """A point-in-time value (last write wins, or inc/dec deltas).

    The delta form serves level-style signals maintained from several
    call sites — e.g. the service daemon's queue depth, bumped on
    submit and dropped on dispatch.
    """

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.labels: dict = {}
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def inc(self, n=1) -> None:
        self.value += n

    def dec(self, n=1) -> None:
        self.value -= n

    def snapshot(self):
        return self.value


class Histogram:
    """Fixed-bucket histogram with sum/count/max.

    ``bounds`` are inclusive upper bucket bounds; one overflow bucket
    catches everything above the last bound.  ``observe(v, n)`` records
    a value with a weight, so per-cycle occupancies can be accumulated
    from the event-driven models' multi-cycle jumps.
    """

    __slots__ = (
        "name", "labels", "bounds", "counts", "total", "count", "max",
    )

    def __init__(self, name: str, bounds=LATENCY_BOUNDS) -> None:
        self.name = name
        self.labels: dict = {}
        self.bounds = tuple(sorted(bounds))
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0
        self.count = 0
        self.max = 0

    def observe(self, value, n: int = 1) -> None:
        self.counts[bisect_left(self.bounds, value)] += n
        self.total += value * n
        self.count += n
        if value > self.max:
            self.max = value

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile: the bucket bound covering rank q."""
        if not self.count:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank:
                return self.bounds[i] if i < len(self.bounds) else self.max
        return self.max

    def snapshot(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
            "max": self.max,
            "mean": round(self.mean(), 3),
        }


class Reservoir:
    """Bounded time series with deterministic stride decimation.

    Keeps fewer than ``CAPACITY`` ``(t, value)`` samples.  When full,
    every other retained sample is dropped and the keep-stride doubles,
    so an arbitrarily long run degrades into an evenly thinned series
    instead of overflowing — and identically for identical runs.
    """

    CAPACITY = 1024

    __slots__ = ("name", "labels", "times", "values", "_stride", "_seen")

    def __init__(self, name: str) -> None:
        self.name = name
        self.labels: dict = {}
        self.times: list[int] = []
        self.values: list = []
        self._stride = 1
        self._seen = 0

    def sample(self, t: int, value) -> None:
        keep = self._seen % self._stride == 0
        self._seen += 1
        if not keep:
            return
        self.times.append(t)
        self.values.append(value)
        if len(self.times) >= self.CAPACITY:
            self.times = self.times[::2]
            self.values = self.values[::2]
            self._stride *= 2

    def snapshot(self) -> dict:
        return {
            "t": list(self.times),
            "v": list(self.values),
            "stride": self._stride,
            "seen": self._seen,
        }


class _NullInstrument:
    """Shared do-nothing instrument handed out by a disabled registry."""

    __slots__ = ()
    name = "<disabled>"
    labels: dict = {}
    value = 0
    total = 0
    count = 0
    max = 0

    def inc(self, n: int = 1) -> None:
        pass

    def dec(self, n: int = 1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def observe(self, value, n: int = 1) -> None:
        pass

    def sample(self, t: int, value) -> None:
        pass

    def mean(self) -> float:
        return 0.0

    def quantile(self, q: float) -> float:
        return 0.0

    def snapshot(self):
        return None


_NULL = _NullInstrument()


class MetricsRegistry:
    """Named instruments, one namespace per run.

    ``MetricsRegistry(enabled=False)`` is the near-zero-cost no-op form:
    every factory returns the shared null instrument and
    :meth:`snapshot` is empty.  Re-requesting a name returns the same
    instrument; requesting it as a different kind is an error.

    Instruments may carry **labels** (``labels={"state": "busy"}``):
    each distinct label set is its own instrument under the family
    ``name``, keyed (and snapshotted) as ``name{state="busy"}`` — the
    form the Prometheus encoder in :mod:`repro.obs.prom` groups back
    into one metric family.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._instruments: dict[str, object] = {}

    def _get(self, name: str, kind, *args, labels=None):
        if not self.enabled:
            return _NULL
        key = label_key(name, labels)
        inst = self._instruments.get(key)
        if inst is None:
            inst = kind(name, *args)
            if labels:
                inst.labels = dict(labels)
            self._instruments[key] = inst
        elif type(inst) is not kind:
            raise TypeError(
                f"metric {key!r} already registered as "
                f"{type(inst).__name__}, not {kind.__name__}"
            )
        return inst

    def counter(self, name: str, labels: dict | None = None) -> Counter:
        return self._get(name, Counter, labels=labels)

    def gauge(self, name: str, labels: dict | None = None) -> Gauge:
        return self._get(name, Gauge, labels=labels)

    def histogram(
        self, name: str, bounds=LATENCY_BOUNDS,
        labels: dict | None = None,
    ) -> Histogram:
        return self._get(name, Histogram, bounds, labels=labels)

    def reservoir(
        self, name: str, labels: dict | None = None
    ) -> Reservoir:
        return self._get(name, Reservoir, labels=labels)

    def get(self, name: str, labels: dict | None = None):
        """The registered instrument, or None."""
        return self._instruments.get(label_key(name, labels))

    def instruments(self) -> list:
        """Every registered instrument, sorted by key (stable order)."""
        return [
            self._instruments[key] for key in sorted(self._instruments)
        ]

    def snapshot(self) -> dict:
        """JSON-serializable dump of every instrument, grouped by kind."""
        out: dict[str, dict] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
            "reservoirs": {},
        }
        group = {
            Counter: "counters",
            Gauge: "gauges",
            Histogram: "histograms",
            Reservoir: "reservoirs",
        }
        for name in sorted(self._instruments):
            inst = self._instruments[name]
            out[group[type(inst)]][name] = inst.snapshot()
        return out


#: Shared disabled registry for callers that want "metrics or nothing".
NULL_REGISTRY = MetricsRegistry(enabled=False)


def format_histogram(hist: Histogram) -> str:
    """ASCII rendition of a histogram (one bar per bucket)."""
    lines = []
    peak = max(hist.counts) if hist.count else 0
    bounds = [str(b) for b in hist.bounds] + [f">{hist.bounds[-1]}"]
    label_w = max(len(b) for b in bounds)
    for bound, count in zip(bounds, hist.counts):
        bar = "#" * (round(40 * count / peak) if peak else 0)
        lines.append(f"  <= {bound.rjust(label_w)}  {bar} {count}")
    lines.append(
        f"  (count {hist.count}, mean {hist.mean():.1f}, max {hist.max})"
    )
    return "\n".join(lines)
