"""Sweep decomposition: config grid → deduplicated, shardable jobs.

A batch request is a grid — application × processor kind × consistency
model × window × network × miss penalty — but many grid points collapse
onto the same simulation: BASE ignores the consistency model and the
window, the static models (SSBR/SS) ignore the window.  Each grid point
is canonicalised into a :class:`SweepJob` whose ``config()`` dict drops
the irrelevant axes, so the scheduler dedupes identical sub-runs before
any worker starts and the content-addressed store dedupes them across
batches.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..apps import APP_NAMES, PRESETS

#: ``cosim`` is the co-simulated DS multiprocessor (all processors on
#: one shared fabric, :mod:`repro.cosim`); it keeps both the model and
#: window axes, like ``ds``.
KINDS = ("base", "ssbr", "ss", "ds", "cosim")
MODELS = ("SC", "PC", "WO", "RC")


@dataclass(frozen=True)
class SweepJob:
    """One canonical sub-run of a sweep."""

    app: str
    kind: str = "ds"
    model: str = "RC"
    window: int = 64
    network: str = "ideal"
    penalty: int = 50
    procs: int = 16
    preset: str = "default"

    def config(self) -> dict:
        """The canonical, JSON-able config this job is addressed by."""
        return {
            "app": self.app,
            "kind": self.kind,
            "model": self.model if self.kind != "base" else "-",
            "window": self.window if self.kind in ("ds", "cosim") else 0,
            "network": self.network,
            "penalty": self.penalty,
            "procs": self.procs,
            "preset": self.preset,
        }

    def label(self) -> str:
        bits = [self.app, self.kind]
        if self.kind != "base":
            bits.append(self.model)
        if self.kind in ("ds", "cosim"):
            bits.append(f"w{self.window}")
        bits.append(self.network)
        bits.append(f"m{self.penalty}")
        return "/".join(bits)


def _validate_axes(
    apps, kinds, models, windows, networks, penalties,
    *, procs: int = 16, preset: str = "default",
) -> None:
    """Reject bad axis values with ``ValueError`` before any work runs."""
    from ..net import NETWORK_KINDS  # lazy: keep service imports light

    for app in apps:
        if app not in APP_NAMES:
            raise ValueError(f"unknown application {app!r}")
    for kind in kinds:
        if kind not in KINDS:
            raise ValueError(f"unknown processor kind {kind!r}")
    for model in models:
        if not isinstance(model, str) or model.upper() not in MODELS:
            raise ValueError(f"unknown consistency model {model!r}")
    for window in windows:
        if not isinstance(window, int) or window < 1:
            raise ValueError(f"bad window {window!r}")
    for network in networks:
        if network not in NETWORK_KINDS:
            raise ValueError(f"unknown network {network!r}")
    for penalty in penalties:
        if not isinstance(penalty, int) or penalty < 0:
            raise ValueError(f"bad miss penalty {penalty!r}")
    if not isinstance(procs, int) or procs < 1:
        raise ValueError(f"bad processor count {procs!r}")
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}")


def expand_grid(
    apps,
    kinds=("ds",),
    models=("RC",),
    windows=(64,),
    networks=("ideal",),
    penalties=(50,),
    *,
    procs: int = 16,
    preset: str = "default",
) -> list[SweepJob]:
    """Expand a config grid into deduplicated jobs, in grid order.

    Raises ``ValueError`` for unknown axis values so a bad request
    fails before any worker is spawned.
    """
    _validate_axes(apps, kinds, models, windows, networks, penalties,
                   procs=procs, preset=preset)
    seen: dict[tuple, SweepJob] = {}
    for app in apps:
        for penalty in penalties:
            for network in networks:
                for kind in kinds:
                    for model in models:
                        for window in windows:
                            job = SweepJob(
                                app=app,
                                kind=kind,
                                model=model.upper(),
                                window=window,
                                network=network,
                                penalty=penalty,
                                procs=procs,
                                preset=preset,
                            )
                            ckey = tuple(sorted(job.config().items()))
                            if ckey not in seen:
                                seen[ckey] = job
    return list(seen.values())


def shard(jobs: list, n_shards: int) -> list[list]:
    """Split jobs into at most ``n_shards`` contiguous shards.

    Deterministic: the same job list and shard count always produce the
    same partition — contiguous, order-preserving, disjoint slices that
    together are exactly the input (sizes differ by at most one, larger
    shards first).  The multi-endpoint dispatcher relies on this to
    merge per-shard results back into grid order.
    """
    n = max(1, min(n_shards, len(jobs)))
    size, extra = divmod(len(jobs), n)
    shards, start = [], 0
    for i in range(n):
        end = start + size + (1 if i < extra else 0)
        shards.append(jobs[start:end])
        start = end
    return shards


#: Grid-axis fields of a submission request (plural, list-valued).
GRID_AXES = ("apps", "kinds", "models", "windows", "networks", "penalties")
#: Scalar fields shared by every job of a submission.
GRID_SCALARS = ("procs", "preset")


def sweep_from_request(payload: dict) -> list[SweepJob]:
    """Parse a ``POST /v1/jobs`` body into deduplicated sweep jobs.

    Two request shapes are accepted:

    * a **grid**: the batch CLI's axes as JSON lists plus scalars, e.g.
      ``{"apps": ["lu"], "kinds": ["base", "ds"], "windows": [64]}`` —
      omitted axes take the :class:`SweepJob` defaults, omitted
      ``apps`` means all applications;
    * an **explicit job list**: ``{"jobs": [{"app": "lu", "kind":
      "ds", ...}, ...]}`` — the form the shard dispatcher uses, since a
      shard of an expanded grid is generally not itself a grid.

    ``priority`` and ``trace`` are allowed alongside either shape
    (consumed by the queue, not here).  Raises ``ValueError`` on
    anything malformed so the HTTP layer can map it to a 400.
    """
    if not isinstance(payload, dict):
        raise ValueError("request body must be a JSON object")
    known = (
        set(GRID_AXES) | set(GRID_SCALARS) | {"jobs", "priority", "trace"}
    )
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ValueError(f"unknown request fields: {unknown}")

    if "jobs" in payload:
        mixed = sorted(set(payload) & set(GRID_AXES))
        if mixed:
            raise ValueError(
                f"request mixes explicit 'jobs' with grid axes {mixed}"
            )
        items = payload["jobs"]
        if not isinstance(items, list) or not items:
            raise ValueError("'jobs' must be a non-empty list")
        fields = set(SweepJob.__dataclass_fields__)
        seen: dict[tuple, SweepJob] = {}
        for item in items:
            if not isinstance(item, dict) or "app" not in item:
                raise ValueError("each job must be an object with 'app'")
            extra = sorted(set(item) - fields)
            if extra:
                raise ValueError(f"unknown job fields: {extra}")
            job = SweepJob(**{
                **item,
                "model": str(item.get("model", "RC")).upper(),
            })
            _validate_axes(
                (job.app,), (job.kind,), (job.model,), (job.window,),
                (job.network,), (job.penalty,),
                procs=job.procs, preset=job.preset,
            )
            ckey = tuple(sorted(job.config().items()))
            if ckey not in seen:
                seen[ckey] = job
        return list(seen.values())

    def _axis(name: str, default) -> tuple:
        values = payload.get(name, default)
        if not isinstance(values, (list, tuple)) or not values:
            raise ValueError(f"{name!r} must be a non-empty list")
        return tuple(values)

    return expand_grid(
        _axis("apps", list(APP_NAMES)),
        kinds=_axis("kinds", ["ds"]),
        models=tuple(
            str(m).upper() for m in _axis("models", ["RC"])
        ),
        windows=_axis("windows", [64]),
        networks=_axis("networks", ["ideal"]),
        penalties=_axis("penalties", [50]),
        procs=payload.get("procs", 16),
        preset=payload.get("preset", "default"),
    )
