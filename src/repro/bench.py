"""Performance-regression tracking over ``BENCH_core.json``.

The perf smoke test (``benchmarks/test_perf_smoke.py``) rewrites
``BENCH_core.json`` on every run with the machine's current throughput
numbers.  This module turns those snapshots into a trajectory:

* :func:`append_history` appends the current payload — stamped with a
  UTC timestamp and the git revision — as one JSONL line to a history
  file, so successive runs accumulate a comparable series;
* :func:`check` compares the current payload against a committed
  *baseline* payload metric-by-metric, each with its own tolerance, and
  reports which ratios regressed.

Only **ratio** metrics are checked (speedups and overheads): they are
computed from interleaved samples inside the smoke test, so machine
speed cancels out and a committed baseline stays meaningful across
hosts.  Absolute throughput numbers (instructions/s etc.) are recorded
in the history but never gated — they measure the machine, not the
code.

CLI: ``python -m repro bench`` appends to the history;
``python -m repro bench --check [--baseline PATH]`` additionally
compares and exits 1 on any regression.
"""

from __future__ import annotations

import json
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

#: Default locations, relative to the repository root / CWD.
DEFAULT_BENCH = Path("BENCH_core.json")
DEFAULT_HISTORY = Path("BENCH_history.jsonl")

#: Gated metrics: ``name -> (direction, tolerance)``.  ``higher`` means
#: the metric is a speedup (current may fall at most ``tol`` fraction
#: below baseline); ``lower`` means it is an overhead ratio (current
#: may rise at most ``tol`` fraction above baseline).  Tolerances are
#: wide because even interleaved ratios carry CI-runner noise — they
#: catch "the fast path stopped being fast", not single-digit drift.
TOLERANCES: dict[str, tuple[str, float]] = {
    "compiled_speedup": ("higher", 0.35),
    "compiled_speedup_pthor": ("higher", 0.35),
    "static_speedup": ("higher", 0.35),
    "ds_event_speedup": ("higher", 0.35),
    "daemon_warm_speedup": ("higher", 0.7),
    "obs_disabled_overhead": ("lower", 0.05),
    "obs_disabled_overhead_ref": ("lower", 0.05),
    "obs_enabled_overhead": ("lower", 0.30),
    "cosim_coupling_ratio": ("lower", 0.35),
    "cosim_live_ratio": ("lower", 0.35),
}


class BenchError(ValueError):
    """A bench file is missing or malformed."""


@dataclass
class Delta:
    """One gated metric's baseline-vs-current comparison."""

    metric: str
    direction: str         # "higher" or "lower" is better
    tolerance: float
    baseline: float
    current: float

    @property
    def bound(self) -> float:
        """The worst acceptable current value for this metric."""
        if self.direction == "higher":
            return self.baseline * (1.0 - self.tolerance)
        return self.baseline * (1.0 + self.tolerance)

    @property
    def ok(self) -> bool:
        if self.direction == "higher":
            return self.current >= self.bound
        return self.current <= self.bound

    def format(self) -> str:
        arrow = ">=" if self.direction == "higher" else "<="
        verdict = "ok" if self.ok else "REGRESSED"
        return (
            f"  {self.metric:<24} baseline {self.baseline:>8.3f}  "
            f"current {self.current:>8.3f}  "
            f"(need {arrow} {self.bound:.3f})  {verdict}"
        )


def load_payload(path: Path | str) -> dict:
    """Read one bench payload (a ``BENCH_core.json``-style dict)."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        raise BenchError(
            f"no bench payload at {path} — run the perf smoke first: "
            "PYTHONPATH=src python -m pytest benchmarks/test_perf_smoke.py"
        ) from None
    except (json.JSONDecodeError, OSError) as exc:
        raise BenchError(f"unreadable bench payload {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise BenchError(f"bench payload {path} is not a JSON object")
    return payload


def _git_revision() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def append_history(
    payload: dict,
    history_path: Path | str = DEFAULT_HISTORY,
    *,
    now: float | None = None,
) -> dict:
    """Append one timestamped run to the JSONL history; returns the entry."""
    ts = time.time() if now is None else now
    entry = {
        "recorded_at": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime(ts)
        ),
        "revision": _git_revision(),
        "payload": payload,
    }
    history_path = Path(history_path)
    history_path.parent.mkdir(parents=True, exist_ok=True)
    with history_path.open("a") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def load_history(history_path: Path | str = DEFAULT_HISTORY) -> list[dict]:
    """All recorded history entries, oldest first (corrupt lines skipped)."""
    path = Path(history_path)
    if not path.exists():
        return []
    entries = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(entry, dict) and isinstance(
            entry.get("payload"), dict
        ):
            entries.append(entry)
    return entries


def check(
    current: dict,
    baseline: dict,
    tolerances: dict[str, tuple[str, float]] | None = None,
) -> list[Delta]:
    """Compare gated ratio metrics; returns one :class:`Delta` each.

    Metrics absent from either payload are skipped (a new metric has no
    baseline yet; an old baseline may predate a metric) — gating only
    what both sides measured keeps ``--check`` usable across PRs that
    add instrumentation.
    """
    deltas = []
    for metric, (direction, tol) in sorted(
        (tolerances or TOLERANCES).items()
    ):
        base = baseline.get(metric)
        cur = current.get(metric)
        if not isinstance(base, (int, float)) or not isinstance(
            cur, (int, float)
        ):
            continue
        deltas.append(Delta(
            metric=metric, direction=direction, tolerance=tol,
            baseline=float(base), current=float(cur),
        ))
    return deltas


def format_check(deltas: list[Delta]) -> str:
    lines = ["perf check (ratio metrics, interleaved-sample invariant):"]
    lines.extend(delta.format() for delta in deltas)
    failed = [d for d in deltas if not d.ok]
    if failed:
        lines.append(
            f"FAILED: {len(failed)} metric(s) regressed past tolerance: "
            + ", ".join(d.metric for d in failed)
        )
    else:
        lines.append(f"OK: {len(deltas)} metric(s) within tolerance")
    return "\n".join(lines)
