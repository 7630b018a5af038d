#!/usr/bin/env python3
"""Compare two benchmark result files: ``perf/compare.py A.json B.json``.

``A`` is the parent (or the first set of runs), ``B`` the change (or the
second set); both come from ``perf/run.py --runs N --out FILE``.  One row
per workload x end-to-end metric gives both medians, both inter-quartile
distances over the runs, the bound from ``BENCHMARK.json`` and a verdict:

* ``worse``      B's median is worse than A's by more than the bound;
* ``unresolved`` the run-to-run spread is wider than the bound and the
                 two sets of runs overlap, so nothing can be said;
* ``better``     B's median is better by more than either side's spread;
* ``same``       otherwise.

Failed operations and, when both files hold traced runs of the same
seeds, the exact simulated counts must be identical.  Exit status 1 on
any ``worse`` or differing exact value, 2 on unusable input (``--quick``
results are rejected: they measure a different problem size).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perf.stats import median_iqr  # noqa: E402

#: Per-layer values that are simulated statistics or operation counts:
#: identical for identical inputs, whatever the host does.
EXACT = (
    "tango.instr", "tango.read_misses", "tango.write_misses",
    "experiments.paper_err_pts", "cpu.ds.sim_cycles",
    "net.misses_timed", "net.miss_mean_cycles", "net.miss_p99_cycles",
    "cosim.misses", "cosim.sim_cycles_max",
    "service.trace_builds", "service.rejected_429",
    "service.store_mismatches",
)


def summarise(entries: list[dict]) -> tuple[float, float, list[float]]:
    """Median, IQR and the values of one metric over a set of runs; a
    single run falls back to the IQR over its own timed passes."""
    values = [e["value"] for e in entries]
    if len(values) == 1:
        return values[0], entries[0].get("iqr", 0.0), values
    return (*median_iqr(values), values)


def verdict(a: list[float], b: list[float], better: str, bound: float,
            a_iqr: float | None = None, b_iqr: float | None = None) -> str:
    """The comparison rule for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    a_med, a_spread = median_iqr(a)
    b_med, b_spread = median_iqr(b)
    a_spread = a_spread if a_iqr is None else a_iqr
    b_spread = b_spread if b_iqr is None else b_iqr
    worse_by = sign * (b_med - a_med) / abs(a_med)
    spread = max(a_spread, b_spread)
    apart = (
        max(sign * x for x in b) < min(sign * x for x in a)
        or min(sign * x for x in b) > max(sign * x for x in a)
    )
    if spread / abs(a_med) > bound and not apart:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < 0 and abs(b_med - a_med) > spread:
        return "better"
    return "same"


def load(path: str) -> dict:
    with open(path) as f:
        result = json.load(f)
    if result.get("quick"):
        raise SystemExit(f"{path}: a --quick result cannot be compared")
    return result


def _by_workload(result: dict, trace: int) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for run in result["runs"]:
        if run["trace"] == trace:
            out.setdefault(run["workload"], []).append(run)
    return out


def compare(a: dict, b: dict, spec: dict) -> tuple[list[tuple], bool]:
    """Rows ``(workload, metric, a_med, a_iqr, b_med, b_iqr, bound,
    verdict)`` and whether any of them fails the comparison."""
    rows, bad = [], False
    a_runs, b_runs = _by_workload(a, 0), _by_workload(b, 0)
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in a_runs or workload not in b_runs:
            continue
        for item in spec["end_to_end"]:
            a_med, a_iqr, a_vals = summarise(
                [r["metrics"][item["name"]] for r in a_runs[workload]]
            )
            b_med, b_iqr, b_vals = summarise(
                [r["metrics"][item["name"]] for r in b_runs[workload]]
            )
            word = verdict(a_vals, b_vals, item["better"], item["bound"],
                           a_iqr, b_iqr)
            bad |= word == "worse"
            rows.append((workload, item["name"], a_med, a_iqr, b_med,
                         b_iqr, item["bound"], word))
        a_failed = sum(r["failed"] for r in a_runs[workload])
        b_failed = sum(r["failed"] for r in b_runs[workload])
        word = "worse" if b_failed > a_failed else "same"
        bad |= word == "worse"
        rows.append((workload, "failed", a_failed, 0, b_failed, 0, 0, word))

    a_traced = {
        (r["workload"], r["seed"]): r for r in a["runs"] if r["trace"]
    }
    for run in b["runs"]:
        other = a_traced.get((run["workload"], run["seed"]))
        if not run["trace"] or other is None:
            continue
        for name in EXACT:
            x = other["metrics"][name]["value"]
            y = run["metrics"][name]["value"]
            if x or y:
                word = "same" if x == y else "differs"
                bad |= word == "differs"
                rows.append((f"{run['workload']}@{run['seed']}", name,
                             x, 0, y, 0, 0, word))
    return rows, bad


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    rows, bad = compare(load(argv[0]), load(argv[1]), spec)
    print(f"{'workload':<16} {'metric':<28} {'A median':>12} {'A iqr':>10} "
          f"{'B median':>12} {'B iqr':>10} {'bound':>6}  verdict")
    for workload, metric, a_med, a_iqr, b_med, b_iqr, bound, word in rows:
        print(f"{workload:<16} {metric:<28} {a_med:>12.6g} {a_iqr:>10.4g} "
              f"{b_med:>12.6g} {b_iqr:>10.4g} {bound:>6.2f}  {word}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
