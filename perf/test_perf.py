"""Tests of the benchmark itself (outside tier-1):

    PYTHONPATH=src python -m pytest perf -q

Everything here runs at the ``--quick`` scale (tiny preset, 4 CPUs).
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from perf import compare, golden, run, spans  # noqa: E402
from perf.stats import median_iqr, percentile, tail_percentile  # noqa: E402
from perf.workloads import (  # noqa: E402
    QUICK,
    REPEATS,
    WORKLOAD_NAMES,
    canonical_configs,
    request_order,
)


# -- percentile rule ----------------------------------------------------


@pytest.mark.parametrize("n,expected", [
    (1, 50), (21, 50), (99, 50), (100, 90), (199, 90), (200, 95),
    (225, 95), (999, 95), (1000, 99),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected > 50:
        assert n * (100 - expected) / 100 >= 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 95) == 95
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([7.0], 99) == 7.0


def test_median_iqr_matches_statistics_quantiles():
    assert median_iqr([1.0, 2.0, 3.0, 4.0, 5.0]) == (3.0, 3.0)
    assert median_iqr([4.2]) == (4.2, 0.0)


# -- spans --------------------------------------------------------------


def _span(i, name, start, end, parent):
    return {"id": i, "name": name, "start": start, "end": end,
            "parent": parent, "workload": "w"}


def test_self_time_subtracts_the_union_of_child_spans():
    tree = [
        _span(0, "root", 0.0, 10.0, None),
        _span(1, "a", 1.0, 4.0, 0),
        _span(2, "b", 3.0, 6.0, 0),   # overlaps a: union is [1, 6]
        _span(3, "a", 7.0, 9.0, 0),
        _span(4, "leaf", 1.5, 2.0, 1),
    ]
    own = spans.self_times(tree)
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[1] == pytest.approx(3.0 - 0.5)
    by_name = spans.self_time_by_name(tree)
    assert by_name["a"] == pytest.approx(2.5 + 2.0)
    assert spans.residual_frac(tree, "root") == pytest.approx(0.3)
    # Layer self times plus the residual account for the whole wall-clock
    # when children do not overlap each other.
    serial = [tree[0], tree[1], tree[3], tree[4]]
    assert sum(spans.self_time_by_name(serial).values()) == pytest.approx(10)


def test_recorder_nests_wraps_and_restores():
    class Layer:
        @staticmethod
        def work(x):
            return x + 1

    rec = spans.Recorder("w")
    rec.wrap(Layer, "work", lambda x: f"layer.work{x}",
             post=lambda result: result * 2)
    with rec.span("w"):
        assert Layer.work(1) == 4
        # A wrapped function called from a worker thread (ThreadStepper)
        # runs untraced: it has no open span to nest under.
        thread = threading.Thread(target=Layer.work, args=(5,))
        thread.start()
        thread.join(10)
        assert not thread.is_alive()
    rec.unwrap_all()
    assert Layer.work(1) == 2
    names = [(s["name"], s["parent"]) for s in rec.spans]
    assert names == [("w", None), ("layer.work1", 0)]
    spans.validate(rec.spans, "w")
    with pytest.raises(AssertionError):
        spans.validate([_span(0, "stray", 0, 1, None)], "w")
    with pytest.raises(AssertionError):
        spans.validate(
            [_span(0, "w", 0, 1, None), _span(1, "late", 0.5, 2, 0)], "w"
        )


def test_disabled_recorder_records_and_wraps_nothing():
    rec = spans.Recorder("w", enabled=False)
    rec.wrap(json, "dumps", "json.dumps")
    with rec.span("w") as span:
        assert span is None
    assert rec.spans == [] and json.dumps.__module__ == "json"


# -- seeded inputs ------------------------------------------------------


def test_request_sequence_is_a_function_of_the_seed():
    n = len(canonical_configs(QUICK))
    first = request_order(7, 0, n)
    assert first == request_order(7, 0, n)
    assert first != request_order(8, 0, n)
    assert first != request_order(7, 1, n)
    assert len(first) == n + REPEATS and set(first) == set(range(n))
    # A repeat always follows its original, so it is a dedup hit.
    fresh = [i for pos, i in enumerate(first) if i not in first[:pos]]
    assert sorted(fresh) == list(range(n))


def test_canonical_configs_are_distinct_jobs():
    from repro.service.jobs import SweepJob

    configs = canonical_configs(QUICK)
    labels = {SweepJob(**cfg).label() for cfg in configs}
    assert len(labels) == len(configs) == 45


# -- golden -------------------------------------------------------------


def test_corrupted_golden_fails_operations():
    record = run.run_one("cosim_mesh", 0, 0.0, False, True, 1, None)
    assert record["correct"] and record["facts"]
    pinned = {
        "schema": golden.SCHEMA, "source_rev": "test",
        "workloads": {"cosim_mesh": {
            "inputs": record["inputs"], "facts": record["facts"],
        }},
    }
    again = run.run_one("cosim_mesh", 0, 0.0, False, True, 1, pinned)
    assert again["correct"] and again["failed"] == 0

    corrupted = copy.deepcopy(pinned)
    key = sorted(corrupted["workloads"]["cosim_mesh"]["facts"])[0]
    corrupted["workloads"]["cosim_mesh"]["facts"][key]["misses"] += 1
    bad = run.run_one("cosim_mesh", 0, 0.0, False, True, 1, corrupted)
    assert not bad["correct"] and bad["failed"] == 1
    assert any(key in error for error in bad["errors"])
    line = json.loads(run.contract_line(bad))
    assert line["failed"] / line["attempted"] > 0

    # A section pinned for other inputs does not apply.
    corrupted["workloads"]["cosim_mesh"]["inputs"] = {"procs": 16}
    assert golden.mismatches(
        corrupted, "cosim_mesh", record["inputs"], record["facts"]
    ) == []


def test_committed_golden_covers_every_workload():
    pinned = golden.load()
    assert set(pinned["workloads"]) == set(WORKLOAD_NAMES)
    for section in pinned["workloads"].values():
        assert section["inputs"]["preset"] == "default"
        assert section["inputs"]["procs"] == 16 and section["facts"]


# -- compare ------------------------------------------------------------


def test_verdicts_on_synthetic_runs():
    base = [10.0, 10.1, 9.9, 10.05, 9.95]
    assert compare.verdict(base, [10.02, 9.98, 10.0], "lower", 0.1) == "same"
    assert compare.verdict(base, [8.0, 8.1, 7.9], "lower", 0.1) == "better"
    assert compare.verdict(base, [12.0, 12.1, 11.9], "lower", 0.1) == "worse"
    assert compare.verdict(base, [8.0, 8.1, 7.9], "higher", 0.1) == "worse"
    assert compare.verdict(base, [12.0, 12.1], "higher", 0.1) == "better"
    noisy = [8.0, 12.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, [9.5, 11.5, 8.5], "lower", 0.1) == (
        "unresolved"
    )
    # Wider than the bound, but every run of B beats every run of A.
    assert compare.verdict(noisy, [5.0, 7.0, 6.0], "lower", 0.1) == "better"
    # A worsening inside the bound is not a regression.
    assert compare.verdict(base, [10.5, 10.6, 10.4], "lower", 0.1) == "same"


def _result(wall, failed=0, quick=False):
    spec = run.load_spec()
    runs = []
    for seed, value in enumerate(wall):
        metrics = {
            item["name"]: {"value": 1.0, "unit": item["unit"]}
            for item in spec["end_to_end"]
        }
        metrics["wall_s"]["value"] = value
        runs.append({"workload": "fig3_warm", "seed": seed, "trace": 0,
                     "failed": failed, "metrics": metrics})
    return {"quick": quick, "runs": runs}


def test_compare_reports_rows_and_exit_status(tmp_path):
    spec = run.load_spec()
    rows, bad = compare.compare(
        _result([7.0, 7.1, 6.9]), _result([9.0, 9.1, 8.9]), spec
    )
    words = {row[1]: row[-1] for row in rows}
    assert bad and words["wall_s"] == "worse" and words["setup_s"] == "same"
    assert len(rows) == len(spec["end_to_end"]) + 1
    _, bad = compare.compare(
        _result([7.0, 7.1, 6.9]), _result([7.0, 7.1, 6.9], failed=1), spec
    )
    assert bad

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_result([7.0, 7.1, 6.9])))
    b.write_text(json.dumps(_result([7.05, 7.0, 6.95])))
    assert compare.main([str(a), str(b)]) == 0
    b.write_text(json.dumps(_result([7.0], quick=True)))
    with pytest.raises(SystemExit):
        compare.main([str(a), str(b)])


# -- the declared benchmark ---------------------------------------------


def test_benchmark_json_meets_its_contract():
    spec = run.load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["perf"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert set(compare.EXACT) <= {m["name"] for m in spec["per_layer"]}


# -- the smoke run ------------------------------------------------------


def test_quick_smoke_runs_every_workload_traced_and_untraced(tmp_path):
    out = tmp_path / "quick.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "run.py"), "--quick",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(out.read_text())
    assert result["quick"] is True
    spec = run.load_spec()
    seen = set()
    for record in result["runs"]:
        seen.add((record["workload"], record["trace"]))
        assert record["correct"], record["errors"]
        declared = spec["per_layer" if record["trace"] else "end_to_end"]
        assert list(record["metrics"]) == [m["name"] for m in declared]
        if record["trace"] and record["workload"] != "svc_closed":
            residual = record["metrics"]["trace.residual_frac"]["value"]
            assert 0 <= residual <= 0.10
    assert seen == {(w, t) for w in WORKLOAD_NAMES for t in (0, 1)}
    with pytest.raises(SystemExit):
        compare.load(str(out))
