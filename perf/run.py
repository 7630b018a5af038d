#!/usr/bin/env python3
"""The layered performance benchmark (see ``perf/README.md``).

Driver contract (``BENCHMARK.json``)::

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in this process and prints, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` — every end-to-end metric with ``--trace 0``, every
per-layer metric with ``--trace 1``.

Without ``--workload`` every workload runs in a child process of its
own, ``--runs`` times with consecutive seeds, and ``--out FILE`` collects
the records ``perf/compare.py`` reads::

    python3 perf/run.py --runs 10 --out perf/out/A.json
    python3 perf/run.py --trace --out perf/out/layers.json
    python3 perf/run.py --quick             # tiny preset smoke, < 30 s
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perf" / "out"
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from perf import golden as golden_tools  # noqa: E402
from perf import spans as span_tools  # noqa: E402
from perf.stats import (  # noqa: E402
    calibrate,
    median_iqr,
    percentile,
    tail_percentile,
)
from perf.workloads import (  # noqa: E402
    FULL,
    QUICK,
    WORKLOAD_NAMES,
    WORKLOADS,
    child_env,
    fresh_import_seconds,
)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_one(name: str, seed: int, seconds: float, trace: bool,
            quick: bool, min_reps: int, golden: dict | None) -> dict:
    """Run one workload in this process; returns its record."""
    spec = load_spec()
    scale = QUICK if quick else FULL
    OUT.mkdir(parents=True, exist_ok=True)
    calib_before = calibrate()
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{name}-") as tmp:
        w = WORKLOADS[name](seed, scale, Path(tmp))
        try:
            setup_s = w.setup()
            if trace:
                values = _traced(w, seed, quick)
            else:
                values = _timed(w, seconds, min_reps)
                values["setup_s"] = {"value": setup_s}
                values["peak_rss_mb"] = {"value": w.peak_rss_mb()}
        finally:
            w.close()
    calib_after = calibrate()
    if trace:
        values["host.calib_s"] = {"value": max(calib_before, calib_after)}

    ledger = w.ledger
    failed, errors = ledger.failed, list(ledger.errors)
    if golden is not None:
        wrong = golden_tools.mismatches(
            golden, name, w.inputs(), ledger.facts
        )
        failed += len(wrong)
        errors += [f"golden mismatch: {key}" for key in wrong]
    failed = min(failed, ledger.attempted)

    if trace:
        # A layer the workload never enters did no work: 0, by name.
        declared = spec["per_layer"]
        values = {item["name"]: {"value": 0.0} for item in declared} | values
    else:
        declared = spec["end_to_end"]
    metrics = {
        item["name"]: {**values[item["name"]], "unit": item["unit"]}
        for item in declared
    }
    return {
        "workload": name, "seed": seed, "trace": int(trace),
        "quick": quick, "inputs": w.inputs(),
        "correct": failed == 0, "attempted": ledger.attempted,
        "failed": failed, "errors": errors[:20], "metrics": metrics,
        "calib_s": [calib_before, calib_after],
        "job_median_s": ledger.median_seconds_by_key(),
        "facts": ledger.facts,
    }


def _timed(w, seconds: float, min_reps: int) -> dict:
    """Timed passes with tracing off: at least ``min_reps``, then more
    while another one fits into ``seconds``."""
    passes = []
    begin = time.perf_counter()
    while True:
        passes.append(w.one_pass())
        typical = statistics.median(p.wall_s for p in passes)
        elapsed = time.perf_counter() - begin
        if len(passes) >= min_reps and elapsed + typical > seconds:
            break
    walls = [p.wall_s for p in passes]
    rates = [p.ops_per_s for p in passes]
    wall_median, wall_iqr = median_iqr(walls)
    # The passes repeat identical, deterministic work, so what differs
    # between them is the host; its noise only ever adds time, and the
    # best pass moved a third less than the median pass between sets of
    # runs taken in slow and in quiet phases of the host (README,
    # "Stability").  Latency percentiles describe a distribution and stay
    # percentiles; a workload that times no jobs of its own has one job
    # per pass, the command the user waits on, timed like the pass.
    latencies = w.ledger.latencies() or [min(walls)]
    tail = tail_percentile(len(latencies))
    return {
        "wall_s": {"value": min(walls), "median": wall_median,
                   "iqr": wall_iqr, "n": len(passes), "passes": walls},
        "jobs_per_s": {"value": max(rates), "n": len(passes)},
        "job_latency_p50_s": {
            "value": percentile(latencies, 50), "n": len(latencies),
        },
        "job_latency_tail_s": {
            "value": percentile(latencies, tail), "n": len(latencies),
            "percentile": tail,
        },
    }


def _traced(w, seed: int, quick: bool) -> dict:
    """One pass with tracing off, one wrapped in spans, then the
    isolated layer measurements; returns the per-layer values."""
    plain = w.one_pass()
    rec = span_tools.Recorder(w.name)
    w.install(rec)
    try:
        with rec.span(w.name):
            traced = w.one_pass()
    finally:
        rec.unwrap_all()
        w.rec = span_tools.Recorder(w.name, enabled=False)
    w.extras()
    span_tools.validate(rec.spans, w.name)
    rec.write(OUT / f"spans-{w.name}-seed{seed}.json")
    values = w.layers(rec.spans)
    values.update({
        "host.import_s": min(fresh_import_seconds(1 if quick else 3)),
        "trace.wall_s": traced.wall_s,
        "trace.overhead_frac": (traced.wall_s - plain.wall_s) / plain.wall_s,
        "trace.residual_frac": span_tools.residual_frac(rec.spans, w.name),
    })
    return {key: {"value": value} for key, value in values.items()}


def print_record(record: dict) -> None:
    print(f"# {record['workload']} seed={record['seed']} "
          f"trace={record['trace']} quick={record['quick']}")
    for name, m in record["metrics"].items():
        extra = "".join(
            f" {key}={m[key]:.4g}"
            for key in ("median", "iqr", "n", "percentile")
            if key in m
        )
        if "passes" in m:
            extra += " passes=" + "/".join(f"{p:.3f}" for p in m["passes"])
        print(f"{name:<32} {m['value']:>14.6g} {m['unit']}{extra}")
    print(f"attempted={record['attempted']} failed={record['failed']} "
          f"calib_s={record['calib_s'][0]:.4f}/{record['calib_s'][1]:.4f}")
    for error in record["errors"]:
        print(f"  ! {error}")


def contract_line(record: dict) -> str:
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in record["metrics"].items()
        },
    })


def host_facts() -> dict:
    import numpy

    try:
        rev = golden_tools.git("rev-parse", "HEAD")
    except (OSError, subprocess.SubprocessError):
        rev = None  # not a git checkout
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_rev": rev,
    }


def run_all(args) -> int:
    """Every workload in a child process of its own."""
    OUT.mkdir(parents=True, exist_ok=True)
    records = []
    modes = [0, 1] if args.quick else [int(args.trace)]
    for name in WORKLOAD_NAMES:
        for run in range(args.runs):
            for mode in modes:
                records.append(_child(name, args.seed + run, mode, args))
    result = {
        "quick": args.quick, "host": host_facts(), "runs": records,
    }
    if args.out:
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1)
            f.write("\n")
    return 0 if all(r["correct"] for r in records) else 1


def _child(name: str, seed: int, trace: int, args) -> dict:
    with tempfile.NamedTemporaryFile(
        dir=OUT, prefix="record-", suffix=".json"
    ) as detail:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(seed),
            "--trace", str(trace), "--reps", str(args.reps),
            "--out", detail.name,
        ]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        if args.quick:
            cmd.append("--quick")
        proc = subprocess.run(cmd, env=child_env())
        if proc.returncode != 0:
            raise SystemExit(
                f"{name} seed {seed} exited with {proc.returncode}"
            )
        record = json.load(detail)
    record.pop("facts")
    return record


def pin(args) -> int:
    """Regenerate the golden file from one pass per workload."""
    if args.seed != 0 or args.quick:
        raise SystemExit("--pin refused: it pins the default scale, seed 0")
    rev = golden_tools.source_rev()
    sections = {}
    for name in WORKLOAD_NAMES:
        record = run_one(name, 0, 0.0, False, False, 1, None)
        print_record(record)
        if not record["correct"]:
            raise SystemExit(f"--pin refused: {name} failed its own checks")
        sections[name] = {
            "inputs": record["inputs"], "facts": record["facts"],
        }
    golden_tools.write(sections, rev)
    print(f"pinned {golden_tools.GOLDEN_PATH} at {rev}")
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="time budget of the timed passes "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: the traced per-layer run")
    parser.add_argument("--reps", type=int, default=3,
                        help="timed passes at least (default 3)")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, seeds SEED.. (all-"
                             "workload mode)")
    parser.add_argument("--quick", action="store_true",
                        help="tiny preset, 4 processors, 1 rep")
    parser.add_argument("--out", help="write the JSON result here")
    parser.add_argument("--pin", action="store_true",
                        help="regenerate perf/golden/seed0.json")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Raise instead of dying, so daemons are reaped and temp dirs removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.pin:
        return pin(args)
    if args.workload is None:
        return run_all(args)
    seconds = args.seconds
    if seconds is None:
        seconds = load_spec()["run_seconds"]
    record = run_one(
        args.workload, args.seed, 0.0 if args.quick else seconds,
        bool(args.trace), args.quick, 1 if args.quick else args.reps,
        None if args.quick else golden_tools.load(),
    )
    print_record(record)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    print(contract_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
