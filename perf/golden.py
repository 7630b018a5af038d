"""Pinned simulated statistics (``perf/golden/seed0.json``).

The simulator is deterministic, so every exact statistic a workload
observes — Figure-3 breakdown tuples, per-application RunStats totals,
per-CPU co-simulation cycles and the fabric's miss summary, the headline
averages, every service result — is pinned for the inputs seed 0
generates.  A section applies to any run whose generated inputs equal
the pinned ones (three of the four workloads produce seed-independent
statistics, so they are checked on every seed); a mismatch fails that
operation.  A speed-only change therefore cannot move a simulated number
unnoticed, and a modelling change needs a benchmark issue to re-pin
(``run.py --pin``).
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "seed0.json"
SCHEMA = "perf-golden/1"
ROOT = Path(__file__).resolve().parents[1]


def load(path: Path = GOLDEN_PATH) -> dict:
    with open(path) as f:
        golden = json.load(f)
    if golden.get("schema") != SCHEMA:
        raise ValueError(f"{path}: unknown golden schema")
    return golden


def mismatches(golden: dict, workload: str, inputs: dict,
               facts: dict) -> list[str]:
    """Keys whose pinned and observed facts differ (missing on either
    side counts); empty when the section does not cover ``inputs``."""
    section = golden["workloads"].get(workload)
    if section is None or section["inputs"] != inputs:
        return []
    pinned = section["facts"]
    return sorted(
        key for key in pinned.keys() | facts.keys()
        if pinned.get(key) != facts.get(key)
    )


def git(*args: str) -> str:
    """Output of one git command run at the repository root."""
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True,
        timeout=30, check=True,
    ).stdout.strip()


def source_rev() -> str:
    """HEAD, provided the simulator's source tree is exactly HEAD's."""
    try:
        dirty = git("status", "--porcelain", "--untracked-files=all",
                    "--", "src")
        rev = git("rev-parse", "HEAD")
    except (OSError, subprocess.SubprocessError) as exc:
        raise SystemExit(f"--pin needs a git checkout: {exc}")
    if dirty:
        raise SystemExit(
            "--pin refused: src/ differs from HEAD, so the pinned numbers "
            "would not belong to a committed simulator:\n" + dirty
        )
    return rev


def write(sections: dict, rev: str, path: Path = GOLDEN_PATH) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(
            {"schema": SCHEMA, "source_rev": rev, "workloads": sections},
            f, indent=1, sort_keys=True,
        )
        f.write("\n")
