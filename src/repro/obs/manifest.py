"""Run artifacts: machine-readable manifests and the files beside them.

Every ``python -m repro profile`` run, and every ``cosim`` run with an
output directory, writes a ``manifest.json`` next to its trace/metrics
outputs recording exactly what produced them: the resolved
configuration, the git revision, wall-clock timings per phase, and the
emitted files with sizes.  The manifest is metadata — it carries
timestamps and timings and is *not* required to be deterministic; the
trace and metrics files are.  :func:`write_run_artifacts` writes and
validates all three; :class:`RunResult` is what such a run returns.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from .tracer import validate_trace

MANIFEST_SCHEMA = "repro-profile-manifest/1"

#: Keys a valid manifest must carry.
REQUIRED_FIELDS = (
    "schema", "created", "command", "config", "timings", "outputs",
    "python", "platform",
)


def git_revision() -> str | None:
    """The current git commit hash, or None outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parents[3],
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def build_manifest(
    command: str,
    config: dict,
    timings: dict,
    outputs: dict[str, Path | str],
) -> dict:
    """Assemble a manifest dict (outputs annotated with on-disk sizes)."""
    out_entries = {}
    for label, path in sorted(outputs.items()):
        path = Path(path)
        entry = {"path": str(path)}
        if path.exists():
            entry["bytes"] = path.stat().st_size
        out_entries[label] = entry
    return {
        "schema": MANIFEST_SCHEMA,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "command": command,
        "git_revision": git_revision(),
        "config": config,
        "timings": {k: round(v, 4) for k, v in timings.items()},
        "outputs": out_entries,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
    }


def write_manifest(path: Path | str, manifest: dict) -> None:
    Path(path).write_text(json.dumps(manifest, indent=2) + "\n")


def validate_manifest(obj) -> list[str]:
    """Schema-check a parsed manifest; returns problems (empty == ok)."""
    errors = []
    if not isinstance(obj, dict):
        return ["manifest is not an object"]
    for field in REQUIRED_FIELDS:
        if field not in obj:
            errors.append(f"missing field {field!r}")
    if obj.get("schema") not in (None, MANIFEST_SCHEMA):
        errors.append(
            f"unknown schema {obj.get('schema')!r} != {MANIFEST_SCHEMA!r}"
        )
    for name in ("config", "timings", "outputs"):
        if name in obj and not isinstance(obj[name], dict):
            errors.append(f"{name} is not an object")
    config = obj.get("config")
    if isinstance(config, dict):
        # A run is not reproducible without knowing which interconnect
        # backend produced it.  Batch manifests record the swept set as
        # "networks" (plural).
        if "network" not in config and "networks" not in config:
            errors.append("config missing 'network' (or 'networks')")
    for label, entry in (obj.get("outputs") or {}).items():
        if not isinstance(entry, dict) or "path" not in entry:
            errors.append(f"output {label!r} has no path")
    return errors


@dataclass
class RunResult:
    """Everything one reported run (``profile`` or ``cosim``) produced."""

    app: str
    config: dict
    report: str
    out_dir: Path | None = None
    outputs: dict[str, Path] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    #: the run's own result object (a co-simulation's CosimResult)
    result: object = None

    @property
    def ok(self) -> bool:
        return not self.errors


def write_run_artifacts(
    out_dir: Path,
    run_id: str,
    command: str,
    config: dict,
    timings: dict,
    registry,
    tracer=None,
) -> tuple[dict[str, Path], list[str]]:
    """Write ``trace.json`` (with a tracer), ``metrics.json`` and
    ``manifest.json`` under ``out_dir``, re-reading the trace and the
    manifest to validate them.  Returns the outputs by label and the
    validation failures (empty == ok)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    errors: list[str] = []
    outputs: dict[str, Path] = {}
    if tracer is not None:
        trace_path = out_dir / "trace.json"
        tracer.write(trace_path, other_data={"run_id": run_id})
        outputs["trace"] = trace_path
        errors += [
            f"trace: {e}"
            for e in validate_trace(json.loads(trace_path.read_text()))
        ]
    metrics_path = out_dir / "metrics.json"
    metrics_path.write_text(json.dumps(
        registry.snapshot(), sort_keys=True, indent=1,
    ) + "\n")
    outputs["metrics"] = metrics_path
    manifest_path = out_dir / "manifest.json"
    manifest = build_manifest(
        command, config, timings | {"write": time.perf_counter() - t0},
        outputs,
    )
    write_manifest(manifest_path, manifest)
    outputs["manifest"] = manifest_path
    errors += [
        f"manifest: {e}"
        for e in validate_manifest(json.loads(manifest_path.read_text()))
    ]
    return outputs, errors
