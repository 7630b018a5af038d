"""Content-addressed result store with embedded checksums.

Extends the :class:`~repro.experiments.runner.TraceStore` contract —
atomic temp-file + rename writes, regenerate-on-corruption — to
arbitrary simulation results.  Records are addressed by a key derived
from three things:

* the **canonical config hash**: SHA-256 over the sorted-key JSON of
  the job's configuration dict, so two sweeps that spell the same
  sub-run differently (ordering, int vs str) still share one record;
* the on-disk **trace schema version**
  (:data:`repro.tango.trace.TRACE_FORMAT_VERSION`) — a schema bump
  invalidates every derived result;
* the **git revision** (from :mod:`repro.obs.manifest`) — results are
  only reused within the code that produced them.

Every record embeds a SHA-256 checksum over the pickled payload; a
load that fails the checksum (truncation, bit flip, foreign file) is
deleted and reported as a miss, so the caller transparently
regenerates — corrupt state can cost work, never correctness.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from pathlib import Path

from ..obs.manifest import git_revision
from ..obs.metrics import MetricsRegistry, NULL_REGISTRY
from ..tango.trace import TRACE_FORMAT_VERSION
from .errors import ResultStoreError

RESULT_STORE_SCHEMA = "repro-result-store/1"


def canonical_config_blob(config: dict) -> str:
    """Deterministic JSON rendition of a config dict (sorted keys)."""
    try:
        return json.dumps(config, sort_keys=True, separators=(",", ":"))
    except TypeError as exc:
        raise ResultStoreError(
            f"config is not JSON-canonicalizable: {exc}"
        ) from exc


def result_key(config: dict, *, git_rev: str | None = None) -> str:
    """The content address for one sub-run's result."""
    material = "|".join((
        RESULT_STORE_SCHEMA,
        f"trace-v{TRACE_FORMAT_VERSION}",
        git_rev or "unknown",
        canonical_config_blob(config),
    ))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class ResultStore:
    """On-disk content-addressed results, safe against torn writes."""

    def __init__(
        self,
        root: Path | str,
        *,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.root = Path(root)
        # Resolved once so every key minted through this store instance
        # is consistent, even if HEAD moves mid-run.
        self.git_rev = git_revision()
        m = metrics if metrics is not None else NULL_REGISTRY
        self._hits = m.counter("service.store_hits")
        self._misses = m.counter("service.store_misses")
        self._corrupt = m.counter("service.store_corrupt")

    def key(self, config: dict) -> str:
        return result_key(config, git_rev=self.git_rev)

    def path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.res"

    # -- writes --------------------------------------------------------

    def put_bytes(
        self, key: str, payload: bytes, meta: dict | None = None
    ) -> Path:
        """Store an already-pickled payload under ``key`` atomically."""
        record = {
            "schema": RESULT_STORE_SCHEMA,
            "key": key,
            "sha256": hashlib.sha256(payload).hexdigest(),
            "meta": meta or {},
            "payload": payload,
        }
        path = self.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with open(tmp, "wb") as f:
            pickle.dump(record, f, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
        return path

    def put(self, key: str, obj, meta: dict | None = None) -> bytes:
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        self.put_bytes(key, payload, meta)
        return payload

    # -- reads ---------------------------------------------------------

    def get_bytes(self, key: str) -> bytes | None:
        """The stored payload bytes, or None (miss / quarantined file).

        Any validation failure — unreadable pickle, wrong schema, key
        mismatch, checksum mismatch — deletes the record and reports a
        miss: the caller regenerates, exactly like the trace cache.
        """
        path = self.path(key)
        try:
            with open(path, "rb") as f:
                record = pickle.load(f)
        except FileNotFoundError:
            self._misses.inc()
            return None
        except (pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, ValueError, TypeError, OSError):
            self._evict(path)
            return None
        if (
            not isinstance(record, dict)
            or record.get("schema") != RESULT_STORE_SCHEMA
            or record.get("key") != key
            or not isinstance(record.get("payload"), bytes)
            or hashlib.sha256(record["payload"]).hexdigest()
            != record.get("sha256")
        ):
            self._evict(path)
            return None
        self._hits.inc()
        return record["payload"]

    def get(self, key: str):
        payload = self.get_bytes(key)
        if payload is None:
            return None
        try:
            return pickle.loads(payload)
        except Exception:  # noqa: BLE001 — checksummed, so ~impossible
            self._evict(self.path(key))
            return None

    def meta(self, key: str) -> dict | None:
        """The metadata dict stored alongside a valid record, or None."""
        path = self.path(key)
        try:
            with open(path, "rb") as f:
                record = pickle.load(f)
        except (OSError, pickle.UnpicklingError, EOFError, ValueError):
            return None
        if isinstance(record, dict) and isinstance(
            record.get("meta"), dict
        ):
            return record["meta"]
        return None

    def _evict(self, path: Path) -> None:
        self._corrupt.inc()
        self._misses.inc()
        try:
            path.unlink()
        except OSError:
            pass

    def keys(self) -> list[str]:
        """Every key with a record file on disk (not validated)."""
        if not self.root.is_dir():
            return []
        return sorted(
            p.stem for p in self.root.glob("??/*.res")
        )
