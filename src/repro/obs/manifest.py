"""Run manifests: the provenance side-band of every simulation task.

A :class:`RunManifest` records *how a result came to be* — the task
key, a hash of the configuration, the master seed, the repository
version, the interpreter and platform, the wall-clock spent and whether
the result was computed or served from cache — plus a free-form metrics
mapping (engine events stepped, placement attempts, per-queue disable
counts, ...).

Manifests are written

* under ``<obs-root>/manifests/<key[:2]>/<key>.json`` for every task a
  worker computes,
* alongside the ``.repro-cache/`` entry (``<key>.manifest.json``) when
  a result is stored, and
* alongside saved sweep JSON (``<path>.manifest.json``) with
  ``kind="sweep"``.

The determinism contract: manifests are derived *from* results and
configuration, never fed back into task keys or payloads — deleting
every manifest changes nothing about any simulation.
"""

from __future__ import annotations

import hashlib
import json
import platform as platform_module
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional, Union

from repro.atomicio import atomic_write_json

__all__ = ["MANIFEST_SCHEMA", "RunManifest", "config_hash",
           "for_task", "for_sweep", "write_manifest", "load_manifest",
           "manifest_path", "cache_manifest_path"]

#: Versioned shape tag of the manifest payload; bump on change.
MANIFEST_SCHEMA = "repro.obs/manifest/1"

PathLike = Union[str, Path]


def _repro_version() -> str:
    import repro

    return getattr(repro, "__version__", "unknown")


def config_hash(config: Any) -> str:
    """Stable sha256 (16 hex chars) of a ``SimulationConfig``."""
    payload = json.dumps(asdict(config), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class RunManifest:
    """Provenance record for one task (or one sweep artifact)."""

    key: str
    description: str
    config_hash: str
    seed: int
    policy: str
    cache_status: str  # "computed" | "hit" | "stored" | "saved"
    kind: str = "task"  # "task" | "sweep"
    offered_gross: Optional[float] = None
    wall_clock_s: Optional[float] = None
    #: Executions the runner made before this result existed (retries
    #: and crash/timeout replacements count; 1 = first try succeeded).
    #: Backfilled by the retry layer, parent-side, after a recovery.
    attempts: int = 1
    repro_version: str = field(default_factory=_repro_version)
    python_version: str = field(
        default_factory=lambda: platform_module.python_version())
    platform: str = field(default_factory=platform_module.platform)
    created_unix: float = field(default_factory=time.time)
    event_log: Optional[str] = None
    metrics: dict = field(default_factory=dict)
    schema: str = MANIFEST_SCHEMA

    def to_dict(self) -> dict:
        """JSON-ready dict form."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunManifest":
        """Rebuild a manifest, rejecting unknown schema tags."""
        if payload.get("schema") != MANIFEST_SCHEMA:
            raise ValueError(
                f"manifest schema {payload.get('schema')!r} != "
                f"{MANIFEST_SCHEMA!r}"
            )
        data = {k: payload[k] for k in cls.__dataclass_fields__
                if k in payload}
        return cls(**data)


def for_task(task: Any, key: str, *, cache_status: str,
             wall_clock_s: Optional[float] = None,
             metrics: Optional[dict] = None,
             event_log: Optional[str] = None) -> RunManifest:
    """Build a manifest for one :class:`~repro.runner.RunTask`."""
    config = task.config
    return RunManifest(
        key=key,
        description=task.describe(),
        config_hash=config_hash(config),
        seed=config.seed,
        policy=config.policy,
        offered_gross=task.offered_gross,
        cache_status=cache_status,
        wall_clock_s=wall_clock_s,
        metrics=dict(metrics or {}),
        event_log=event_log,
    )


def for_sweep(label: str, config: Any, *, points: int,
              wall_clock_s: Optional[float] = None) -> RunManifest:
    """Build a ``kind="sweep"`` manifest for a saved sweep artifact."""
    digest = config_hash(config)
    return RunManifest(
        key=digest,
        description=f"sweep {label} ({points} points)",
        config_hash=digest,
        seed=config.seed,
        policy=config.policy,
        cache_status="saved",
        kind="sweep",
        wall_clock_s=wall_clock_s,
        metrics={"points": points},
    )


def manifest_path(root: PathLike, key: str) -> Path:
    """Where the obs-root manifest for ``key`` lives (256-way shard)."""
    root = Path(root)
    return root / "manifests" / key[:2] / f"{key}.json"


def cache_manifest_path(entry_path: Path) -> Path:
    """The manifest path next to a ``.repro-cache`` entry."""
    return entry_path.with_name(entry_path.stem + ".manifest.json")


def write_manifest(manifest: RunManifest, path: PathLike) -> Path:
    """Write ``manifest`` as JSON (atomic, see :mod:`repro.atomicio`)."""
    return atomic_write_json(path, manifest.to_dict())


def load_manifest(path: PathLike) -> RunManifest:
    """Read a manifest written by :func:`write_manifest`."""
    with open(path, "r", encoding="utf-8") as fh:
        return RunManifest.from_dict(json.load(fh))
