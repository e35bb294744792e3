"""Structured run manifests: what ran, with what, for how long.

A :class:`RunManifest` is the machine-readable receipt of one
experiment or sweep: the scheme/experiment identity and parameters,
the seed root and worker count that make the run reproducible, wall
and CPU time, the trial counters the instrumentation collected, and
the git SHA of the tree that produced it.  The CLI emits one manifest
per experiment into the ``--metrics-out`` file; CI round-trips that
file through :func:`validate_metrics_file` so schema drift fails the
build instead of silently corrupting the benchmark trajectory.
"""

from __future__ import annotations

import datetime
import functools
import os
import subprocess
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.exceptions import AnalysisError
from repro.obs.registry import MetricsRegistry

__all__ = [
    "MANIFEST_VERSION",
    "METRICS_FILE_VERSION",
    "RunManifest",
    "git_sha",
    "validate_metrics_payload",
    "validate_metrics_file",
]

MANIFEST_VERSION = 1
METRICS_FILE_VERSION = 1

_REQUIRED_FIELDS = {
    "manifest_version": int,
    "kind": str,
    "name": str,
    "parameters": dict,
    "workers": int,
    "wall_time_s": float,
    "cpu_time_s": float,
    "trial_counts": dict,
    "started_at": str,
}


def git_sha(root: Optional[str] = None) -> Optional[str]:
    """Short git SHA of the working tree, or ``None`` outside a repo.

    Resolved once per directory for the life of the process: the code
    a process runs is the code it started with, so a later commit in
    the same tree must not relabel its manifests, and only the first
    session forks ``git``.
    """
    return _git_sha_at(os.path.realpath(root or os.getcwd()))


@functools.lru_cache(maxsize=None)
def _git_sha_at(root: str) -> Optional[str]:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=root, capture_output=True, text=True,
            timeout=5, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = completed.stdout.strip()
    return sha if completed.returncode == 0 and sha else None


@dataclass
class RunManifest:
    """One run's provenance record.

    Attributes
    ----------
    kind:
        What produced it: ``"experiment"``, ``"sweep"``, ``"bench"``...
    name:
        Experiment id or scheme spec, e.g. ``"fig9"`` or ``"emss(2,1)"``.
    parameters:
        Free-form run parameters (loss rates, block sizes, flags).
    seed_root:
        Root of the deterministic seed tree, when the run had one.
    workers:
        Resolved process-pool size the run executed with.
    wall_time_s, cpu_time_s:
        Elapsed wall-clock and process CPU time.
    trial_counts:
        Name → count of the work executed (wire trials, MC trials,
        pool tasks) — lifted from the metrics registry's counters.
    git_sha:
        Short SHA of the producing tree (``None`` outside a checkout).
    started_at:
        ISO-8601 UTC timestamp of run start.
    """

    kind: str
    name: str
    parameters: Dict[str, Any] = field(default_factory=dict)
    seed_root: Optional[int] = None
    workers: int = 1
    wall_time_s: float = 0.0
    cpu_time_s: float = 0.0
    trial_counts: Dict[str, int] = field(default_factory=dict)
    git_sha: Optional[str] = None
    started_at: str = ""
    manifest_version: int = MANIFEST_VERSION

    @classmethod
    def start(cls, kind: str, name: str,
              parameters: Optional[Dict[str, Any]] = None,
              seed_root: Optional[int] = None,
              workers: int = 1) -> "_ManifestClock":
        """Begin timing a run; call ``finish(registry)`` to seal it."""
        return _ManifestClock(cls(
            kind=kind, name=name, parameters=dict(parameters or {}),
            seed_root=seed_root, workers=workers, git_sha=git_sha(),
            started_at=datetime.datetime.now(datetime.timezone.utc)
            .isoformat(timespec="seconds"),
        ))

    def to_dict(self) -> dict:
        return {
            "manifest_version": self.manifest_version,
            "kind": self.kind,
            "name": self.name,
            "parameters": self.parameters,
            "seed_root": self.seed_root,
            "workers": self.workers,
            "wall_time_s": self.wall_time_s,
            "cpu_time_s": self.cpu_time_s,
            "trial_counts": self.trial_counts,
            "git_sha": self.git_sha,
            "started_at": self.started_at,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunManifest":
        """Rebuild and validate a manifest from :meth:`to_dict` output."""
        validate_manifest_payload(payload)
        return cls(
            kind=payload["kind"],
            name=payload["name"],
            parameters=dict(payload["parameters"]),
            seed_root=payload.get("seed_root"),
            workers=int(payload["workers"]),
            wall_time_s=float(payload["wall_time_s"]),
            cpu_time_s=float(payload["cpu_time_s"]),
            trial_counts={str(k): int(v)
                          for k, v in payload["trial_counts"].items()},
            git_sha=payload.get("git_sha"),
            started_at=payload["started_at"],
            manifest_version=int(payload["manifest_version"]),
        )


class _ManifestClock:
    """Pairs a manifest with its wall/CPU clocks until ``finish``."""

    def __init__(self, manifest: RunManifest) -> None:
        self.manifest = manifest
        self._wall_start = time.perf_counter()
        self._cpu_start = time.process_time()

    def finish(self, registry: Optional[MetricsRegistry] = None
               ) -> RunManifest:
        """Stamp elapsed times and lift trial counters from ``registry``."""
        self.manifest.wall_time_s = time.perf_counter() - self._wall_start
        self.manifest.cpu_time_s = time.process_time() - self._cpu_start
        if registry is not None:
            self.manifest.trial_counts = {
                name: value for name, value in sorted(registry.counters.items())
                if name.endswith((".trials", ".tasks", ".points",
                                  ".runs", ".sessions", ".lookups"))
            }
        return self.manifest


def validate_manifest_payload(payload: dict) -> None:
    """Raise :class:`AnalysisError` unless ``payload`` is a valid manifest."""
    if not isinstance(payload, dict):
        raise AnalysisError(f"manifest must be a dict, got {type(payload)!r}")
    for name, expected in _REQUIRED_FIELDS.items():
        if name not in payload:
            raise AnalysisError(f"manifest missing required field {name!r}")
        value = payload[name]
        if expected is float:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise AnalysisError(
                    f"manifest field {name!r} must be a number, "
                    f"got {type(value).__name__}")
        elif not isinstance(value, expected) or isinstance(value, bool):
            raise AnalysisError(
                f"manifest field {name!r} must be {expected.__name__}, "
                f"got {type(value).__name__}")
    if payload["manifest_version"] != MANIFEST_VERSION:
        raise AnalysisError(
            f"unsupported manifest version {payload['manifest_version']!r}")
    for key, value in payload["trial_counts"].items():
        if not isinstance(key, str) or not isinstance(value, int):
            raise AnalysisError(
                f"trial_counts entries must be str -> int, got "
                f"{key!r} -> {value!r}")
    seed_root = payload.get("seed_root")
    if seed_root is not None and not isinstance(seed_root, int):
        raise AnalysisError("manifest seed_root must be an int or null")


def validate_metrics_payload(payload: dict) -> int:
    """Validate a ``--metrics-out`` file payload; returns the run count.

    The file is ``{"format": 1, "runs": [{"manifest": ..., "metrics":
    ...}, ...]}``; each manifest must round-trip through
    :meth:`RunManifest.from_dict` and each metrics snapshot through
    :meth:`MetricsRegistry.from_snapshot`.
    """
    if not isinstance(payload, dict):
        raise AnalysisError("metrics file must hold a JSON object")
    if payload.get("format") != METRICS_FILE_VERSION:
        raise AnalysisError(
            f"unsupported metrics file format {payload.get('format')!r}")
    runs = payload.get("runs")
    if not isinstance(runs, list) or not runs:
        raise AnalysisError("metrics file must carry a non-empty 'runs' list")
    for entry in runs:
        if not isinstance(entry, dict):
            raise AnalysisError("each run entry must be a JSON object")
        manifest = RunManifest.from_dict(entry.get("manifest", {}))
        round_tripped = RunManifest.from_dict(manifest.to_dict())
        if round_tripped.to_dict() != manifest.to_dict():
            raise AnalysisError("manifest does not round-trip")
        if "metrics" in entry and entry["metrics"] is not None:
            MetricsRegistry.from_snapshot(entry["metrics"])
    return len(runs)


def validate_metrics_file(path: str) -> int:
    """Load ``path`` and validate it; returns the number of runs inside."""
    import json

    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return validate_metrics_payload(payload)
