"""Schema validation of the canonical JSON-lines artifacts.

Lifecycle, timeseries and alert files (each written by a
:class:`~repro.obs.sinks.CanonicalLog`) come back from outside the
program, so :func:`validate_artifact` re-checks every line.
"""

from __future__ import annotations

import json
from typing import Optional, Tuple

from repro.exceptions import AnalysisError
from repro.obs.health import ALERT_DETECTORS, ALERT_SEVERITIES, alert_sort_key
from repro.obs.lifecycle import LIFECYCLE_STATUSES

__all__ = ["ARTIFACT_KINDS", "validate_artifact"]

_HEX = frozenset("0123456789abcdef")


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _lifecycle_problem(record: dict) -> Optional[str]:
    """A known stage, a status legal for it, a 16-hex-char trace ID."""
    stage = record["stage"]
    if not isinstance(stage, str) or stage not in LIFECYCLE_STATUSES:
        return f"unknown stage {stage!r}"
    if record["status"] not in LIFECYCLE_STATUSES[stage]:
        return f"status {record['status']!r} illegal for stage {stage!r}"
    trace = record["trace"]
    if not (isinstance(trace, str) and len(trace) == 16
            and set(trace) <= _HEX):
        return f"malformed trace id {trace!r}"
    return None


def _timeseries_problem(record: dict) -> Optional[str]:
    """A numeric tick time; every gauge a JSON number or string."""
    if not _is_number(record["t"]):
        return "'t' must be a number"
    for name, value in record.items():
        if name in ("r", "scheme"):
            continue
        if not (_is_number(value) or isinstance(value, str)):
            return (f"gauge {name!r} must be a number or string, got "
                    f"{type(value).__name__}")
    return None


def _alert_problem(record: dict) -> Optional[str]:
    """Integer block, known detector and severity, comparable key."""
    if not isinstance(record["block"], int):
        return f"block must be an integer, got {record['block']!r}"
    if record["detector"] not in ALERT_DETECTORS:
        return f"unknown detector {record['detector']!r}"
    if record["severity"] not in ALERT_SEVERITIES:
        return f"unknown severity {record['severity']!r}"
    for name in ("kind", "scope"):
        if not isinstance(record[name], str):
            return f"{name} must be a string, got {record[name]!r}"
    if not _is_number(record["t"]):
        return f"t must be a number, got {record['t']!r}"
    if not isinstance(record["detail"], dict):
        return "detail must be an object"
    return None


#: Per kind: required fields, the record check, and the key the writer
#: sorted by (lines must be non-decreasing in it), if the kind has one.
_SCHEMAS = {
    "lifecycle": (("trace", "r", "b", "seq", "stage", "status", "t"),
                  _lifecycle_problem, None),
    "timeseries": (("t", "r"), _timeseries_problem,
                   lambda record: (record["t"],)),
    "alerts": (("block", "detector", "kind", "scope", "severity", "t",
                "detail"), _alert_problem, alert_sort_key),
}

#: Artifact kinds :func:`validate_artifact` knows.
ARTIFACT_KINDS: Tuple[str, ...] = tuple(_SCHEMAS)


def validate_artifact(path: str, kind: str) -> int:
    """Validate a canonical JSON-lines artifact; returns its record count.

    ``kind`` is one of :data:`ARTIFACT_KINDS`.  Blank lines are
    skipped; every other line must be a JSON object with the kind's
    fields, passing its record check — lifecycle events need a known
    stage, a status legal for it and a 16-hex-char trace ID (checked
    structurally, not re-derived) — and, for timeseries and alerts, in
    canonical order.  Anything else raises
    :class:`~repro.exceptions.AnalysisError` naming ``path:line``.
    """
    if kind not in _SCHEMAS:
        raise AnalysisError(
            f"unknown artifact kind {kind!r} ({'|'.join(ARTIFACT_KINDS)})")
    fields, problem_of, order = _SCHEMAS[kind]
    count = 0
    previous: Optional[Tuple] = None
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{line_no}"
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise AnalysisError(f"{where}: not valid JSON: {exc}")
            if not isinstance(record, dict):
                raise AnalysisError(
                    f"{where}: {kind} lines must be JSON objects, got "
                    f"{type(record).__name__}")
            for name in fields:
                if name not in record:
                    raise AnalysisError(f"{where}: missing field {name!r}")
            problem = problem_of(record)
            if problem is not None:
                raise AnalysisError(f"{where}: {problem}")
            if order is not None:
                key = order(record)
                if previous is not None and key < previous:
                    raise AnalysisError(
                        f"{where}: {kind} out of canonical order (went "
                        f"backwards from the previous line)")
                previous = key
            count += 1
    return count
