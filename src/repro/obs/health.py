"""Online health plane: streaming SLO, drift and soundness detectors.

The paper treats the authentication probability ``q_i`` as a *designed*
quantity, but nothing in the serving stack noticed while running when
the observed world left the designed envelope — conformance was all
post-hoc.  This module closes that gap with three detector families,
evaluated at virtual-time block boundaries inside
:func:`~repro.serve.service.run_live_session`:

* **SLO monitors** — one per receiver (``r:<id>``) and per subtree
  (``st:<label>``): a one-sided sequential (CUSUM-style) test of the
  verified-rate against the active design's ``q`` target.  With the
  target expressed as the exact fraction ``q_num/q_den``, a block of
  ``n`` expected and ``v`` verified packets updates the statistic as

      ``S <- max(0, S + (q_num*n - v*q_den))``

  and a breach fires when ``S >= deficit * q_den`` — i.e. when the
  cumulative shortfall exceeds ``deficit`` packets.  Everything is
  integer arithmetic: no wall clock, no float-order nondeterminism, so
  two runs (or any shard split) agree bit-for-bit.
* **Envelope drift** — the pooled loss window (exact integer
  ``lost``/``fill`` counts from the controller's estimator) compared
  against the top of the design lattice.  Leaving the lattice emits an
  edge-triggered ``off-lattice`` alert the adaptive controller consumes
  as a counted re-lookup/refresh hook (see
  :meth:`~repro.serve.adaptive.AdaptiveController.request_refresh`).
* **Soundness sentinels** — raw counters promoted to typed alerts:
  any ``forged_accepted`` (critical — the invariant every security
  test keys on), decode-error-rate spikes, DoS-cap buffer evictions,
  and batch root-cache anomalies (more root verifications than root
  signatures — the shared cache stopped amortizing).

The monitor is a :class:`~repro.obs.sinks.CanonicalLog` keyed by
:meth:`AlertEvent.sort_key` — the same sort-at-flush discipline as
:class:`~repro.obs.lifecycle.LifecycleTracer` — so asyncio interleaving
can never leak into the alert file's bytes, and CI diffs two alert
files instead of trusting them.

:meth:`HealthMonitor.merge` gives monitor state the exact fold the
rest of the observability layer has (``McResult.merge`` /
``MetricsRegistry.merge``): associative, commutative, identity on a
fresh monitor with the same configuration, and bit-for-bit when shards
own disjoint scopes — the property the million-receiver cohort
sharding plan needs from its health plane.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from repro.exceptions import AnalysisError
from repro.obs.registry import get_registry
from repro.obs.sinks import CanonicalLog, LogTarget

__all__ = [
    "ALERT_SEVERITIES",
    "ALERT_DETECTORS",
    "DEFAULT_SLO_DEFICIT",
    "AlertEvent",
    "SloSpec",
    "alert_sort_key",
    "parse_slo_spec",
    "HealthMonitor",
    "max_severity",
]

#: Severity levels, mildest first; CLI exit codes key on the worst.
ALERT_SEVERITIES: Tuple[str, ...] = ("info", "warning", "critical")

_SEVERITY_RANK = {name: rank for rank, name in enumerate(ALERT_SEVERITIES)}

#: Detector families an alert may come from.
ALERT_DETECTORS: Tuple[str, ...] = ("slo", "drift", "sentinel")

#: Default cumulative verified-packet deficit before an SLO breach
#: fires (the CUSUM decision threshold ``h``, in packet units).
DEFAULT_SLO_DEFICIT = 24

#: Pool-wide scope label for alerts not attributable to one receiver.
POOL_SCOPE = "_pool"

FractionLike = Union[Fraction, str, float, int]


def _to_fraction(value: FractionLike, what: str) -> Fraction:
    """Exact rational from a value (floats go through their decimal repr).

    ``Fraction(str(0.9))`` is ``9/10`` — the number the user wrote —
    where ``Fraction(0.9)`` would be the 53-bit binary neighbour.  The
    decimal reading is what makes CLI-supplied targets exact.
    """
    try:
        if isinstance(value, Fraction):
            fraction = value
        elif isinstance(value, float):
            fraction = Fraction(str(value))
        else:
            fraction = Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise AnalysisError(f"bad {what} {value!r}: {exc}")
    return fraction


@dataclass(frozen=True)
class AlertEvent:
    """One typed health alert, anchored to a virtual-time block boundary.

    ``detail`` carries detector-specific evidence (exact integer
    counts, the target as a ``num/den`` string); values must be
    JSON-ready.  Events order canonically by :meth:`sort_key`, which is
    what makes alert files byte-identical across runs.
    """

    block: int
    detector: str
    kind: str
    scope: str
    severity: str
    t: float = 0.0
    detail: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.severity not in _SEVERITY_RANK:
            raise AnalysisError(
                f"unknown severity {self.severity!r} "
                f"({'|'.join(ALERT_SEVERITIES)})")
        if self.detector not in ALERT_DETECTORS:
            raise AnalysisError(
                f"unknown detector {self.detector!r} "
                f"({'|'.join(ALERT_DETECTORS)})")

    def sort_key(self) -> Tuple:
        """Canonical order: block-major, then detector/kind/scope."""
        return alert_sort_key(vars(self))

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready record (the alert-file line and manifest form)."""
        return {
            "block": self.block,
            "detector": self.detector,
            "kind": self.kind,
            "scope": self.scope,
            "severity": self.severity,
            "t": self.t,
            "detail": dict(self.detail),
        }


def alert_sort_key(record: Dict[str, object]) -> Tuple:
    """:meth:`AlertEvent.sort_key` of an alert record (its ``to_dict``)."""
    return (record["block"], record["detector"], record["kind"],
            record["scope"], record["t"],
            json.dumps(record["detail"], sort_keys=True))


def max_severity(alerts: List[AlertEvent]) -> Optional[str]:
    """The worst severity present, or ``None`` for an empty list."""
    worst: Optional[str] = None
    for alert in alerts:
        if worst is None or _SEVERITY_RANK[alert.severity] > _SEVERITY_RANK[worst]:
            worst = alert.severity
    return worst


@dataclass(frozen=True)
class SloSpec:
    """A parsed ``--slo`` flag: exact target plus breach threshold."""

    q_num: int
    q_den: int
    deficit: int


def parse_slo_spec(text: str) -> SloSpec:
    """Parse ``q:<target>[:<deficit>]`` (e.g. ``q:0.9`` or ``q:0.9:12``).

    The target is read as an exact decimal/rational in ``(0, 1]``; the
    optional deficit is the cumulative verified-packet shortfall that
    trips a breach (default :data:`DEFAULT_SLO_DEFICIT`).
    """
    parts = text.split(":")
    if len(parts) not in (2, 3) or parts[0] != "q":
        raise AnalysisError(
            f"bad SLO spec {text!r}: expected q:<target>[:<deficit>]")
    target = _to_fraction(parts[1], "SLO target")
    if not 0 < target <= 1:
        raise AnalysisError(
            f"SLO target must be in (0, 1], got {parts[1]!r}")
    deficit = DEFAULT_SLO_DEFICIT
    if len(parts) == 3:
        try:
            deficit = int(parts[2])
        except ValueError:
            raise AnalysisError(
                f"bad SLO deficit {parts[2]!r}: expected an integer")
        if deficit < 1:
            raise AnalysisError(f"SLO deficit must be >= 1, got {deficit}")
    return SloSpec(q_num=target.numerator, q_den=target.denominator,
                   deficit=deficit)


@dataclass
class _SloState:
    """Integer CUSUM state for one scope; every field sums exactly."""

    blocks: int = 0
    expected: int = 0
    verified: int = 0
    cusum: int = 0  # scaled by q_den
    peak: int = 0   # max cusum ever reached (scaled by q_den)
    breaches: int = 0

    def merged(self, other: "_SloState") -> "_SloState":
        return _SloState(
            blocks=self.blocks + other.blocks,
            expected=self.expected + other.expected,
            verified=self.verified + other.verified,
            cusum=self.cusum + other.cusum,
            peak=max(self.peak, other.peak),
            breaches=self.breaches + other.breaches,
        )

    def to_dict(self) -> Dict[str, int]:
        return {"blocks": self.blocks, "expected": self.expected,
                "verified": self.verified, "cusum": self.cusum,
                "peak": self.peak, "breaches": self.breaches}


_SENTINEL_KEYS = ("forged", "undecodable", "cap_evictions",
                  "root_verifies", "batch_signs", "expected")


class HealthMonitor(CanonicalLog):
    """Deterministic streaming health state for one serving session.

    Parameters
    ----------
    q_target:
        The verified-rate SLO floor, read exactly (decimal strings and
        floats go through their decimal representation, so ``0.9``
        means ``9/10``).
    deficit:
        CUSUM decision threshold in packet units: a breach fires once
        a scope's cumulative verified shortfall reaches this many
        packets below target.
    envelope_top:
        Top of the design lattice the drift detector checks the pooled
        loss window against.  ``None`` disables drift detection until
        :meth:`configure_envelope` is called (the serving layer wires
        the active controller's lattice in).
    decode_spike:
        Undecodable-to-expected ratio (per block, exact fraction) at or
        above which the decode sentinel fires.
    sink:
        Where :meth:`flush` writes the alerts emitted since the last
        flush, in canonical order: a path, a text stream, or an
        existing :class:`~repro.obs.sinks.TraceSink`.  ``None`` keeps
        them in :attr:`alerts` only.

    All detector state is integers (or exact rational configuration),
    so :meth:`merge` is an exact fold and repeated runs produce
    identical alert streams.
    """

    def __init__(self, q_target: FractionLike = Fraction(3, 4),
                 deficit: int = DEFAULT_SLO_DEFICIT,
                 envelope_top: Optional[FractionLike] = None,
                 decode_spike: FractionLike = Fraction(1, 4),
                 sink: LogTarget = None) -> None:
        if deficit < 1:
            raise AnalysisError(f"deficit must be >= 1, got {deficit}")
        target = _to_fraction(q_target, "q target")
        if not 0 < target <= 1:
            raise AnalysisError(f"q target must be in (0, 1], got {q_target}")
        spike = _to_fraction(decode_spike, "decode spike threshold")
        if not 0 < spike <= 1:
            raise AnalysisError(
                f"decode spike threshold must be in (0, 1], got "
                f"{decode_spike}")
        super().__init__(sink)
        self.q_num = target.numerator
        self.q_den = target.denominator
        self.deficit = int(deficit)
        self.spike_num = spike.numerator
        self.spike_den = spike.denominator
        self._envelope: Optional[Fraction] = None
        if envelope_top is not None:
            self.configure_envelope(envelope_top)
        self.alerts: List[AlertEvent] = []
        self.slo: Dict[str, _SloState] = {}
        self.drift_blocks = 0
        self.off_lattice_blocks = 0
        self.off_lattice_entries = 0
        self._off_now = False
        self.sentinel_totals: Dict[str, int] = {key: 0
                                                for key in _SENTINEL_KEYS}
        self._last: Dict[str, int] = {}

    # -- configuration -------------------------------------------------

    def configure_envelope(self, top: FractionLike) -> None:
        """Set (or confirm) the lattice top the drift detector uses.

        Reconfiguring to a *different* top mid-flight would silently
        change detector semantics, so that is an error; re-setting the
        same value is a no-op (the serving layer wires the controller's
        lattice unconditionally).
        """
        value = _to_fraction(top, "envelope top")
        if not 0 < value < 1:
            raise AnalysisError(f"envelope top must be in (0, 1), got {top}")
        if self._envelope is not None and self._envelope != value:
            raise AnalysisError(
                f"envelope already configured at {self._envelope}, "
                f"refusing to change it to {value}")
        self._envelope = value

    @property
    def envelope_top(self) -> Optional[Fraction]:
        """The configured lattice top (``None`` = drift disabled)."""
        return self._envelope

    def _config_key(self) -> Tuple:
        return (self.q_num, self.q_den, self.deficit, self.spike_num,
                self.spike_den, self._envelope)

    # -- emission ------------------------------------------------------

    def _emit(self, alert: AlertEvent) -> AlertEvent:
        self.alerts.append(alert)
        if self.sink is not None:
            # Without a sink, ``alerts`` is the whole record; buffered
            # copies would be discarded unread at the next flush.
            self.append(alert.sort_key(), alert.to_dict())
        registry = get_registry()
        if registry.enabled:
            registry.count(f"health.alerts.{alert.severity}", 1)
            registry.count(f"health.alert.{alert.kind}", 1)
        return alert

    # -- detectors -----------------------------------------------------

    def observe_slo(self, block: int, scope: str, expected: int,
                    verified: int, t: float = 0.0) -> Optional[AlertEvent]:
        """Fold one scope's block into its CUSUM; maybe fire a breach.

        The statistic accumulates the scaled shortfall
        ``q_num*expected - verified*q_den`` (positive iff the block ran
        under target), floors at zero, and fires — then re-arms — when
        it crosses ``deficit * q_den``.
        """
        if expected < 0 or verified < 0 or verified > expected:
            raise AnalysisError(
                f"need 0 <= verified <= expected, got verified={verified}, "
                f"expected={expected}")
        state = self.slo.get(scope)
        if state is None:
            state = self.slo[scope] = _SloState()
        state.blocks += 1
        state.expected += expected
        state.verified += verified
        state.cusum = max(
            0, state.cusum + self.q_num * expected - verified * self.q_den)
        state.peak = max(state.peak, state.cusum)
        if state.cusum < self.deficit * self.q_den:
            return None
        state.breaches += 1
        deficit_packets = state.cusum // self.q_den
        state.cusum = 0  # re-arm: one alert per crossing, not per block
        return self._emit(AlertEvent(
            block=block, detector="slo", kind="slo-breach", scope=scope,
            severity="warning", t=t,
            detail={"expected": expected, "verified": verified,
                    "deficit_packets": deficit_packets,
                    "target": f"{self.q_num}/{self.q_den}"}))

    def observe_envelope(self, block: int, lost: int, fill: int,
                         t: float = 0.0) -> Optional[AlertEvent]:
        """Check the pooled loss window against the lattice top.

        ``lost``/``fill`` are the estimator's exact integer window
        counts; the comparison ``lost/fill > top`` is done in cross-
        multiplied integers, so no float ever decides.  The alert is
        edge-triggered: it fires on the on→off transition and re-arms
        only after the window returns inside the lattice.
        """
        if lost < 0 or fill < 0 or lost > fill:
            raise AnalysisError(
                f"need 0 <= lost <= fill, got lost={lost}, fill={fill}")
        if self._envelope is None or fill == 0:
            return None
        self.drift_blocks += 1
        off = lost * self._envelope.denominator > (
            self._envelope.numerator * fill)
        if not off:
            self._off_now = False
            return None
        self.off_lattice_blocks += 1
        if self._off_now:
            return None
        self._off_now = True
        self.off_lattice_entries += 1
        return self._emit(AlertEvent(
            block=block, detector="drift", kind="off-lattice",
            scope=POOL_SCOPE, severity="warning", t=t,
            detail={"window_lost": lost, "window_fill": fill,
                    "lattice_top": (f"{self._envelope.numerator}/"
                                    f"{self._envelope.denominator}")}))

    def observe_sentinels(self, block: int, *, forged: int,
                          undecodable: int, cap_evictions: int,
                          root_verifies: int, batch_signs: int,
                          expected_delta: int,
                          t: float = 0.0) -> List[AlertEvent]:
        """Promote counter movement since the last call to typed alerts.

        All counter arguments are *cumulative absolutes* (pool-wide
        sums); the monitor differences them against its previous
        observation, so callers never track deltas.  ``expected_delta``
        is this block's expected packet-slot count (the decode spike's
        denominator).
        """
        deltas = {}
        for name, value in (("forged", forged),
                            ("undecodable", undecodable),
                            ("cap_evictions", cap_evictions),
                            ("root_verifies", root_verifies),
                            ("batch_signs", batch_signs)):
            if value < 0:
                raise AnalysisError(f"{name} must be >= 0, got {value}")
            previous = self._last.get(name, 0)
            if value < previous:
                raise AnalysisError(
                    f"{name} went backwards ({previous} -> {value}); "
                    f"sentinel counters are cumulative")
            deltas[name] = value - previous
            self._last[name] = value
        if expected_delta < 0:
            raise AnalysisError(
                f"expected_delta must be >= 0, got {expected_delta}")
        deltas["expected"] = expected_delta
        for name, delta in deltas.items():
            self.sentinel_totals[name] += delta
        fired: List[AlertEvent] = []
        if deltas["forged"] > 0:
            fired.append(self._emit(AlertEvent(
                block=block, detector="sentinel", kind="forged-accepted",
                scope=POOL_SCOPE, severity="critical", t=t,
                detail={"count": deltas["forged"]})))
        if (deltas["undecodable"] > 0 and expected_delta > 0
                and deltas["undecodable"] * self.spike_den
                >= expected_delta * self.spike_num):
            fired.append(self._emit(AlertEvent(
                block=block, detector="sentinel", kind="decode-spike",
                scope=POOL_SCOPE, severity="warning", t=t,
                detail={"undecodable": deltas["undecodable"],
                        "expected": expected_delta,
                        "threshold": (f"{self.spike_num}/"
                                      f"{self.spike_den}")})))
        if deltas["cap_evictions"] > 0:
            fired.append(self._emit(AlertEvent(
                block=block, detector="sentinel", kind="buffer-eviction",
                scope=POOL_SCOPE, severity="warning", t=t,
                detail={"evicted": deltas["cap_evictions"]})))
        if deltas["root_verifies"] > deltas["batch_signs"]:
            fired.append(self._emit(AlertEvent(
                block=block, detector="sentinel", kind="root-cache-miss",
                scope=POOL_SCOPE, severity="warning", t=t,
                detail={"root_verifies": deltas["root_verifies"],
                        "batch_signs": deltas["batch_signs"]})))
        return fired

    # -- reading / folding ---------------------------------------------

    def counts(self) -> Dict[str, int]:
        """Alert totals by severity (all severities always present)."""
        totals = {name: 0 for name in ALERT_SEVERITIES}
        for alert in self.alerts:
            totals[alert.severity] += 1
        return totals

    def counts_by_kind(self) -> Dict[str, int]:
        """Alert totals by kind, sorted keys."""
        totals: Dict[str, int] = {}
        for alert in self.alerts:
            totals[alert.kind] = totals.get(alert.kind, 0) + 1
        return dict(sorted(totals.items()))

    def worst_severity(self) -> Optional[str]:
        """Worst severity fired so far (``None`` = healthy)."""
        return max_severity(self.alerts)

    def gauges(self) -> Dict[str, object]:
        """Flat numeric row for timeseries / Prometheus export."""
        counts = self.counts()
        return {
            "alerts": len(self.alerts),
            "alerts_info": counts["info"],
            "alerts_warning": counts["warning"],
            "alerts_critical": counts["critical"],
            "slo_scopes": len(self.slo),
            "slo_breaches": sum(s.breaches for s in self.slo.values()),
            "off_lattice_blocks": self.off_lattice_blocks,
            "off_lattice_entries": self.off_lattice_entries,
        }

    def describe(self) -> Dict[str, object]:
        """Manifest-ready record: config echo, state, every alert."""
        record: Dict[str, object] = {
            "config": {
                "q_target": f"{self.q_num}/{self.q_den}",
                "deficit": self.deficit,
                "decode_spike": f"{self.spike_num}/{self.spike_den}",
                "envelope_top": (
                    None if self._envelope is None else
                    f"{self._envelope.numerator}/"
                    f"{self._envelope.denominator}"),
            },
            "alerts": [alert.to_dict() for alert in
                       sorted(self.alerts, key=AlertEvent.sort_key)],
            "counts": self.counts(),
            "kinds": self.counts_by_kind(),
            "slo": {scope: self.slo[scope].to_dict()
                    for scope in sorted(self.slo)},
            "drift": {
                "blocks": self.drift_blocks,
                "off_lattice_blocks": self.off_lattice_blocks,
                "off_lattice_entries": self.off_lattice_entries,
            },
            "sentinels": dict(sorted(self.sentinel_totals.items())),
        }
        return record

    def merge(self, other: "HealthMonitor") -> "HealthMonitor":
        """Exact fold of two monitors with identical configuration.

        Per-scope SLO states union by scope (integer field sums on a
        collision — bit-for-bit when shards own disjoint scopes, which
        is the cohort-sharding contract), drift and sentinel totals
        sum, and alert lists concatenate (:meth:`describe` re-sorts
        canonically).  The merged monitor has no sink and nothing to
        flush.  Associative and commutative,
        with a fresh same-config monitor as identity.
        """
        if not isinstance(other, HealthMonitor):
            raise AnalysisError(
                f"can only merge HealthMonitor, got "
                f"{type(other).__name__}")
        if self._config_key() != other._config_key():
            raise AnalysisError(
                f"cannot merge monitors with different configurations: "
                f"{self._config_key()} vs {other._config_key()}")
        merged = HealthMonitor(
            q_target=Fraction(self.q_num, self.q_den),
            deficit=self.deficit,
            envelope_top=self._envelope,
            decode_spike=Fraction(self.spike_num, self.spike_den))
        merged.alerts = sorted(self.alerts + other.alerts,
                               key=AlertEvent.sort_key)
        for source in (self, other):
            for scope, state in source.slo.items():
                base = merged.slo.get(scope)
                merged.slo[scope] = (state if base is None
                                     else base.merged(state))
        merged.slo = {scope: merged.slo[scope]
                      for scope in sorted(merged.slo)}
        merged.drift_blocks = self.drift_blocks + other.drift_blocks
        merged.off_lattice_blocks = (self.off_lattice_blocks
                                     + other.off_lattice_blocks)
        merged.off_lattice_entries = (self.off_lattice_entries
                                      + other.off_lattice_entries)
        merged._off_now = self._off_now or other._off_now
        for key in _SENTINEL_KEYS:
            merged.sentinel_totals[key] = (self.sentinel_totals[key]
                                           + other.sentinel_totals[key])
        return merged
