"""Load generation: instrumented soak runs of the live service.

:func:`run_loadgen` is the programmatic face of ``repro-experiments
loadgen`` and of ``python -m repro.serve.soak``: it runs one
:func:`~repro.serve.service.run_live_session` under a fresh
:class:`~repro.obs.MetricsRegistry`, then packages the sealed manifest
and metrics snapshot into the same ``{"format": 1, "runs": [...]}``
payload the sweep CLI emits — so the soak artifact validates with
:func:`~repro.obs.validate_metrics_file` like every other metrics
file — and distills the numbers a soak gates on (``forged_accepted``
above all) into a flat summary dict.

With an :class:`ObsOptions` the run additionally emits the
deterministic observability artifacts: a packet-lifecycle JSON-lines
file, a gauge timeseries, a Perfetto/Chrome trace and a Prometheus
text snapshot.  All of them derive from seeds and virtual time only,
so :mod:`repro.serve.soak` compares two runs of the same config byte
for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.crypto.signatures import Signer
from repro.obs import MetricsRegistry, use_registry
from repro.obs.export import write_chrome_trace, write_prometheus
from repro.obs.health import (
    DEFAULT_SLO_DEFICIT,
    HealthMonitor,
    parse_slo_spec,
)
from repro.obs.lifecycle import LifecycleTracer
from repro.obs.manifest import METRICS_FILE_VERSION
from repro.obs.timeseries import TimeseriesSampler
from repro.serve.service import ServeConfig, SessionResult, run_live_session

__all__ = ["LoadgenResult", "ObsOptions", "run_loadgen"]


@dataclass(frozen=True)
class ObsOptions:
    """Where (and how densely) a loadgen run writes observability.

    Any output left ``None`` is skipped; ``trace_sample`` keeps
    ``1/N`` of the lifecycle traces (selected deterministically by
    trace-ID hash) and ``timeseries_interval`` is the virtual-time
    gauge grid in seconds.

    The health plane runs when any of ``alerts_out`` (canonical
    JSON-lines alert file), ``slo`` (a ``q:<target>[:<deficit>]``
    spec overriding the config's ``q_min_target``) or the ``health``
    toggle asks for it.
    """

    lifecycle_out: Optional[str] = None
    timeseries_out: Optional[str] = None
    prom_out: Optional[str] = None
    perfetto_out: Optional[str] = None
    trace_sample: int = 1
    timeseries_interval: float = 0.05
    alerts_out: Optional[str] = None
    slo: Optional[str] = None
    health: bool = False

    @property
    def wants_lifecycle(self) -> bool:
        """Whether any output needs the lifecycle tracer running."""
        return self.lifecycle_out is not None or self.perfetto_out is not None

    @property
    def wants_health(self) -> bool:
        """Whether the run should evaluate the health monitors."""
        return (self.health or self.alerts_out is not None
                or self.slo is not None)


@dataclass
class LoadgenResult:
    """One soak run: session results, metrics payload, gate summary."""

    session: SessionResult
    metrics_payload: dict
    summary: Dict[str, object] = field(default_factory=dict)
    health: Optional[HealthMonitor] = None

    @property
    def ok(self) -> bool:
        """The soak gate: no attacker content ever verified."""
        return self.session.forged_accepted == 0

    @property
    def critical_alerts(self) -> int:
        """Critical health alerts fired (0 when the plane was off)."""
        if self.health is None:
            return 0
        return self.health.counts()["critical"]

    @property
    def warning_alerts(self) -> int:
        """Warning health alerts fired (0 when the plane was off)."""
        if self.health is None:
            return 0
        return self.health.counts()["warning"]


def run_loadgen(config: ServeConfig,
                signer: Optional[Signer] = None,
                obs: Optional[ObsOptions] = None) -> LoadgenResult:
    """Run one instrumented live session and package its artifacts."""
    registry = MetricsRegistry()
    lifecycle: Optional[LifecycleTracer] = None
    timeseries: Optional[TimeseriesSampler] = None
    health: Optional[HealthMonitor] = None
    if obs is not None and obs.wants_lifecycle:
        lifecycle = LifecycleTracer(config.seed, sample=obs.trace_sample,
                                    sink=obs.lifecycle_out)
    if obs is not None and obs.timeseries_out is not None:
        timeseries = TimeseriesSampler(interval_s=obs.timeseries_interval,
                                       sink=obs.timeseries_out)
    if obs is not None and obs.wants_health:
        if obs.slo is not None:
            spec = parse_slo_spec(obs.slo)
            q_target: object = f"{spec.q_num}/{spec.q_den}"
            deficit = spec.deficit
        else:
            q_target = config.q_min_target
            deficit = DEFAULT_SLO_DEFICIT
        health = HealthMonitor(q_target=q_target, deficit=deficit,
                               sink=obs.alerts_out or None)
    try:
        with use_registry(registry):
            session = run_live_session(config, signer=signer,
                                       lifecycle=lifecycle,
                                       timeseries=timeseries,
                                       health=health)
        if obs is not None and obs.perfetto_out is not None:
            # Export before flushing: flush drains the event buffer.
            write_chrome_trace(
                obs.perfetto_out, lifecycle.events(),
                alerts=([alert.to_dict() for alert in health.alerts]
                        if health is not None else None))
    finally:
        # Closing flushes whatever is still buffered — on the success
        # path and on every error path alike, so a crashed instrumented
        # run still leaves parseable JSON lines.
        for collector in (lifecycle, timeseries, health):
            if collector is not None:
                collector.close()
    metrics_payload = {
        "format": METRICS_FILE_VERSION,
        "runs": [{
            "manifest": session.manifest.to_dict(),
            "metrics": registry.snapshot(),
        }],
    }
    if obs is not None and obs.prom_out is not None:
        gauges: Dict[str, float] = {}
        if timeseries is not None:
            for receiver, row in sorted(timeseries.last_gauges().items()):
                for name, value in sorted(row.items()):
                    if name == "r" or isinstance(value, (str, bool)):
                        continue
                    gauges[f"serve_{receiver}_{name}"] = value
        if health is not None:
            for name, value in sorted(health.gauges().items()):
                gauges[f"health_{name}"] = value
        write_prometheus(obs.prom_out, registry=registry,
                         gauges=gauges or None)
    phases: List[Dict[str, object]] = []
    for phase in sorted(session.stats):
        stats = session.stats[phase]
        received = sum(t.received for t in stats.tallies.values())
        phases.append({
            "phase": phase,
            "received": received,
            "q_min": stats.q_min if received else None,
            "forged_accepted": stats.forged_accepted,
        })
    switches = [event.block_id for event in session.events if event.switched]
    summary: Dict[str, object] = {
        "receivers": config.receivers,
        "blocks": config.blocks,
        "transport": config.transport,
        "attack": config.attack,
        "forged_accepted": session.forged_accepted,
        "delivered": session.delivered,
        "queue_drops": sum(session.queue_drops.values()),
        "schemes_used": session.schemes_used,
        "adaptation_switches": switches,
        "phases": phases,
        "topology": config.topology,
        "trees": config.trees,
        "subtree_adaptive": config.subtree_adaptive,
        "duplicates_suppressed": session.duplicates_suppressed,
    }
    if config.churn is not None:
        membership = session.manifest.parameters.get("membership", {})
        summary["churn"] = config.churn
        summary["membership_counts"] = membership.get("counts", {})
        summary["final_active"] = len(membership.get("final_active", []))
    if lifecycle is not None:
        summary["lifecycle_events"] = lifecycle.events_recorded
    if timeseries is not None:
        summary["timeseries_samples"] = len(timeseries.samples)
    if health is not None:
        summary["health"] = {
            "alerts": health.counts(),
            "kinds": health.counts_by_kind(),
            "worst_severity": health.worst_severity(),
            "slo_breaches": sum(s.breaches for s in health.slo.values()),
            "off_lattice_blocks": health.off_lattice_blocks,
            "refresh_requests": registry.counters.get(
                "design.refresh.requests", 0),
        }
    return LoadgenResult(session=session, metrics_payload=metrics_payload,
                         summary=summary, health=health)
