"""Session orchestration: sender, pool, controller, one barrier loop.

:func:`run_live_session` wires the serve components together and runs
a complete adaptive session to completion:

1. packetize block ``b`` with the controller's *current* scheme of
   every receiver group and stream it to every receiver through
   per-(receiver, block) seeded channels over the session's topology
   (``star`` by default: one independent channel per receiver);
2. barrier on :meth:`~repro.serve.receiver.ReceiverPool.wait_block` —
   every receiver has closed the block and reported its losses;
3. feed the reports to the :class:`~repro.serve.adaptive.\
AdaptiveController`, which may re-select the scheme parameters the
   *next* block is built with.

The barrier is what makes the whole thing deterministic on the local
transport: queues are drained before the next block is enqueued, so
backpressure drops depend only on the config, and the controller sees
the same report sequence every run.

The function is synchronous (it owns ``asyncio.run``) and returns a
:class:`SessionResult`: the sealed :class:`~repro.obs.RunManifest`
(with the adaptation trace in its parameters), per-phase merged
:class:`~repro.simulation.stats.SimulationStats`, and the canonical
per-receiver transcripts the determinism regression compares.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.conformance import attack_mix
from repro.crypto.batch import BatchVerifier
from repro.crypto.signatures import HmacStubSigner, Signer
from repro.exceptions import SimulationError
from repro.faults import KNOWN_ATTACK_MIXES, AttackPlan
from repro.network.clock import Clock, MonotonicClock, VirtualClock
from repro.obs import RunManifest, get_registry
from repro.obs.health import HealthMonitor
from repro.obs.lifecycle import LifecycleTracer, use_lifecycle
from repro.obs.timeseries import CONTROLLER_ROW, HEALTH_ROW, TimeseriesSampler
from repro.design.service import DesignService
from repro.serve.adaptive import (
    CONTROLLER_FAMILIES,
    AdaptationEvent,
    AdaptiveController,
)
from repro.serve.membership import (
    MembershipPlan,
    parse_churn_spec,
    storm_channel_factory,
)
from repro.serve.receiver import LossReport, ReceiverPool
from repro.serve.sender import SenderService
from repro.serve.transport import LocalTransport, Transport, UdpTransport
from repro.simulation.sender import make_payloads
from repro.simulation.stats import SimulationStats
from repro.topology import (
    make_topology,
    redundant_trees,
    topology_channel_factory,
)

__all__ = ["ServeConfig", "SessionResult", "run_live_session"]


@dataclass(frozen=True)
class ServeConfig:
    """Everything that determines a live session, and nothing else.

    ``loss_schedule`` is a sorted tuple of ``(first_block, loss_rate)``
    steps; the rate in force for block ``b`` is the last step with
    ``first_block <= b``.  A ramp like ``((0, 0.05), (20, 0.3))``
    drives the adaptation staircase the acceptance test asserts on.

    ``topology`` is the distribution tree every session streams over
    (spec grammar: ``star`` | ``spine:<groups>`` |
    ``dualspine:<groups>``); the default ``star`` gives every receiver
    its own independent loss process, the paper's channel model, while
    shared spine edges correlate loss across a subtree.  ``trees``
    streams every packet down that many redundant
    (edge-disjoint-biased) trees with receiver-side deduplication, and
    ``subtree_adaptive`` keys the controller by subtree: one design
    per subtree instead of one pool-wide.

    ``churn`` makes membership dynamic (spec grammar: ``storm[:J,L,C]``
    | ``flood:BLOCK`` | ``flap:COUNT``): a seeded
    :class:`~repro.serve.membership.MembershipPlan` admits late
    joiners, drains graceful leavers and kills crash victims
    mid-session.  Membership changes apply at block boundaries; under
    batch signing a boundary that carries membership events flushes
    the pending batch first, and a block with crash victims is
    flushed before its victims are detached.
    """

    receivers: int = 8
    blocks: int = 20
    block_size: int = 12
    payload_size: int = 32
    loss_schedule: Tuple[Tuple[int, float], ...] = ((0, 0.05),)
    attack: Optional[str] = None
    q_min_target: float = 0.75
    seed: int = 7
    t_transmit: float = 0.001
    queue_size: int = 256
    transport: str = "local"
    adaptive: bool = True
    timeout_s: Optional[float] = None
    batch_size: int = 1
    flush_deadline: Optional[float] = None
    topology: str = "star"
    trees: int = 1
    subtree_adaptive: bool = False
    churn: Optional[str] = None
    design_table: Optional[str] = None
    scheme_family: str = "emss"

    def __post_init__(self) -> None:
        if self.receivers < 1:
            raise SimulationError("need at least one receiver")
        if self.blocks < 1:
            raise SimulationError("need at least one block")
        if self.batch_size < 1:
            raise SimulationError(
                f"batch_size must be >= 1, got {self.batch_size}")
        if self.trees < 1:
            raise SimulationError(
                f"trees must be >= 1, got {self.trees}")
        if self.subtree_adaptive and not self.adaptive:
            raise SimulationError(
                "subtree adaptation contradicts --no-adaptive")
        if self.flush_deadline is not None and self.flush_deadline <= 0:
            raise SimulationError(
                f"flush_deadline must be > 0, got {self.flush_deadline}")
        if self.churn is not None:
            parse_churn_spec(self.churn)  # fail on bad specs eagerly
        if self.transport not in ("local", "udp"):
            raise SimulationError(
                f"unknown transport {self.transport!r} (local|udp)")
        if self.scheme_family not in CONTROLLER_FAMILIES:
            raise SimulationError(
                f"unknown scheme family {self.scheme_family!r} "
                f"({'|'.join(CONTROLLER_FAMILIES)})")
        if self.attack is not None and self.attack not in KNOWN_ATTACK_MIXES:
            raise SimulationError(
                f"unknown attack mix {self.attack!r}; "
                f"known: {', '.join(sorted(KNOWN_ATTACK_MIXES))}")
        if not self.loss_schedule or self.loss_schedule[0][0] != 0:
            raise SimulationError("loss_schedule must start at block 0")
        blocks_in_schedule = [step[0] for step in self.loss_schedule]
        if blocks_in_schedule != sorted(set(blocks_in_schedule)):
            raise SimulationError(
                "loss_schedule blocks must be strictly increasing")
        for _, rate in self.loss_schedule:
            if not 0.0 <= rate < 1.0:
                raise SimulationError(
                    f"loss rates must be in [0, 1), got {rate}")

    def loss_for_block(self, block_id: int) -> float:
        """Scheduled channel loss rate in force for ``block_id``."""
        rate = self.loss_schedule[0][1]
        for first_block, step_rate in self.loss_schedule:
            if block_id >= first_block:
                rate = step_rate
        return rate

    def receiver_ids(self) -> List[str]:
        """Canonical receiver identities, sorted."""
        return [f"r{index:02d}" for index in range(self.receivers)]

    def to_parameters(self) -> Dict[str, object]:
        """Manifest-ready parameter record."""
        return {
            "receivers": self.receivers,
            "blocks": self.blocks,
            "block_size": self.block_size,
            "payload_size": self.payload_size,
            "loss_schedule": [list(step) for step in self.loss_schedule],
            "attack": self.attack,
            "q_min_target": self.q_min_target,
            "t_transmit": self.t_transmit,
            "queue_size": self.queue_size,
            "transport": self.transport,
            "adaptive": self.adaptive,
            "batch_size": self.batch_size,
            "flush_deadline": self.flush_deadline,
            "topology": self.topology,
            "trees": self.trees,
            "subtree_adaptive": self.subtree_adaptive,
            "churn": self.churn,
            "design_table": self.design_table,
            "scheme_family": self.scheme_family,
        }


@dataclass
class SessionResult:
    """A finished session, ready for assertions and reporting."""

    manifest: RunManifest
    stats: Dict[str, SimulationStats] = field(default_factory=dict)
    transcripts: Dict[str, bytes] = field(default_factory=dict)
    events: List[AdaptationEvent] = field(default_factory=list)
    reports: Dict[str, List[LossReport]] = field(default_factory=dict)
    queue_drops: Dict[str, int] = field(default_factory=dict)
    forged_accepted: int = 0
    delivered: int = 0
    duplicates_suppressed: int = 0

    @property
    def schemes_used(self) -> List[str]:
        """Distinct scheme specs in block order (first use)."""
        seen: List[str] = []
        for event in self.events:
            spec = f"{event.scheme}({event.parameters[0]},{event.parameters[1]})"
            if spec not in seen:
                seen.append(spec)
        return seen


def _build_transport(config: ServeConfig, clock: Clock) -> Transport:
    if config.transport == "local":
        return LocalTransport(queue_size=config.queue_size)
    return UdpTransport(clock, queue_size=config.queue_size)


def default_serve_signer(seed: int) -> Signer:
    """The session's default signer: fast, deterministic, seed-keyed."""
    return HmacStubSigner(key=b"repro-serve-%016d" % seed)


def _gauge_rows(pool: ReceiverPool, controller,
                health: Optional[HealthMonitor] = None
                ) -> List[Dict[str, object]]:
    """One timeseries row per *active* receiver plus the control rows.

    Iterating the active set (not ``pool.sessions``, which keeps every
    member that ever ran) is what stops retired and crashed receivers
    from emitting gauge rows after their departure block.
    """
    rows: List[Dict[str, object]] = []
    for receiver_id in pool.active_ids:
        session = pool.sessions[receiver_id]
        verifier = session.stream.verifier
        rows.append({
            "r": receiver_id,
            "buffered": verifier.buffered_count,
            "pending": session.stream.pending,
            "delivered": session.stream.delivered,
            "window_rate": session.estimator.window_rate,
            "ewma_rate": session.estimator.ewma_rate,
            "forged_rejected": verifier.forged_rejected,
            "undecodable": verifier.undecodable,
            "replays_dropped": verifier.replays_dropped,
        })
    row: Dict[str, object] = {"r": CONTROLLER_ROW}
    row.update(controller.gauges())
    rows.append(row)
    if health is not None:
        health_row: Dict[str, object] = {"r": HEALTH_ROW}
        health_row.update(health.gauges())
        rows.append(health_row)
    return rows


def _observe_health(health: HealthMonitor, block_id: int,
                    reports: List[LossReport], pool: ReceiverPool,
                    sender: SenderService, batch_verifier: BatchVerifier,
                    controller, now: float) -> None:
    """Feed one settled block to every health detector, deterministically.

    Everything handed over is an exact integer (report slot counts,
    estimator window counts, cumulative verifier/sender counters), and
    iteration is in sorted order throughout — the alert stream must be
    a pure function of the config, like every other serve artifact.
    """
    for report in sorted(reports, key=lambda r: r.receiver_id):
        health.observe_slo(block_id, f"r:{report.receiver_id}",
                           report.expected, report.verified, t=now)
    by_subtree: Dict[str, List[int]] = {}
    for report in reports:
        if report.subtree and report.subtree != report.receiver_id:
            totals = by_subtree.setdefault(report.subtree, [0, 0])
            totals[0] += report.expected
            totals[1] += report.verified
    for label in sorted(by_subtree):
        expected, verified = by_subtree[label]
        health.observe_slo(block_id, f"st:{label}", expected, verified,
                           t=now)
    if controller is not None:
        lost, fill = controller.envelope_counts()
        if health.envelope_top is not None:
            drifted = health.observe_envelope(block_id, lost, fill, t=now)
            if drifted is not None:
                controller.request_refresh()
    undecodable = 0
    cap_evictions = 0
    for receiver_id in sorted(pool.sessions):
        verifier = pool.sessions[receiver_id].stream.verifier
        undecodable += verifier.undecodable
        cap_evictions += verifier.cap_evictions
    health.observe_sentinels(
        block_id,
        forged=pool.forged_accepted,
        undecodable=undecodable,
        cap_evictions=cap_evictions,
        root_verifies=batch_verifier.root_verifies,
        batch_signs=sender.batch_signs,
        expected_delta=sum(report.expected for report in reports),
        t=now)


def _phase(scheme_name: str, group: Optional[str], loss_rate: float) -> str:
    """Stats phase of one group's block: scheme, group label, loss rate."""
    if group is None:
        return f"{scheme_name}@p={loss_rate:g}"
    return f"{scheme_name}@{group}@p={loss_rate:g}"


async def _drive_session(config: ServeConfig, transport: Transport,
                         sender: SenderService, pool: ReceiverPool,
                         controller, clock: Clock,
                         timeseries: Optional[TimeseriesSampler] = None,
                         plan: Optional[MembershipPlan] = None,
                         health: Optional[HealthMonitor] = None,
                         batch_verifier: Optional[BatchVerifier] = None
                         ) -> None:
    registry = get_registry()
    await transport.start(list(sender.receiver_ids))
    pool.start(transport)

    async def settle(flushed_block_id: int) -> None:
        reports = await pool.wait_block(flushed_block_id)
        if config.adaptive:
            controller.observe(flushed_block_id, reports)
        if health is not None:
            _observe_health(health, flushed_block_id, reports, pool,
                            sender, batch_verifier,
                            controller if config.adaptive else None,
                            clock.now())
        if timeseries is not None and timeseries.due(clock.now()):
            timeseries.record(clock.now(),
                              _gauge_rows(pool, controller, health))
        if registry.enabled:
            registry.count("serve.block.runs", 1)

    async def settle_all(flushed: List[int]) -> None:
        for flushed_block_id in flushed:
            await settle(flushed_block_id)

    async def apply_boundary(block_id: int) -> None:
        # Leaves drain before joins admit (the plan sorts them so);
        # both complete before the block streams, which is what makes
        # a block boundary the universal bootstrap point.
        for event in plan.boundary_events(block_id):
            if event.kind == "leave":
                sender.remove_receiver(event.receiver_id)
                await transport.close_endpoint(event.receiver_id)
                await pool.retire(event.receiver_id)
                if config.adaptive:
                    controller.retire_receiver(event.receiver_id)
            else:
                await transport.open_endpoint(event.receiver_id)
                sender.add_receiver(event.receiver_id)
                pool.admit(event.receiver_id)
            if registry.enabled:
                registry.count(f"serve.membership.{event.kind}", 1)

    async def strike_crashes(block_id: int) -> List[str]:
        # The victim's task dies before it can read the block; the
        # sender, not yet aware, still streams to the dead endpoint.
        victims = [e.receiver_id for e in plan.crash_events(block_id)]
        for receiver_id in victims:
            await pool.crash(receiver_id)
            if config.adaptive:
                controller.retire_receiver(receiver_id)
            if registry.enabled:
                registry.count("serve.membership.crash", 1)
        return victims

    async def detach_crashed(victims: List[str]) -> None:
        # The boundary after the block is when the sender notices the
        # death: unsubscribe and reclaim the endpoint.
        for receiver_id in victims:
            sender.remove_receiver(receiver_id)
            await transport.close_endpoint(receiver_id)

    try:
        for block_id in range(config.blocks):
            victims: List[str] = []
            if plan is not None and (plan.boundary_events(block_id)
                                     or plan.crash_events(block_id)):
                # Blocks sent before a membership change settle under
                # the membership they were sent to, as with per-block
                # signing.
                await settle_all(await sender.flush_pending())
                await apply_boundary(block_id)
                victims = await strike_crashes(block_id)
            loss_rate = config.loss_for_block(block_id)
            payloads = make_payloads(config.block_size, config.payload_size,
                                     tag=b"blk%04d" % block_id)
            schemes = controller.schemes()
            phases = {group: _phase(scheme.name, group, loss_rate)
                      for group, scheme in schemes.items()}
            flushed = await sender.submit_block(schemes, payloads, loss_rate,
                                                phases, controller.group_of)
            if victims:
                # The victims' channels still carry their crash block.
                flushed += await sender.flush_pending()
            await detach_crashed(victims)
            await settle_all(flushed)
        await settle_all(await sender.flush_pending())
        await sender.send_final()
        await pool.join()
    finally:
        await transport.close()


def run_live_session(config: ServeConfig,
                     signer: Optional[Signer] = None,
                     lifecycle: Optional[LifecycleTracer] = None,
                     timeseries: Optional[TimeseriesSampler] = None,
                     health: Optional[HealthMonitor] = None
                     ) -> SessionResult:
    """Run one complete live session and return its results.

    With the default local transport and any fixed config this is a
    pure function of ``config`` — including every transcript byte, and
    (when a ``lifecycle`` tracer, ``timeseries`` sampler or ``health``
    monitor is passed) every observability byte too.  The tracer is
    installed process-wide for the session's duration; on an exception
    all collectors are flushed to their sinks before re-raising, so a
    crashed run still leaves parseable artifacts.  Closing the sinks
    stays with the caller (they may want to export the buffered events
    first).

    A ``health`` monitor is evaluated at every block boundary (SLO
    CUSUMs per receiver and subtree, envelope drift against the design
    lattice, soundness sentinels); its drift detector is wired to the
    controller's lattice automatically and its alerts fold into the
    manifest under ``parameters["health"]``.
    """
    registry = get_registry()
    signer = signer if signer is not None else default_serve_signer(config.seed)
    clock: Clock
    if config.transport == "local":
        clock = VirtualClock()
    else:
        clock = MonotonicClock()
    transport = _build_transport(config, clock)
    attack_plan_factory = AttackPlan
    if config.attack is not None:
        attack_name = config.attack
        attack_plan_factory = lambda: attack_mix(attack_name)  # noqa: E731
    plan = None
    if config.churn is not None:
        plan = MembershipPlan.from_spec(config.churn, config.receivers,
                                        config.blocks, config.seed)
    # With churn, topology, channel seeding and subtree labels span the
    # whole membership universe — a joiner's channel draws key on its
    # stable universe index, never on who happens to be active.
    member_ids = config.receiver_ids()
    initial_ids = member_ids
    if plan is not None:
        member_ids, initial_ids = list(plan.universe), plan.initial_ids
    topology = make_topology(config.topology, member_ids)
    trees = redundant_trees(topology, config.trees)
    channel_factory = topology_channel_factory(
        config.seed, topology, trees, attack_plan_factory)
    subtree_of = {leaf: topology.subtree_of(leaf) for leaf in topology.leaves}
    if plan is not None and config.attack is not None:
        # Adversarial churn: forged bursts timed at every join's
        # bootstrap window, on top of whatever mix is configured.
        channel_factory = storm_channel_factory(channel_factory, plan,
                                                config.seed)
    design_service = (DesignService.load(config.design_table)
                      if config.design_table is not None else None)
    controller = AdaptiveController(
        block_size=config.block_size, q_min_target=config.q_min_target,
        initial_p=config.loss_for_block(0),
        family=config.scheme_family,
        design_service=design_service,
        group_of=subtree_of if config.subtree_adaptive else None,
        membership_aware=plan is not None)
    if health is not None and config.adaptive and health.envelope_top is None:
        # The drift detector's envelope is whatever lattice the active
        # controller can actually serve from.
        health.configure_envelope(controller.lattice_top())
    # Receivers always verify through a BatchVerifier: plain signatures
    # go to the inner signer once per distinct (message, signature)
    # pair, batch attachments get the proof walk plus one cached root
    # verification per batch.  The pool shares this one instance, so
    # both verdict maps are shared too.
    batch_verifier = BatchVerifier(signer)
    pool = ReceiverPool(initial_ids, batch_verifier,
                        subtree_of=subtree_of)
    sender = SenderService(transport, initial_ids, signer,
                           channel_factory, clock,
                           t_transmit=config.t_transmit,
                           batch_size=config.batch_size,
                           flush_deadline=config.flush_deadline,
                           receiver_indices={
                               receiver_id: index
                               for index, receiver_id
                               in enumerate(member_ids)},
                           ledger=pool.ledger, wire_memo=pool.wire_memo)
    parameters = config.to_parameters()
    parameters["topology_detail"] = topology.describe()
    if plan is not None:
        parameters["membership"] = plan.describe()
    manifest_clock = RunManifest.start(
        "serve", f"live-{config.transport}",
        parameters=parameters, seed_root=config.seed, workers=1)
    if registry.enabled:
        registry.count("serve.receiver.sessions", config.receivers)
        # Zero-initialise the batch/design series so a plain serve
        # still *exposes* them: a Prometheus scrape must distinguish
        # "zero signs" from "series missing" (the export-gap fix).
        registry.count("serve.batch.signs", 0)
        registry.count("serve.batch.flushes", 0)
        if design_service is not None:
            for name in ("design.service.lookups", "design.service.hits",
                         "design.service.misses", "design.service.fallbacks",
                         "design.inline.calls", "design.refresh.requests"):
                registry.count(name, 0)

    session = _drive_session(config, transport, sender, pool, controller,
                             clock, timeseries, plan=plan, health=health,
                             batch_verifier=batch_verifier)
    try:
        with use_lifecycle(lifecycle):
            if config.timeout_s is not None:
                async def _bounded() -> None:
                    await asyncio.wait_for(session, timeout=config.timeout_s)
                asyncio.run(_bounded())
            else:
                asyncio.run(session)
    except BaseException:
        # Crash-safety: persist whatever the collectors buffered so a
        # failed run still tells its story, then let the error travel.
        for collector in (lifecycle, timeseries, health):
            if collector is not None:
                collector.flush()
        raise

    if registry.enabled:
        # The receiver-side batch verifier's counters never crossed the
        # registry before (they lived on the shared instance only);
        # fold them in post-session so ``--prom-out`` exposes the full
        # ``serve.batch.*`` family.
        registry.count("serve.batch.root_verifies",
                       batch_verifier.root_verifies)
        registry.count("serve.batch.root_cache_hits",
                       batch_verifier.cache_hits)
        registry.count("serve.batch.decode_failures",
                       batch_verifier.decode_failures)
        registry.count("serve.batch.proof_failures",
                       batch_verifier.proof_failures)
        registry.count("serve.batch.passthrough_verifies",
                       batch_verifier.passthrough_verifies)
        registry.count("serve.batch.passthrough_cache_hits",
                       batch_verifier.passthrough_cache_hits)
    manifest = manifest_clock.finish(registry if registry.enabled else None)
    manifest.parameters["adaptation"] = [
        event.to_dict() for event in controller.events]
    if design_service is not None:
        # Recorded post-session so the lookup traffic is the session's.
        manifest.parameters["design_table_detail"] = design_service.describe()
    observability: Dict[str, object] = {}
    if lifecycle is not None:
        observability["lifecycle"] = {
            "events": lifecycle.events_recorded,
            "sampled_out": lifecycle.events_dropped,
            "sample": lifecycle.sample,
        }
    if timeseries is not None:
        observability["timeseries"] = {
            "rows": len(timeseries.samples),
            "interval_s": timeseries.interval_s,
        }
    if health is not None:
        observability["health"] = {
            "alerts": len(health.alerts),
            "worst_severity": health.worst_severity(),
        }
        manifest.parameters["health"] = health.describe()
    if observability:
        manifest.parameters["observability"] = observability
    result = SessionResult(manifest=manifest)
    result.stats = pool.merged_stats()
    result.events = list(controller.events)
    result.forged_accepted = pool.forged_accepted
    result.duplicates_suppressed = sender.duplicates_suppressed
    for receiver_id in sorted(pool.sessions):
        session_obj = pool.sessions[receiver_id]
        result.transcripts[receiver_id] = session_obj.transcript_bytes()
        result.reports[receiver_id] = list(session_obj.reports)
        result.queue_drops[receiver_id] = transport.queue_drops(receiver_id)
        result.delivered += session_obj.stream.delivered
    return result
