"""``repro.serve`` — live multicast authentication serving.

Everything below :mod:`repro.simulation` treats a block as an offline
artifact: build it, push it through a channel, tally.  This package
is the *online* counterpart the ROADMAP's north star asks for — an
asyncio service that signs and streams blocks to N concurrent
receivers and re-designs its dependence graph on the fly:

* :mod:`repro.serve.transport` — pluggable delivery fabrics: an
  in-process :class:`LocalTransport` with bounded per-receiver queues
  (deterministic under virtual time, the test substrate) and a real
  :class:`UdpTransport` over asyncio datagram endpoints; both speak
  :class:`~repro.faults.WireDelivery` plus fixed 21-byte block
  boundaries that can never collide with packet bytes, and deliver
  them in runs (only data frames, or one control frame);
* :mod:`repro.serve.sender` — :class:`SenderService`: packetizes each
  block with the *current* scheme, pushes it through one impairment
  channel per receiver (optionally an
  :class:`~repro.faults.AdversarialChannel`), and hands the pool,
  in-process, the ground truth the soundness audit needs;
* :mod:`repro.serve.receiver` — :class:`ReceiverSession` /
  :class:`ReceiverPool`: defensive wire ingestion, a run at a time,
  via :meth:`~repro.simulation.stream_receiver.StreamReceiver.ingest_run`,
  per-block loss reports through a
  :class:`~repro.network.loss.LossEstimator`, canonical JSON-line
  transcripts;
* :mod:`repro.serve.adaptive` — :class:`AdaptiveController`: folds
  the pool's loss reports into
  :mod:`repro.design.optimizer` and re-selects scheme parameters per
  block against a ``q_min``/overhead budget;
* :mod:`repro.serve.membership` — :class:`MembershipPlan`: seeded,
  validated join/leave/crash trajectories executed at block
  boundaries (late joiners bootstrap per :data:`BOOTSTRAP_RULES`),
  plus the bootstrap-window forgery wrapper
  :func:`storm_channel_factory`;
* :mod:`repro.serve.service` — :func:`run_live_session`: the
  block-barrier orchestration loop tying the four together, emitting
  a :class:`~repro.obs.RunManifest` and per-phase
  :class:`~repro.simulation.stats.SimulationStats`;
* :mod:`repro.serve.loadgen` — soak-run driver behind the
  ``repro-experiments loadgen`` CLI;
* :mod:`repro.serve.soak` — :data:`SOAKS`, the table of named soak
  configs and their checks, run by ``python -m repro.serve.soak``.

Determinism contract: with the local transport every source of time
is a :class:`~repro.network.clock.VirtualClock`, every RNG seed is
derived from the config seed, and the sender waits for all receivers'
block reports before starting the next block — so two runs of the
same config produce byte-identical per-receiver transcripts at any
receiver count.
"""

from repro.serve.adaptive import AdaptationEvent, AdaptiveController
from repro.serve.loadgen import run_loadgen
from repro.serve.membership import (
    BOOTSTRAP_RULES,
    MembershipEvent,
    MembershipPlan,
    parse_churn_spec,
    storm_channel_factory,
)
from repro.serve.receiver import LossReport, ReceiverPool, ReceiverSession
from repro.serve.sender import SenderService
from repro.serve.service import ServeConfig, SessionResult, run_live_session
from repro.serve.transport import (
    ControlFrame,
    LocalTransport,
    Transport,
    UdpTransport,
    decode_control,
    encode_control,
)

__all__ = [
    "AdaptationEvent",
    "AdaptiveController",
    "BOOTSTRAP_RULES",
    "ControlFrame",
    "LocalTransport",
    "LossReport",
    "MembershipEvent",
    "MembershipPlan",
    "ReceiverPool",
    "ReceiverSession",
    "SenderService",
    "ServeConfig",
    "SessionResult",
    "Transport",
    "UdpTransport",
    "decode_control",
    "encode_control",
    "parse_churn_spec",
    "run_live_session",
    "run_loadgen",
    "storm_channel_factory",
]
