"""Packet-level simulation: senders, receivers, channels, statistics."""

from repro.simulation.multicast import (
    MulticastResult,
    ReceiverSpec,
    run_multicast_session,
)
from repro.simulation.receiver import ChainReceiver, PacketOutcome
from repro.simulation.runner import WireTrialConfig, wire_monte_carlo
from repro.simulation.sender import (
    StreamSender,
    make_payloads,
    replicate_signature_packets,
)
from repro.simulation.stats import PositionTally, SimulationStats
from repro.simulation.stream_receiver import DeliveredPayload, StreamReceiver
from repro.simulation.trace import SessionTrace, TraceRecord
from repro.simulation.trials import (
    FixedChannels,
    SeededChannels,
    run_session,
    run_trials,
)

__all__ = [
    "MulticastResult",
    "ReceiverSpec",
    "run_multicast_session",
    "ChainReceiver",
    "PacketOutcome",
    "WireTrialConfig",
    "wire_monte_carlo",
    "StreamSender",
    "make_payloads",
    "FixedChannels",
    "SeededChannels",
    "run_session",
    "run_trials",
    "PositionTally",
    "SimulationStats",
    "DeliveredPayload",
    "StreamReceiver",
    "SessionTrace",
    "TraceRecord",
    "replicate_signature_packets",
]
