"""True multicast sessions: one sender, many heterogeneous receivers.

The paper's scenario is "a single-source sending a multicast stream of
packets to a large number of recipients" — each behind its own network
path.  The single most important property of signature amortization in
that setting is that the sender does *one* authentication pass while
every receiver independently verifies whatever subset of packets its
path delivered.

This module runs exactly that, as one trial of the kernel
(:func:`~repro.simulation.trials.run_trials`): the sender packetizes
once; each receiver gets its own channel (its own loss/delay models)
over the *same* packet objects and its own verifier; results come back
per receiver, so experiments can study how `q_min` varies across a
heterogeneous audience — something the single-receiver analysis cannot
express.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.crypto.hashing import HashFunction, sha256
from repro.crypto.signatures import Signer
from repro.exceptions import SimulationError
from repro.network.channel import Channel
from repro.network.delay import DelayModel
from repro.network.loss import LossModel
from repro.schemes.base import Scheme
from repro.simulation.stats import SimulationStats
from repro.simulation.trials import FixedChannels, run_trials

__all__ = ["ReceiverSpec", "MulticastResult", "run_multicast_session"]


@dataclass
class ReceiverSpec:
    """One receiver's network path.

    Attributes
    ----------
    name:
        Label for results.
    loss, delay:
        This receiver's channel models (``None`` = lossless/instant).
    protect_signature_packets:
        Per-receiver ``P_sign`` protection (the paper's assumption).
    """

    name: str
    loss: Optional[LossModel] = None
    delay: Optional[DelayModel] = None
    protect_signature_packets: bool = True


@dataclass
class MulticastResult:
    """Per-receiver statistics plus sender-side totals."""

    per_receiver: Dict[str, SimulationStats] = field(default_factory=dict)
    packets_sent: int = 0

    def q_min_by_receiver(self) -> Dict[str, float]:
        """Each receiver's empirical ``q_min``."""
        return {name: stats.q_min
                for name, stats in self.per_receiver.items()}

    @property
    def worst_receiver(self) -> str:
        """The receiver with the lowest ``q_min``."""
        table = self.q_min_by_receiver()
        return min(table, key=table.get)


def run_multicast_session(scheme: Scheme, block_size: int, blocks: int,
                          receivers: Sequence[ReceiverSpec],
                          signer: Optional[Signer] = None,
                          hash_function: HashFunction = sha256,
                          t_transmit: float = 0.01) -> MulticastResult:
    """One authenticated stream, fanned out to every receiver.

    The sender packetizes each block exactly once (one signature per
    block, total); every receiver sees an independent loss/delay
    realization of the same packets and verifies them with the
    scheme's own verifier.  ``receivers`` names must be unique.
    """
    if not receivers:
        raise SimulationError("need at least one receiver")
    names = [spec.name for spec in receivers]
    if len(set(names)) != len(names):
        raise SimulationError(f"duplicate receiver names: {names}")
    channels = FixedChannels(tuple(
        Channel(loss=spec.loss, delay=spec.delay,
                protect_signature_packets=spec.protect_signature_packets)
        for spec in receivers))
    per_receiver = run_trials(scheme, block_size, 0, 1, channels,
                              receivers=len(receivers), blocks=blocks,
                              signer=signer, hash_function=hash_function,
                              t_transmit=t_transmit)
    return MulticastResult(per_receiver=dict(zip(names, per_receiver)),
                           packets_sent=per_receiver[0].sent)
