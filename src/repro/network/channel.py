"""A lossy, delaying multicast channel.

Combines a :class:`~repro.network.loss.LossModel` and a
:class:`~repro.network.delay.DelayModel`: each transmitted packet is
either dropped or scheduled for delivery at ``send_time + delay``.
Deliveries are yielded in *arrival* order, so out-of-order delivery —
which the paper notes matters for TESLA's security condition —
emerges naturally from delay jitter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.exceptions import SimulationError
from repro.network.delay import ConstantDelay, DelayModel
from repro.network.loss import LossModel, NoLoss
from repro.packets import Packet

__all__ = ["Delivery", "Channel"]


@dataclass(frozen=True)
class Delivery:
    """One packet arriving at the receiver."""

    arrival_time: float
    packet: Packet

    @property
    def delay(self) -> float:
        """End-to-end delay experienced by this packet."""
        return self.arrival_time - self.packet.send_time


class Channel:
    """Unreliable channel with loss and random delay.

    Parameters
    ----------
    loss:
        Drop decision per packet (defaults to lossless).
    delay:
        End-to-end delay per surviving packet (defaults to zero).
    protect_signature_packets:
        The paper assumes ``P_sign`` is always received ("this can be
        easily achieved by sending it multiple times").  When ``True``,
        packets with a signature bypass the loss model — the modeling
        shortcut equivalent to infinite retransmission.  Loss-model
        state still advances so loss patterns stay comparable.
    """

    def __init__(self, loss: Optional[LossModel] = None,
                 delay: Optional[DelayModel] = None,
                 protect_signature_packets: bool = True) -> None:
        self.loss = loss if loss is not None else NoLoss()
        self.delay = delay if delay is not None else ConstantDelay(0.0)
        self.protect_signature_packets = protect_signature_packets
        #: Ground-truth counts: packets transmitted and packets the
        #: loss model dropped, since construction or the last reset.
        self.sent = 0
        self.dropped = 0

    def transmit(self, packets: Iterable[Packet]) -> List[Delivery]:
        """Send ``packets`` (already stamped with ``send_time``).

        Returns deliveries sorted by arrival time; ties broken by send
        order to keep results deterministic.  The block's loss slots
        are drawn in one :meth:`~repro.network.loss.LossModel.sample`
        call; loss and delay models own separate RNGs, so drawing the
        losses first moves neither stream.
        """
        packets = list(packets)
        losses = self.loss.sample(len(packets))
        if self.protect_signature_packets:
            dropped = [lost and not packet.is_signature_packet
                       for packet, lost in zip(packets, losses)]
        else:
            dropped = losses
        self.sent += len(packets)
        self.dropped += dropped.count(True)
        arrivals: List[Tuple[float, int, int, Packet]] = []
        sample_delay = self.delay.sample
        for index, packet in enumerate(packets):
            if dropped[index]:
                continue
            send_time = packet.send_time
            arrival = send_time + sample_delay()
            if arrival < send_time:
                raise SimulationError("delay model produced time travel")
            # seq then transmission index break ties deterministically
            # (retransmitted copies share a seq).
            arrivals.append((arrival, packet.seq, index, packet))
        # The index is unique, so the sort never compares two packets.
        arrivals.sort()
        return [Delivery(arrival_time=arrival, packet=packet)
                for arrival, _, _, packet in arrivals]

    def reset(self) -> None:
        """New trial: reset models and counters."""
        self.loss.reset()
        self.delay.reset()
        self.sent = 0
        self.dropped = 0

    @property
    def observed_loss_rate(self) -> float:
        """Fraction of transmitted packets dropped so far."""
        return self.dropped / self.sent if self.sent else 0.0
