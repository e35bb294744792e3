"""A lossy, delaying multicast channel.

Combines a :class:`~repro.network.loss.LossModel` and a
:class:`~repro.network.delay.DelayModel`: each transmitted packet is
either dropped or scheduled for delivery at ``send_time + delay``.
Deliveries are yielded in *arrival* order, so out-of-order delivery —
which the paper notes matters for TESLA's security condition —
emerges naturally from delay jitter.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.exceptions import SimulationError
from repro.network.delay import ConstantDelay, DelayModel
from repro.network.loss import LossEstimator, LossModel, NoLoss
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
                 protect_signature_packets: bool = True,
                 estimator: Optional[LossEstimator] = None) -> None:
        self.loss = loss if loss is not None else NoLoss()
        self.delay = delay if delay is not None else ConstantDelay(0.0)
        self.protect_signature_packets = protect_signature_packets
        #: Ground-truth estimator fed one observation per transmitted
        #: packet; ``sent``/``dropped``/``observed_loss_rate`` are views
        #: of it, so the channel and any adaptive consumer read the
        #: same numbers.
        self.estimator = estimator if estimator is not None else LossEstimator()

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
        heap: List[Tuple[float, int, int, Packet]] = []
        for index, (packet, lost) in enumerate(zip(packets, losses)):
            dropped = lost and not (self.protect_signature_packets
                                    and packet.is_signature_packet)
            self.estimator.observe(dropped)
            if dropped:
                continue
            arrival = packet.send_time + self.delay.sample()
            if arrival < packet.send_time:
                raise SimulationError("delay model produced time travel")
            # seq then transmission index break ties deterministically
            # (retransmitted copies share a seq).
            heapq.heappush(heap, (arrival, packet.seq, index, packet))
        deliveries = []
        while heap:
            arrival, _, _, packet = heapq.heappop(heap)
            deliveries.append(Delivery(arrival_time=arrival, packet=packet))
        return deliveries

    def stream(self, packets: Iterable[Packet]) -> Iterator[Delivery]:
        """Iterator form of :meth:`transmit`."""
        return iter(self.transmit(packets))

    def reset(self) -> None:
        """New trial: reset models and counters."""
        self.loss.reset()
        self.delay.reset()
        self.estimator.reset()

    @property
    def sent(self) -> int:
        """Packets transmitted so far."""
        return self.estimator.observed

    @property
    def dropped(self) -> int:
        """Packets the loss model dropped so far."""
        return self.estimator.lost

    @property
    def observed_loss_rate(self) -> float:
        """Fraction of transmitted packets dropped so far."""
        return self.estimator.lifetime_rate
