"""The adversarial channel: wire-level deliveries under active attack.

:class:`AdversarialChannel` wraps any
:class:`~repro.network.channel.Channel` and degrades its packet
deliveries into **byte buffers** — the honest channel decides loss and
delay exactly as before (so the passive statistics are unchanged),
then the attack plan gets one shot at every surviving delivery: add
reorder jitter, tamper the bytes, inject forged packets crafted from
what it observed, and replay copies.  Receivers downstream see only
:class:`WireDelivery` blobs and must decode them defensively
(:meth:`~repro.schemes.base.Verifier.ingest_run`).

Determinism: deliveries are processed in the honest channel's arrival
order and fault models are consulted in plan order, so the byte stream
depends only on the channel and plan seeds — attacked trials shard
across workers bit-for-bit like passive ones.  Each model is consulted
only for the hooks it overrides (:class:`~repro.faults.plan.AttackPlan`
records them); the base no-ops draw nothing, so skipping them moves no
stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.faults.plan import AttackPlan
from repro.network.channel import Channel
from repro.packets import Packet

__all__ = ["WireDelivery", "AdversarialChannel", "ATTACK_KINDS",
           "frame_once"]

#: Ground-truth kinds that mark adversarial interference; lifecycle
#: tracing turns them into attack-tag attributes on transport events.
ATTACK_KINDS = ("corrupted", "forged", "replayed")


def frame_once(packet: Packet, frames: Dict[int, bytes]) -> bytes:
    """``packet``'s wire bytes, encoded on first use and kept in ``frames``.

    ``frames`` maps sequence numbers to wire bytes for one packetized
    block, whose packets have distinct sequence numbers; every
    receiver's channel that delivers the packet shares the one
    encoding, and a packet no channel delivers is never encoded.
    """
    wire = frames.get(packet.seq)
    if wire is None:
        wire = frames[packet.seq] = packet.to_wire()
    return wire


@dataclass(frozen=True)
class WireDelivery:
    """One byte buffer arriving at the receiver.

    ``kind`` labels the adversary's ground truth — ``"genuine"``
    (untampered original), ``"corrupted"``, ``"forged"`` (injected) or
    ``"replayed"`` — which attacked sessions use for soundness
    accounting.  Receivers must never look at it.  ``seq_hint`` is the
    originating packet's sequence number (``None`` for injections) and
    ``block_hint`` the originating packet's block id; ground-truth
    bookkeeping and lifecycle-trace attribution only, for the same
    reason.
    """

    arrival_time: float
    data: bytes
    kind: str
    seq_hint: Optional[int] = None
    block_hint: Optional[int] = None

    @property
    def attack_tag(self) -> Optional[str]:
        """The kind when it marks adversarial interference, else None."""
        return self.kind if self.kind in ATTACK_KINDS else None


class AdversarialChannel:
    """A lossy channel with an active attacker on the path.

    Parameters
    ----------
    channel:
        The honest loss/delay channel being attacked.  Its
        ``protect_signature_packets`` setting extends to corruption:
        a retransmit-until-received ``P_sign`` cannot be kept
        corrupted either, so corruption of protected packets is
        skipped with the RNG still advanced (the skip-with-draw idiom
        the loss models use).  Injection and replay are unaffected —
        the attacker can always add packets.
    plan:
        The fault models to apply, in order.
    """

    def __init__(self, channel: Channel, plan: AttackPlan) -> None:
        self.channel = channel
        self.plan = plan
        self.corrupted = 0
        self.injected = 0
        self.replayed = 0

    def transmit_wire(self, packets: Iterable[Packet],
                      frames: Optional[Dict[int, bytes]] = None
                      ) -> List[WireDelivery]:
        """Send ``packets``; return attacked wire deliveries in arrival order.

        Ties on arrival time are broken by staging order (genuine
        before its own injections/replays, earlier deliveries first),
        keeping the stream deterministic.  With ``frames`` (a block's
        shared ``seq -> wire bytes`` map, see :func:`frame_once`) each
        delivered packet's bytes come from the map, so the receivers of
        one block share one encoding; the faults see the same bytes
        either way, so every draw is unchanged.
        """
        staged: List[tuple] = []
        plan = self.plan
        jitterers, corrupters, injectors = (plan.jitterers, plan.corrupters,
                                            plan.injectors)
        protect = self.channel.protect_signature_packets
        for delivery in self.channel.transmit(packets):
            packet = delivery.packet
            block_id = packet.block_id
            arrival = delivery.arrival_time
            for fault in jitterers:
                arrival += fault.jitter()
            wire = (packet.to_wire() if frames is None
                    else frame_once(packet, frames))
            tampered = False
            if corrupters:
                protected = protect and packet.is_signature_packet
                for fault in corrupters:
                    mutated = fault.corrupt(wire)
                    if protected:
                        continue  # drawn but discarded, like protected loss
                    if mutated is not None and mutated != wire:
                        wire = mutated
                        tampered = True
            if tampered:
                self.corrupted += 1
            staged.append((arrival, len(staged), wire,
                           "corrupted" if tampered else "genuine",
                           packet.seq, block_id))
            for fault, forges, replays in injectors:
                if forges:
                    for offset, forged_wire in fault.forge(packet):
                        self.injected += 1
                        staged.append((arrival + offset, len(staged),
                                       forged_wire, "forged", None, block_id))
                if replays:
                    for offset in fault.replay(wire):
                        self.replayed += 1
                        staged.append((arrival + offset, len(staged), wire,
                                       "replayed", packet.seq, block_id))
        staged.sort(key=lambda item: (item[0], item[1]))
        return [WireDelivery(arrival_time=arrival, data=data, kind=kind,
                             seq_hint=seq_hint, block_hint=block_hint)
                for arrival, _, data, kind, seq_hint, block_hint in staged]

    def reset(self) -> None:
        """New trial: reset the channel, the plan and the counters."""
        self.channel.reset()
        self.plan.reset()
        self.corrupted = 0
        self.injected = 0
        self.replayed = 0

    @property
    def sent(self) -> int:
        """Packets the honest sender transmitted."""
        return self.channel.sent

    @property
    def dropped(self) -> int:
        """Packets the honest channel lost (not counting corruption)."""
        return self.channel.dropped
