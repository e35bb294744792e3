"""Application-facing receiver: ordered delivery of verified payloads.

:class:`~repro.simulation.receiver.ChainReceiver` answers "which
packets verified?"; an application wants more: *give me the verified
payloads, in order, and tell me what I definitively lost*.  This
module wraps the cascade verifier with stream semantics:

* verified payloads are released to the application strictly in
  sequence order;
* a gap (lost or never-verifiable packet) holds delivery back until
  the caller declares the gap dead — typically on a block boundary or
  a timeout — via :meth:`skip_gap` / :meth:`finish_block`;
* finished blocks are evicted from the verifier's buffers.

Signature packets with empty payloads (pure ``P_sign`` carriers) are
verified but produce no application data; delivery order skips over
them automatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.crypto.hashing import HashFunction, sha256
from repro.crypto.signatures import Signer
from repro.faults.channel import WireDelivery
from repro.packets import Packet
from repro.schemes.base import IngestHook
from repro.simulation.receiver import ChainReceiver, WireMemo

__all__ = ["DeliveredPayload", "StreamReceiver"]


@dataclass(frozen=True)
class DeliveredPayload:
    """One payload handed to the application."""

    seq: int
    block_id: int
    payload: bytes
    verified_time: float


class StreamReceiver:
    """In-order verified-payload delivery over a multi-block stream.

    Parameters
    ----------
    signer:
        Verifier for block signatures.
    hash_function:
        Must match the sender's.
    on_deliver:
        Optional callback invoked with each :class:`DeliveredPayload`
        as it is released (in sequence order).  The receiver keeps
        only the count, :attr:`delivered`; an application that wants
        the payloads keeps them here.
    max_buffered:
        Passed through to the underlying verifier (DoS cap).
    wire_memo:
        Passed through to the underlying verifier (shared decode memo).
    """

    def __init__(self, signer: Signer,
                 hash_function: HashFunction = sha256,
                 on_deliver: Optional[Callable[[DeliveredPayload], None]] = None,
                 max_buffered: Optional[int] = None,
                 wire_memo: Optional[WireMemo] = None) -> None:
        self._verifier = ChainReceiver(signer, hash_function,
                                       max_buffered=max_buffered,
                                       on_verified=self._note_verified,
                                       wire_memo=wire_memo)
        self._on_deliver = on_deliver
        # seq -> DeliveredPayload, or None for verified data-less packets.
        self._ready: Dict[int, Optional[DeliveredPayload]] = {}
        self._next_seq = 1
        self._skipped = 0
        #: Payloads released to the application so far.
        self.delivered = 0

    # ------------------------------------------------------------------

    def _note_verified(self, packet: Packet, when: float) -> None:
        # Positional: one of these per verified data packet, and the
        # frozen __init__ parses keywords slower.
        self._ready[packet.seq] = (
            DeliveredPayload(packet.seq, packet.block_id, packet.payload,
                             when)
            if packet.payload else None)

    def receive(self, packet: Packet,
                arrival_time: float) -> List[DeliveredPayload]:
        """Process one packet; returns payloads released by this event.

        A single arrival can release a batch (e.g. the signature packet
        of a fully buffered block unlocks everything at once).
        """
        self._verifier.receive(packet, arrival_time)
        return self._release()

    def ingest_run(self, deliveries: Sequence[WireDelivery],
                   on_ingest: Optional[IngestHook] = None
                   ) -> List[DeliveredPayload]:
        """:meth:`receive` for a run of wire frames.

        Routes the run through
        :meth:`~repro.simulation.receiver.ChainReceiver.ingest_run`
        (``on_ingest`` included), so undecodable buffers, replays and
        forgeries degrade the verifier's counters instead of the stream
        state; whatever the run verifies is released in order, as
        :meth:`receive` releases it.
        """
        self._verifier.ingest_run(deliveries, on_ingest)
        return self._release()

    # ------------------------------------------------------------------

    def _release(self) -> List[DeliveredPayload]:
        released: List[DeliveredPayload] = []
        while self._next_seq in self._ready:
            item = self._ready.pop(self._next_seq)
            self._next_seq += 1
            if item is None:
                continue  # verified signature-only packet: no app data
            released.append(item)
            self.delivered += 1
            if self._on_deliver is not None:
                self._on_deliver(item)
        return released

    def skip_gap(self, through_seq: int) -> List[DeliveredPayload]:
        """Declare every undelivered seq up to ``through_seq`` dead.

        Used on block boundaries or timeouts: packets in the gap can no
        longer verify (their block is gone), so in-order delivery may
        move past them.  Returns payloads released by unblocking.
        """
        if through_seq < self._next_seq:
            return []
        for seq in range(self._next_seq, through_seq + 1):
            if seq not in self._ready:
                self._skipped += 1
        released: List[DeliveredPayload] = []
        for seq in sorted(s for s in self._ready if s <= through_seq):
            item = self._ready.pop(seq)
            if item is None:
                continue
            released.append(item)
            self.delivered += 1
            if self._on_deliver is not None:
                self._on_deliver(item)
        self._next_seq = through_seq + 1
        released.extend(self._release())
        return released

    def finish_block(self, block_id: int, last_seq: int
                     ) -> List[DeliveredPayload]:
        """Close out a block: evict its buffers and skip its gaps."""
        self._verifier.evict_block(block_id)
        return self.skip_gap(last_seq)

    # ------------------------------------------------------------------

    @property
    def skipped(self) -> int:
        """Sequence numbers given up on (lost or never verifiable)."""
        return self._skipped

    @property
    def pending(self) -> int:
        """Verified payloads held back by an open gap."""
        return sum(1 for item in self._ready.values() if item is not None)

    @property
    def verifier(self) -> ChainReceiver:
        """The underlying cascade verifier (stats, outcomes)."""
        return self._verifier
