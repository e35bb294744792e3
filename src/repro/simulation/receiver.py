"""Generic receiver for hash-chained schemes.

The receiver is deliberately *scheme-agnostic*: a hash-chained packet
stream is self-describing (each packet says which sequence numbers the
hashes it carries belong to), so one verification engine covers
Gennaro–Rohatgi, EMSS, augmented chains, generic offset schemes and
any designed graph.  The engine maintains exactly the two buffers the
paper's Sec. 3 buffer analysis talks about:

* a **hash buffer** of trusted hashes for packets not yet arrived, and
* a **message buffer** of arrived-but-unverifiable packets.

Verification cascades: a packet becomes trusted either by signature or
by matching a trusted hash; its carried hashes then become trusted,
which may release buffered packets, recursively.

One method verifies: :meth:`ChainReceiver.receive` takes a decoded
packet, drops exact duplicates of content already processed (counted
in ``replays_dropped``), rejects forgeries without letting them claim
a sequence slot (``forged_rejected``), and keeps several
same-sequence candidates buffered so a forged packet can never evict
the genuine one from contention.  On a loss-only channel only the
duplicate drop can fire (replicated ``P_sign`` copies), so loss-only
simulations and attacked channels share the one body.
:meth:`ChainReceiver.ingest_run` feeds it a run of wire deliveries (a
live transport's queue entry, or a trial's whole attacked delivery
list), decoding raw bytes and counting undecodable buffers;
:meth:`ChainReceiver.ingest_wire` is the same for one buffer.  No
input crashes the receiver, pollutes its trust state or unbounds its
memory.

:class:`ChainReceiver` is the hash-chained schemes' trial
:class:`~repro.schemes.base.Verifier`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto.hashing import HashFunction, sha256
from repro.crypto.signatures import Signer
from repro.exceptions import WireDecodeError
from repro.faults.channel import WireDelivery
from repro.packets import Packet, packet_from_wire
from repro.schemes.base import IngestHook, PacketOutcome, Verifier

__all__ = ["PacketOutcome", "ChainReceiver"]

#: Content-keyed decode memo shared by receivers of one stream: wire
#: bytes -> ``(packet, auth digest)``, or :data:`_UNDECODABLE` for
#: bytes the strict decoder rejected.  The packet keeps its encoding
#: (see :mod:`repro.packets`), so ``auth_bytes`` needs no slot of its
#: own.  Every value is a pure function of the key, so sharing it
#: cannot change a verdict (see :meth:`ChainReceiver.ingest_run`).
WireMemo = Dict[bytes, Tuple[Optional[Packet], Optional[bytes]]]

_UNDECODABLE = (None, None)

#: Buffered same-sequence candidates kept per slot.  The
#: eavesdrop-and-inject adversary sends forgeries *after* the genuine
#: packet, so slot 1 suffices for it; the margin covers blind
#: pre-emptive collisions without unbounding memory.
DEFAULT_MAX_CANDIDATES = 4


class ChainReceiver(Verifier):
    """Incremental verifier for hash-chained packet streams.

    Parameters
    ----------
    signer:
        Verifier for signature packets (public part suffices).
    hash_function:
        Must match the sender's hash (sizes included).
    max_buffered:
        Optional hard cap on the message buffer (total buffered
        candidates).  Real receivers cannot hold unverified packets
        forever — the paper notes the buffering that EMSS/AC/TESLA
        require "is subject to Denial of Service attacks".  When the
        cap is hit, the oldest candidate of the lowest buffered
        sequence is evicted (it can never verify afterwards);
        evictions are counted in :attr:`evicted`.
    max_candidates:
        Cap on buffered same-sequence candidates; further colliding
        packets are rejected, not buffered.
    on_verified:
        Optional ``callback(packet, time)`` invoked for every packet
        the instant it verifies (including cascade releases) — the
        hook :class:`~repro.simulation.stream_receiver.StreamReceiver`
        builds ordered delivery on.
    wire_memo:
        Optional :data:`WireMemo` shared with other receivers of the
        same stream (and hash function): :meth:`ingest_run` decodes
        and hashes each distinct buffer once for all of them.  Only
        the pure functions of the bytes are shared; verdicts, buffers
        and counters stay per receiver.

    Notes
    -----
    A packet whose authentication data *mismatches* a trusted hash or
    signature never verifies and is counted in :attr:`forged_rejected`;
    it flags the slot's record ``forged`` only when the slot is claimed
    but not yet verified.  In a loss-only simulation none should ever
    appear, and tests assert exactly that.
    """

    def __init__(self, signer: Signer,
                 hash_function: HashFunction = sha256,
                 max_buffered: Optional[int] = None,
                 max_candidates: int = DEFAULT_MAX_CANDIDATES,
                 on_verified=None,
                 wire_memo: Optional[WireMemo] = None) -> None:
        if max_buffered is not None and max_buffered < 1:
            raise ValueError(f"max_buffered must be >= 1, got {max_buffered}")
        if max_candidates < 1:
            raise ValueError(
                f"max_candidates must be >= 1, got {max_candidates}")
        self._signer = signer
        self._hash = hash_function
        self._max_buffered = max_buffered
        self._max_candidates = max_candidates
        self._on_verified = on_verified
        self._wire_memo = wire_memo
        self._trusted: Dict[int, bytes] = {}
        # seq -> [(packet, arrival_time, auth digest), ...] in arrival order
        self._buffered: Dict[int, List[Tuple[Packet, float, bytes]]] = {}
        self._buffered_total = 0
        # seq -> auth digest of the packet that verified for that slot
        self._accepted: Dict[int, bytes] = {}
        self.outcomes: Dict[int, PacketOutcome] = {}
        # |{seq in _trusted : seq not in outcomes}|, kept exact at every
        # insert into either map (neither ever shrinks): the trusted
        # insert in _mark_verified and outcome creation in
        # _ensure_outcome.
        self._pending_hashes = 0
        self.evicted = 0
        #: Evictions forced by the DoS buffer cap specifically — unlike
        #: :attr:`evicted`, which also counts the routine block-close
        #: reclaim, cap pressure is an anomaly the health sentinels
        #: alert on.
        self.cap_evictions = 0
        self.undecodable = 0
        self.forged_rejected = 0
        self.replays_dropped = 0
        self._message_buffer_peak = 0
        self._hash_buffer_peak = 0
        #: Taxonomy of the most recent delivery — one of
        #: "undecodable", "replay-drop", "forged-reject", "slot-reject",
        #: "verified", "buffered" — plus the decoded packet (None when
        #: decoding failed).  Written by :meth:`ingest_run`/:meth:`receive`
        #: so lifecycle tracing can attribute the event without decoding
        #: the wire bytes a second time.  Always this receiver's own
        #: verdict: with a shared wire memo the packet object may be
        #: shared with other receivers (it is frozen), the taxonomy never.
        self.last_ingest: Optional[str] = None
        self.last_ingest_packet: Optional[Packet] = None

    # ------------------------------------------------------------------

    def ingest_run(self, deliveries: Sequence[WireDelivery],
                   on_ingest: Optional[IngestHook] = None) -> None:
        """Decode and ingest a run of wire deliveries, in order.

        Undecodable buffers (truncation, bit flips that break framing,
        garbage) are counted in :attr:`undecodable` and discarded —
        they cannot crash the receiver or consume buffer space.
        ``on_ingest(delivery)``, when given, is called after each
        delivery with :attr:`last_ingest` describing it (lifecycle
        tracing).

        The decoded packet keeps the buffer's ``auth_bytes`` section
        as its encoding, so nothing on this path encodes a packet
        again.  That is sound because the decoder is canonical: a
        successful decode re-encodes to the identical input, so those
        bytes are exactly what the decoded fields encode to.

        With a shared wire memo, the decode and digest of each distinct
        buffer are computed once and reused by every receiver that gets
        the same bytes.  By the same canonicality, a tampered or forged
        frame is a different key and can never hit an entry made for a
        genuine one.
        """
        memo = self._wire_memo
        digest_of = self._hash.digest
        receive = self.receive
        for delivery in deliveries:
            data = delivery.data
            entry = memo.get(data) if memo is not None else None
            if entry is None:
                try:
                    packet = packet_from_wire(data)
                except WireDecodeError:
                    entry = _UNDECODABLE
                else:
                    entry = (packet, digest_of(packet.auth_bytes()))
                if memo is not None:
                    memo[data] = entry
            packet, digest = entry
            if packet is None:
                self.undecodable += 1
                self.last_ingest = "undecodable"
                self.last_ingest_packet = None
            else:
                receive(packet, delivery.arrival_time, digest)
            if on_ingest is not None:
                on_ingest(delivery)

    def ingest_wire(self, data: bytes,
                    arrival_time: float) -> Optional[PacketOutcome]:
        """:meth:`ingest_run` over one buffer; ``None`` if undecodable.

        Returns the outcome record of the decoded packet's sequence
        number, if it has one.
        """
        self.ingest_run((WireDelivery(arrival_time, data, "unknown"),))
        packet = self.last_ingest_packet
        return None if packet is None else self.outcomes.get(packet.seq)

    def receive(self, packet: Packet, arrival_time: float,
                digest: Optional[bytes] = None) -> Optional[PacketOutcome]:
        """Process one decoded packet; returns its slot's (live) outcome.

        The outcome may flip to verified later, when a subsequent
        packet supplies the missing hash — the returned object is
        updated in place.  ``None`` means nothing has claimed the slot:
        the packet was rejected before anything arrived for it.

        Against an attacker who controls the network:

        * exact duplicates of already-processed content are dropped and
          counted in :attr:`replays_dropped` (on a loss-only channel,
          replicated ``P_sign`` copies);
        * a packet whose authentication data mismatches never *claims*
          the sequence slot — a forgery racing the genuine packet
          cannot poison its outcome (counted in
          :attr:`forged_rejected`);
        * unverifiable packets are buffered as same-sequence
          *candidates* (bounded by ``max_candidates``), so trust
          resolves to whichever candidate matches once the covering
          hash arrives, regardless of arrival order.

        ``digest`` is the hash of the packet's ``auth_bytes()`` when
        the caller already has it (the wire path); omitted, it is
        computed here.
        """
        seq = packet.seq
        outcome = self.outcomes.get(seq)
        if digest is None:
            digest = self._hash.digest(packet.auth_bytes())
        self.last_ingest_packet = packet
        if outcome is not None and outcome.verified:
            if self._accepted.get(seq) == digest:
                self.replays_dropped += 1
                self.last_ingest = "replay-drop"
            else:
                self.forged_rejected += 1
                self.last_ingest = "forged-reject"
            return outcome
        if packet.signature is not None:
            if self._signer.verify(packet.auth_bytes(), packet.signature):
                outcome = self._ensure_outcome(seq, arrival_time)
                self._mark_verified(packet, arrival_time, digest)
                self.last_ingest = "verified"
            else:
                # Rejected forgery: no outcome is created, so the slot
                # stays claimable by the genuine packet.
                self.forged_rejected += 1
                self.last_ingest = "forged-reject"
                if outcome is not None:
                    outcome.forged = True
            return outcome
        expected = self._trusted.get(seq)
        if expected is not None:
            if expected == digest:
                outcome = self._ensure_outcome(seq, arrival_time)
                self._mark_verified(packet, arrival_time, digest)
                self.last_ingest = "verified"
            else:
                self.forged_rejected += 1
                self.last_ingest = "forged-reject"
                if outcome is not None:
                    outcome.forged = True
            return outcome
        # No verdict possible yet: buffer as a candidate for this slot.
        candidates = self._buffered.get(seq)
        if candidates:
            for _held, _arrival, held_digest in candidates:
                if held_digest == digest:
                    self.replays_dropped += 1
                    self.last_ingest = "replay-drop"
                    return outcome
            if len(candidates) >= self._max_candidates:
                # Slot contention exhausted; drop the newcomer
                # determinately.
                self.forged_rejected += 1
                self.last_ingest = "slot-reject"
                return outcome
        outcome = self._ensure_outcome(seq, arrival_time)
        self._buffer_candidate(packet, arrival_time, digest)
        self.last_ingest = "buffered"
        return outcome

    #: :meth:`receive` under its former name, which the benchmark
    #: harness's tracing targets (``bench/tracing.py``) still resolve.
    ingest = receive

    # ------------------------------------------------------------------

    def _ensure_outcome(self, seq: int, arrival_time: float) -> PacketOutcome:
        outcome = self.outcomes.get(seq)
        if outcome is None:
            outcome = PacketOutcome(seq, arrival_time)
            self.outcomes[seq] = outcome
            if seq in self._trusted:
                self._pending_hashes -= 1
        return outcome

    def _buffer_candidate(self, packet: Packet, arrival_time: float,
                          digest: bytes) -> None:
        self._buffered.setdefault(packet.seq, []).append(
            (packet, arrival_time, digest))
        self._buffered_total += 1
        if (self._max_buffered is not None
                and self._buffered_total > self._max_buffered):
            oldest = min(self._buffered)
            candidates = self._buffered[oldest]
            candidates.pop(0)
            if not candidates:
                del self._buffered[oldest]
            self._buffered_total -= 1
            self.evicted += 1
            self.cap_evictions += 1
        self._message_buffer_peak = max(self._message_buffer_peak,
                                        self._buffered_total)

    def evict_block(self, block_id: int) -> int:
        """Drop buffered packets of a finished block; returns the count.

        Once a block's signature packet has been processed and the
        sender has moved on, buffered packets of that block whose hash
        support was lost can never verify; callers that track block
        boundaries reclaim the memory here.
        """
        dropped = 0
        for seq in list(self._buffered):
            candidates = self._buffered[seq]
            keep = [entry for entry in candidates
                    if entry[0].block_id != block_id]
            dropped += len(candidates) - len(keep)
            if keep:
                self._buffered[seq] = keep
            else:
                del self._buffered[seq]
        self._buffered_total -= dropped
        self.evicted += dropped
        return dropped

    # ------------------------------------------------------------------

    def _mark_verified(self, packet: Packet, now: float,
                       digest: bytes) -> None:
        """Trust ``packet``, absorb its hashes, cascade to buffered packets."""
        worklist = [(packet, digest)]
        while worklist:
            current, current_digest = worklist.pop()
            outcome = self.outcomes[current.seq]
            outcome.verified = True
            outcome.verified_time = now
            self._accepted[current.seq] = current_digest
            stale = self._buffered.pop(current.seq, None)
            if stale:
                self._buffered_total -= len(stale)
                for _held, _arrival, stale_digest in stale:
                    if stale_digest == current_digest:
                        self.replays_dropped += 1
                    else:
                        self.forged_rejected += 1
            if self._on_verified is not None:
                self._on_verified(current, now)
            for target, carried_digest in current.carried:
                known = self._trusted.get(target)
                if known is None:
                    self._trusted[target] = carried_digest
                    if target not in self.outcomes:
                        self._pending_hashes += 1
                elif known != carried_digest:
                    # Conflicting trusted hashes can only come from a
                    # forged-but-signed packet; keep the first.
                    continue
                held = self._buffered.pop(target, None)
                if held is None:
                    continue
                self._buffered_total -= len(held)
                matched: Optional[Tuple[Packet, bytes]] = None
                for held_packet, _arrival, held_digest in held:
                    if held_digest == carried_digest:
                        if matched is None:
                            matched = (held_packet, held_digest)
                        else:
                            self.replays_dropped += 1
                    else:
                        self.outcomes[target].forged = True
                        self.forged_rejected += 1
                if matched is not None:
                    worklist.append(matched)
            self._hash_buffer_peak = max(self._hash_buffer_peak,
                                         self._pending_hashes)

    # ------------------------------------------------------------------

    def accepted_digests(self) -> Dict[int, bytes]:
        """Auth digest of every packet that verified, by sequence.

        A sequence number verifies at most once, so the map only grows,
        in acceptance order: what the soundness audit reads.
        """
        return self._accepted

    def verdict(self, seq: int) -> Optional[PacketOutcome]:
        """The live outcome record of ``seq``, if anything arrived."""
        return self.outcomes.get(seq)

    @property
    def forged(self) -> int:
        """Records flagged forged: a mismatching packet hit a claimed slot."""
        return sum(1 for o in self.outcomes.values() if o.forged)

    @property
    def pending_hash_count(self) -> int:
        """Trusted hashes waiting for their packet (hash buffer level).

        Kept as a running count, so reading it is O(1).  Trusted hashes
        are never pruned: in a multi-block stream the level includes
        the hashes of packets lost in earlier, already finished blocks.
        """
        return self._pending_hashes

    @property
    def buffered_count(self) -> int:
        """Arrived-but-unverified candidates (message buffer level)."""
        return self._buffered_total

    @property
    def message_buffer_peak(self) -> int:
        """Maximum message-buffer occupancy seen so far."""
        return self._message_buffer_peak

    @property
    def hash_buffer_peak(self) -> int:
        """Maximum hash-buffer occupancy seen so far."""
        return self._hash_buffer_peak

    def verified_count(self) -> int:
        """Packets verified so far."""
        return sum(1 for o in self.outcomes.values() if o.verified)
