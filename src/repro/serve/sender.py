"""The sending half of a live session.

:class:`SenderService` owns the stream state (sequence numbers, block
ids, the pacing clock) but — unlike the offline
:class:`~repro.simulation.sender.StreamSender` — takes the schemes *per
block*, because the adaptive controller may re-parameterize between
blocks, and one scheme *per receiver group*, because each subtree may
fly its own design.  Each block is packetized once per group at one
shared block id, sequence range and set of send times, then pushed
through one channel per receiver (the session's topology channel
inside an :class:`~repro.faults.AdversarialChannel`, whose plan is
empty when the session is not attacked) and onto the transport,
followed by the block's one shared control frame (its ground truth
reaches the receiver pool in-process).  The schemes are
dependence-graph schemes, whose
:meth:`~repro.schemes.base.Scheme.make_block` stamps the send times
and carries every packet's auth digest, so the sender hashes nothing.
A packet is framed at most once per block, on the first channel that
delivers it; every other receiver's channel reuses those bytes.

Every channel is built fresh per (receiver, block) from seeds that
derive from one root seed (:func:`repro.topology.linkloss.cell_seed`),
so every cell of the session is an independent, reproducible sample —
the same property the Monte-Carlo trial runners get from their
per-trial seeds — and per-phase counter folds stay exact because all
accounting is integer.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.crypto.batch import BatchSigner
from repro.crypto.hashing import HashFunction, sha256
from repro.crypto.signatures import Signer
from repro.exceptions import SimulationError
from repro.faults import AdversarialChannel, WireDelivery
from repro.network.clock import Clock
from repro.obs import get_registry
from repro.obs.lifecycle import NOISE_SEQ, get_lifecycle
from repro.packets import Packet
from repro.schemes.base import Scheme
from repro.serve.receiver import BlockTruth, Ledger
from repro.serve.transport import ControlFrame, Transport, encode_control
from repro.simulation.receiver import WireMemo

__all__ = ["SenderService"]

#: Histogram bounds for blocks amortized per root signature.
_BATCH_SIZE_BOUNDS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)

#: Histogram bounds for encoded batch-attachment sizes (bytes).
_PROOF_BYTES_BOUNDS = (64.0, 128.0, 256.0, 512.0, 1024.0, 4096.0)


class _DeferredSigner:
    """Placeholder signer for blocks whose signature arrives at flush.

    ``auth_bytes`` excludes the signature field, so packetizing with an
    empty sentinel leaves every digest and carried hash final; the
    batch flush later swaps the sentinel for the real attachment.
    """

    def __init__(self, inner: Signer) -> None:
        self.name = inner.name
        self.signature_size = inner.signature_size
        self._inner = inner

    def sign(self, message: bytes) -> bytes:
        return b""

    def verify(self, message: bytes, signature: bytes) -> bool:
        return self._inner.verify(message, signature)


@dataclass
class _GroupPackets:
    """One receiver group's packetization of a block."""

    scheme_name: str
    phase: str
    stamped: List[Packet]
    digests: Dict[int, bytes]


class _GroupFrames(dict):
    """One group's ``seq -> wire bytes`` map for one block.

    :func:`~repro.faults.channel.frame_once` stores a packet's bytes
    here the first time any channel delivers it; storing them also
    puts ``wire -> (packet, digest)`` in the decode memo, so the entry
    exists before the frame is queued to any receiver.  ``packet`` is
    the final stamped object (after any batch flush) and ``digest`` its
    ledger digest, the hash of its own ``auth_bytes()``.
    """

    def __init__(self, packets: _GroupPackets, memo: WireMemo) -> None:
        super().__init__()
        self._by_seq = {packet.seq: packet for packet in packets.stamped}
        self._digests = packets.digests
        self._memo = memo

    def __setitem__(self, seq: int, wire: bytes) -> None:
        super().__setitem__(seq, wire)
        self._memo[wire] = (self._by_seq[seq], self._digests[seq])


@dataclass
class _PendingBlock:
    """One packetized block, every group's layout, not yet on the wire."""

    block_id: int
    base_seq: int
    last_seq: int
    loss_rate: float
    control_time: float
    groups: Dict[Optional[str], _GroupPackets]
    group_of: Mapping[str, str]


class SenderService:
    """Signs, packetizes and streams blocks over a transport.

    Like :class:`~repro.simulation.sender.StreamSender`, it takes each
    block stamped and hashed from ``make_block``; the ledger and memo
    digests are the :class:`~repro.schemes.base.Block`'s own.

    With ``batch_size > 1`` the service runs in batch-signing mode
    (:mod:`repro.crypto.batch`): blocks are packetized and paced
    immediately but held back from the transport with a placeholder
    signature; once ``batch_size`` blocks are pending — or the oldest
    pending block has waited ``flush_deadline`` virtual seconds — one
    Merkle root covering every pending signature packet, of every
    receiver group, is signed and each packet's placeholder is replaced
    by its proof-carrying attachment before the blocks stream out.
    Because channel draws are seeded per (receiver, block) and send
    times are stamped at packetization, the loss pattern, digests and
    receiver verdicts are identical to per-block signing on the same
    seed.

    Parameters
    ----------
    transport:
        Delivery fabric (started by the caller).
    receiver_ids:
        Subscribed receivers, in the canonical (sorted) order the
        session uses everywhere.
    signer:
        Block-signature signer.
    channel_factory:
        ``(receiver_index, block_id, loss_rate) -> AdversarialChannel``
        over a :class:`~repro.topology.channel.TopologyChannel` — see
        :func:`~repro.topology.channel.topology_channel_factory`.
    clock:
        Pacing clock; block transmission advances it by
        ``packets * t_transmit``.
    t_transmit:
        Seconds between consecutive packet transmissions (Eq. 4's
        clock unit).
    hash_function:
        Must match the receivers' (``sha256`` in
        :func:`~repro.serve.service.run_live_session`): the digests in
        ``ledger`` and ``wire_memo`` are its hashes, taken as
        ``make_block`` computes them, and receivers compare them with
        their own.
    batch_size:
        Blocks amortized per root signature; ``1`` (default) signs
        every block directly, exactly as before.
    flush_deadline:
        Virtual seconds the oldest pending block may wait before a
        partial batch is flushed anyway (bounds latency); ``None``
        flushes only on a full batch or at end of session.
    receiver_indices:
        Receiver id -> channel-seeding index (its topology leaf).
        Defaults to each id's position in ``receiver_ids``; churn
        sessions pass the membership universe's indices instead, so a
        receiver's loss and attack draws are pinned to its identity
        rather than to the shifting roster order.  Only ids in this
        map can ever be subscribed (:meth:`add_receiver`).
    ledger:
        The pool's ground truth (:attr:`ReceiverPool.ledger`); a
        receiver's entry is written before its control frame is sent.
    wire_memo:
        The pool's decode memo (:attr:`ReceiverPool.wire_memo`).  The
        first framing of a packet in a block also stores
        ``wire -> (packet, digest)``, before the frame is queued to any
        receiver, so no receiver decodes or hashes a genuine frame.
        The codec is canonical, so the entry is exactly what decoding
        and hashing ``wire`` would give: a pure function of its key,
        as every memo entry must be.
    """

    def __init__(self, transport: Transport, receiver_ids: Sequence[str],
                 signer: Signer,
                 channel_factory: Callable[[int, int, float],
                                           AdversarialChannel],
                 clock: Clock, t_transmit: float = 0.001,
                 hash_function: HashFunction = sha256,
                 batch_size: int = 1,
                 flush_deadline: Optional[float] = None,
                 receiver_indices: Optional[Mapping[str, int]] = None,
                 ledger: Optional[Ledger] = None,
                 wire_memo: Optional[WireMemo] = None) -> None:
        if not receiver_ids:
            raise SimulationError("need at least one receiver")
        if t_transmit <= 0:
            raise SimulationError(
                f"t_transmit must be > 0, got {t_transmit}")
        if batch_size < 1:
            raise SimulationError(
                f"batch_size must be >= 1, got {batch_size}")
        if flush_deadline is not None and flush_deadline <= 0:
            raise SimulationError(
                f"flush_deadline must be > 0, got {flush_deadline}")
        self.transport = transport
        self.ledger = ledger if ledger is not None else {}
        self.wire_memo = wire_memo if wire_memo is not None else {}
        self.receiver_ids = list(receiver_ids)
        if receiver_indices is None:
            self._index_of = {receiver_id: index
                              for index, receiver_id
                              in enumerate(self.receiver_ids)}
        else:
            missing = [r for r in self.receiver_ids
                       if r not in receiver_indices]
            if missing:
                raise SimulationError(
                    f"receiver_indices is missing {', '.join(missing)}")
            self._index_of = dict(receiver_indices)
        self.signer = signer
        self.channel_factory = channel_factory
        self.clock = clock
        self.t_transmit = t_transmit
        self.hash_function = hash_function
        self.batch_size = batch_size
        self.flush_deadline = flush_deadline
        self._batch = BatchSigner(signer, hash_function)
        #: Instance counters mirroring the ``serve.batch.*`` registry
        #: series — readable even when metrics are disabled, which is
        #: what the health sentinels difference per block.
        self.batch_signs = 0
        self.batch_flushes = 0
        self._pending: List[_PendingBlock] = []
        self._pending_since: Optional[float] = None
        self._next_seq = 1
        self._next_block = 0
        self._send_clock = 0.0  # virtual send-time base, paper pacing
        #: Redundant-path copies suppressed across all topology
        #: channels of the session (0 on independent channels).
        self.duplicates_suppressed = 0

    @property
    def next_block_id(self) -> int:
        """Block id the next :meth:`submit_block` will use."""
        return self._next_block

    def add_receiver(self, receiver_id: str) -> None:
        """Start streaming to a late joiner from the next block on.

        The joiner must have a channel-seeding index (a topology leaf)
        already; one without cannot be served and is refused here,
        not at the next block.  The canonical sorted roster order is
        preserved, so transmit order — and therefore virtual-time
        interleaving — is a pure function of the active set.
        """
        if receiver_id in self.receiver_ids:
            raise SimulationError(
                f"receiver {receiver_id!r} already subscribed")
        if receiver_id not in self._index_of:
            raise SimulationError(
                f"receiver {receiver_id!r} has no channel index "
                f"(not a leaf of the session's topology)")
        bisect.insort(self.receiver_ids, receiver_id)

    def remove_receiver(self, receiver_id: str) -> None:
        """Stop streaming to a leaver (its seeding index stays reserved)."""
        if receiver_id not in self.receiver_ids:
            raise SimulationError(
                f"receiver {receiver_id!r} is not subscribed")
        self.receiver_ids.remove(receiver_id)

    async def submit_block(self, schemes: Mapping[Optional[str], Scheme],
                           payloads: Sequence[bytes], loss_rate: float,
                           phases: Mapping[Optional[str], str],
                           group_of: Optional[Mapping[str, str]] = None
                           ) -> List[int]:
        """Packetize one block per receiver group; send per the batch policy.

        ``schemes`` and ``phases`` are keyed by group label; a receiver
        belongs to group ``group_of.get(receiver_id)``, so without
        ``group_of`` every receiver is in group ``None``.  Every group's
        packetization shares the block id, base sequence and send
        times, and the stream state advances once.  In per-block mode
        (``batch_size == 1``) the block is signed and streamed at once;
        in batch mode it is packetized with a placeholder signature and
        held.  Returns the ids of the blocks streamed *by this call*
        (possibly none, possibly several), in block order.
        """
        batched = self.batch_size > 1
        pending = self._packetize(
            schemes, payloads, loss_rate, phases, group_of or {},
            _DeferredSigner(self.signer) if batched else self.signer)
        duration = (pending.last_seq - pending.base_seq + 1) * self.t_transmit
        if not batched:
            await self._transmit_block(pending)
            await self.clock.sleep(duration)
            return [pending.block_id]
        self._pending.append(pending)
        if self._pending_since is None:
            self._pending_since = self.clock.now()
        await self.clock.sleep(duration)
        deadline_hit = (
            self.flush_deadline is not None
            and self.clock.now() - self._pending_since >= self.flush_deadline)
        if len(self._pending) >= self.batch_size or deadline_hit:
            return await self.flush_pending()
        return []

    async def flush_pending(self) -> List[int]:
        """Sign one Merkle root over all pending blocks and stream them.

        Returns the ids of the blocks streamed, in block order.
        """
        if not self._pending:
            return []
        pending_blocks = self._pending
        self._pending = []
        self._pending_since = None
        signature_slots = []  # (group packets, packet index)
        for pending in pending_blocks:
            for packets in pending.groups.values():
                for k_index, packet in enumerate(packets.stamped):
                    if packet.signature is not None:
                        self._batch.append(packet.auth_bytes())
                        signature_slots.append((packets, k_index))
        attachments = self._batch.flush()
        self.batch_signs += 1
        self.batch_flushes += 1
        registry = get_registry()
        if registry.enabled:
            registry.count("serve.batch.signs", 1)
            registry.count("serve.batch.flushes", 1)
            registry.observe("serve.batch.blocks_per_signature",
                             float(len(pending_blocks)),
                             bounds=_BATCH_SIZE_BOUNDS)
            for attachment in attachments:
                registry.observe("serve.batch.proof_bytes",
                                 float(len(attachment)),
                                 bounds=_PROOF_BYTES_BOUNDS)
        for (packets, k_index), attachment in zip(signature_slots,
                                                  attachments):
            packets.stamped[k_index] = packets.stamped[k_index].with_signature(
                attachment)
        for pending in pending_blocks:
            await self._transmit_block(pending)
        return [pending.block_id for pending in pending_blocks]

    def _packetize(self, schemes: Mapping[Optional[str], Scheme],
                   payloads: Sequence[bytes], loss_rate: float,
                   phases: Mapping[Optional[str], str],
                   group_of: Mapping[str, str],
                   signer: Signer) -> _PendingBlock:
        """Build and stamp one block per group; advances the stream state.

        The layouts must line up slot for slot (EMSS and AC packet
        counts are independent of their parameters), so every group
        shares one sequence range and one set of send times.
        """
        if not payloads:
            raise SimulationError("empty block")
        if not schemes:
            raise SimulationError("need at least one scheme group")
        block_id = self._next_block
        base_seq = self._next_seq
        groups: Dict[Optional[str], _GroupPackets] = {}
        count: Optional[int] = None
        for group, scheme in schemes.items():
            block = scheme.make_block(list(payloads), signer,
                                      self.hash_function, block_id=block_id,
                                      base_seq=base_seq,
                                      start=self._send_clock,
                                      t_transmit=self.t_transmit)
            if count is None:
                count = len(block)
            elif len(block) != count:
                raise SimulationError(
                    f"group {group!r} packetized {len(block)} packets, "
                    f"expected {count}; grouped schemes must share a "
                    f"block layout")
            digests = {packet.seq: digest
                       for packet, digest in zip(block, block.digests)}
            groups[group] = _GroupPackets(scheme_name=scheme.name,
                                          phase=phases[group],
                                          stamped=block, digests=digests)
        self._next_block += 1
        self._next_seq += count
        send_end = block[-1].send_time + self.t_transmit
        # Two clock rules, kept only because the pinned sessions encode
        # both (ROADMAP.md, "One stream clock").
        self._send_clock = (send_end if None in groups
                            else self._send_clock + count * self.t_transmit)
        return _PendingBlock(block_id=block_id, base_seq=base_seq,
                             last_seq=base_seq + count - 1,
                             loss_rate=loss_rate, control_time=send_end,
                             groups=groups, group_of=group_of)

    async def _transmit_to_receiver(self, pending: _PendingBlock,
                                    packets: _GroupPackets,
                                    receiver_id: str,
                                    frames: Dict[int, bytes],
                                    control: WireDelivery) -> None:
        """Push one group's packets, then the block's control frame.

        ``frames`` is the group's shared ``seq -> wire bytes`` map for
        this block (:func:`~repro.faults.channel.frame_once`), which
        fills the decode memo as it frames.
        """
        block_id = pending.block_id
        stamped = packets.stamped
        registry = get_registry()
        tracer = get_lifecycle()
        # No await between building the channel and transmitting on it:
        # the factory reuses one attack plan per receiver across cells.
        channel = self.channel_factory(self._index_of[receiver_id], block_id,
                                       pending.loss_rate)
        deliveries = channel.transmit_wire(stamped, frames)
        duplicates = channel.channel.duplicates_suppressed
        self.duplicates_suppressed += duplicates
        if tracer.enabled:
            surviving = {d.seq_hint for d in deliveries
                         if d.seq_hint is not None}
            for packet in stamped:
                tracer.record(receiver_id, block_id, packet.seq,
                              "sign", "signed", packet.send_time,
                              scheme=packets.scheme_name)
                tracer.record(receiver_id, block_id, packet.seq,
                              "frame", "framed", packet.send_time)
                if packet.seq not in surviving:
                    tracer.record(receiver_id, block_id, packet.seq,
                                  "transport", "drop", packet.send_time)
            for delivery in deliveries:
                seq = (delivery.seq_hint if delivery.seq_hint is not None
                       else NOISE_SEQ)
                tag = delivery.attack_tag
                if tag is None:
                    tracer.record(receiver_id, block_id, seq,
                                  "transport", "deliver",
                                  delivery.arrival_time)
                else:
                    tracer.record(receiver_id, block_id, seq,
                                  "transport", "deliver",
                                  delivery.arrival_time, kind=tag)
        transport_dropped = await self.transport.send(receiver_id,
                                                      deliveries)
        dropped_genuine = {d.seq_hint for d in transport_dropped
                           if d.kind == "genuine"}
        intact = frozenset(
            d.seq_hint for d in deliveries
            if d.kind == "genuine" and d.seq_hint is not None
            and d.seq_hint not in dropped_genuine)
        self.ledger[(receiver_id, block_id)] = BlockTruth(
            scheme=packets.scheme_name, phase=packets.phase,
            intact=intact, digests=packets.digests)
        await self.transport.send(receiver_id, [control])
        if registry.enabled:
            registry.count("serve.packets.sent", channel.sent)
            registry.count("serve.packets.dropped", channel.dropped)
            if duplicates:
                registry.count("serve.topology.duplicates", duplicates)
            if channel.corrupted or channel.injected or channel.replayed:
                registry.count("serve.attack.corrupted", channel.corrupted)
                registry.count("serve.attack.injected", channel.injected)
                registry.count("serve.attack.replayed", channel.replayed)

    async def _transmit_block(self, pending: _PendingBlock) -> None:
        """Push one packetized block through every receiver's channel.

        Each group's packets are framed at most once for the whole
        block: the receivers' channels share one lazily filled
        ``seq -> wire bytes`` map per group; one control frame serves all.
        """
        frames: Dict[Optional[str], _GroupFrames] = {}
        control = WireDelivery(
            arrival_time=pending.control_time,
            data=encode_control(ControlFrame(
                pending.block_id, pending.base_seq, pending.last_seq)),
            kind="control", seq_hint=None)
        for receiver_id in self.receiver_ids:
            group = pending.group_of.get(receiver_id)
            packets = pending.groups.get(group)
            if packets is None:
                raise SimulationError(
                    f"receiver {receiver_id!r} has no scheme group")
            group_frames = frames.get(group)
            if group_frames is None:
                group_frames = frames[group] = _GroupFrames(packets,
                                                            self.wire_memo)
            await self._transmit_to_receiver(
                pending, packets, receiver_id, group_frames, control)

    async def send_final(self) -> None:
        """End the session: flush any partial batch, then signal EOF."""
        await self.flush_pending()
        final = WireDelivery(
            arrival_time=self._send_clock,
            data=encode_control(ControlFrame(-1, 0, 0, final=True)),
            kind="control", seq_hint=None)
        for receiver_id in self.receiver_ids:
            await self.transport.send(receiver_id, [final])
