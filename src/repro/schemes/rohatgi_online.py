"""Gennaro–Rohatgi's *online* chain: one-time signature chaining.

The paper analyzes the offline Gennaro–Rohatgi scheme (hash of the
next packet embedded in the current one), which requires knowing the
whole stream in advance.  The same 1997 paper proposed an **online**
variant for streams generated on the fly: each packet carries the
public key (here: its fingerprint) of a fresh one-time signature pair,
and is itself signed with the one-time key committed by its
predecessor; only the first packet needs an ordinary signature.

Dependence structure — and therefore the paper's entire loss analysis
— is identical to the offline chain (``q_i = (1-p)^{i-2}``, zero
receiver delay, the chain dies at the first loss).  What changes is
cost: a Lamport signature per packet is ~8 KB, the price paid for not
knowing the future.  The scheme earns its place here as the extreme
point of the Fig. 10 overhead axis and as a real consumer of the
:mod:`repro.crypto.lamport` substrate.

Wire mapping: ``extra`` carries ``fingerprint(pk_{i+1}) || ots_sig_i``;
the OTS signature covers the packet's :meth:`auth_bytes` *minus* the
signature itself (the fingerprint is covered, chaining trust forward).
The RSA/stub signature field is used only on ``P_1``.
"""

from __future__ import annotations

import struct
from functools import lru_cache, partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.metrics import GraphMetrics
from repro.crypto.hashing import HashFunction, sha256
from repro.crypto.lamport import LamportKeyPair
from repro.crypto.signatures import Signer
from repro.exceptions import SchemeParameterError, SimulationError
from repro.packets import Packet
from repro.schemes.base import (
    DEFAULT_MAX_CANDIDATES,
    PacketOutcome,
    Scheme,
    Trial,
    Verifier,
)
from repro.schemes.rohatgi import RohatgiScheme

__all__ = ["OnlineRohatgiScheme", "OnlineChainVerifier"]

_FINGERPRINT_SIZE = 32
_OTS_SIZE = 256 * 32
_HEADER = struct.Struct(">I")  # OTS signature length (0 on P_1)

#: One-time-key seed derived from a trial's run seed when the scheme
#: pins none; recorded attacked-trial results depend on these bytes.
_DERIVED_KEY_SEED = b"adv-online-%d"


def _packet_body(seq: int, block_id: int, payload: bytes,
                 next_fingerprint: bytes) -> bytes:
    return (struct.pack(">II", seq, block_id)
            + struct.pack(">I", len(payload)) + payload
            + next_fingerprint)


def _encode_extra(next_fingerprint: bytes, ots_signature: bytes) -> bytes:
    return _HEADER.pack(len(ots_signature)) + next_fingerprint + ots_signature


def _decode_extra(extra: bytes):
    try:
        (ots_length,) = _HEADER.unpack_from(extra, 0)
    except struct.error as exc:
        raise SimulationError(f"malformed online-chain packet: {exc}") from exc
    offset = _HEADER.size
    fingerprint = extra[offset:offset + _FINGERPRINT_SIZE]
    if len(fingerprint) != _FINGERPRINT_SIZE:
        raise SimulationError("truncated key fingerprint")
    offset += _FINGERPRINT_SIZE
    signature = extra[offset:offset + ots_length]
    if len(signature) != ots_length:
        raise SimulationError("truncated one-time signature")
    return fingerprint, signature


@lru_cache(maxsize=64)
def _seeded_keypair(seed: bytes) -> LamportKeyPair:
    """A seeded key pair is a pure function of its seed: derive it once."""
    return LamportKeyPair.generate(seed)


def _keypairs(count: int, seed: Optional[bytes]) -> List[LamportKeyPair]:
    """``count`` one-time key pairs, from ``seed`` or fresh randomness."""
    if seed is None:
        return [LamportKeyPair.generate() for _ in range(count)]
    return [_seeded_keypair(seed + index.to_bytes(4, "big"))
            for index in range(count)]


def _chain_block(payloads: Sequence[bytes], signer: Signer,
                 keypairs: Sequence[LamportKeyPair], block_id: int,
                 base_seq: int) -> List[Packet]:
    """One block chained under ``keypairs`` (one more than the payloads)."""
    packets: List[Packet] = []
    for index, payload in enumerate(payloads):
        seq = base_seq + index
        next_fingerprint = keypairs[index + 1].public_fingerprint()
        body = _packet_body(seq, block_id, bytes(payload), next_fingerprint)
        if index == 0:
            extra = _encode_extra(next_fingerprint, b"")
            unsigned = Packet(seq=seq, block_id=block_id,
                              payload=bytes(payload), extra=extra)
            packets.append(unsigned.with_signature(
                signer.sign(unsigned.auth_bytes())))
        else:
            ots_signature = keypairs[index].sign(body)
            packets.append(Packet(
                seq=seq, block_id=block_id, payload=bytes(payload),
                extra=_encode_extra(next_fingerprint, ots_signature),
            ))
    return packets


class OnlineRohatgiScheme(Scheme):
    """Forward chain of Lamport one-time signatures.

    Parameters
    ----------
    seed:
        Optional seed making the per-packet key pairs deterministic
        (tests); production use draws fresh randomness per pair.
    """

    def __init__(self, seed: Optional[bytes] = None) -> None:
        self.seed = seed

    @property
    def name(self) -> str:
        return "rohatgi-online"

    # Same dependence topology as the offline chain, so the same Eq. 8.
    build_graph = RohatgiScheme.build_graph
    q_profile = RohatgiScheme.q_profile

    def make_block(self, payloads: Sequence[bytes], signer: Signer,
                   hash_function: HashFunction = sha256,
                   block_id: int = 0, base_seq: int = 1) -> List[Packet]:
        """Chain one-time keys forward; ordinary-sign only ``P_1``.

        Unlike the offline builder this needs *no* lookahead: each
        packet commits to the next key pair, generated on the spot.
        Verifying takes those key pairs too; :meth:`new_trial` hands
        them out together with the packets.
        """
        if not payloads:
            raise SchemeParameterError("empty block")
        return _chain_block(payloads, signer,
                            _keypairs(len(payloads) + 1, self.seed),
                            block_id, base_seq)

    def new_trial(self, signer: Signer, block_size: int, blocks: int, *,
                  hash_function: HashFunction = sha256,
                  t_transmit: float = 0.01,
                  seed: Optional[int] = None) -> Trial:
        """Chained blocks and a verifier that holds their key pairs.

        Receivers need each packet's one-time public key to check its
        signature against the committed fingerprint; the trial hands
        the key material over alongside the packets (in a deployment it
        rides in the packet — the dominating overhead this scheme is
        famous for).  Keys come from the scheme's ``seed``, else from
        the run ``seed``, else fresh randomness, and every block of the
        trial uses the same ones.  Packets carry no send times.
        """
        from repro.simulation.sender import make_payloads

        key_seed = self.seed
        if key_seed is None and seed is not None:
            key_seed = _DERIVED_KEY_SEED % seed
        keypairs = _keypairs(block_size + 1, key_seed)
        payloads = make_payloads(block_size)
        packets: List[Packet] = []
        for block in range(blocks):
            packets += _chain_block(payloads, signer, keypairs, block,
                                    1 + block * block_size)
        positions = {packet.seq: (packet.seq - 1) % block_size + 1
                     for packet in packets}
        return Trial(packets, positions,
                     partial(OnlineChainVerifier, signer, keypairs,
                             block_size, blocks, hash_function))

    def metrics(self, n: int, l_sign: int = 128, l_hash: int = 16,
                sign_copies: int = 1) -> GraphMetrics:
        """Chain metrics with the one-time-signature overhead.

        One fingerprint + one Lamport signature per packet (the first
        packet swaps the OTS for the ordinary signature).
        """
        if n < 1:
            raise SchemeParameterError(f"block needs >= 1 packet, got {n}")
        per_packet = _FINGERPRINT_SIZE + _OTS_SIZE
        return GraphMetrics(
            n=n,
            edge_count=n - 1,
            mean_hashes=(n - 1) / n,
            overhead_bytes=per_packet + sign_copies * l_sign / n,
            message_buffer=0,
            hash_buffer=1,
            delay_slots=0,
        )


class OnlineChainVerifier(Verifier):
    """Trial verifier for the online chain.

    Verification needs each packet's full one-time public key; in a
    deployment it rides in the packet (the simulated wire format leaves
    it out for clarity and the trial hands the key pairs over out of
    band, since only their *size* matters for the paper's metrics).
    The chain is strictly positional and is only checked at
    :meth:`finish`, so each sequence number holds its distinct
    candidates in arrival order (at most
    :data:`~repro.schemes.base.DEFAULT_MAX_CANDIDATES`; a number
    outside the stream is a forgery) and :meth:`finish` takes the first
    that verifies.  A failed candidate leaves the slot claimable, so a
    forgery that arrives first cannot lock the genuine packet out.
    """

    def __init__(self, signer: Signer, keypairs: Sequence[LamportKeyPair],
                 block_size: int, blocks: int,
                 hash_function: HashFunction = sha256) -> None:
        super().__init__(hash_function)
        self._signer = signer
        self._keypairs = keypairs
        self._block_size = block_size
        self._slots = block_size * blocks
        # seq -> content digest -> [packet, first arrival, copies]
        self._candidates: Dict[int, Dict[bytes, list]] = {}
        self._records: Dict[int, PacketOutcome] = {}
        self._accepted: Dict[int, bytes] = {}

    def receive(self, packet: Packet, arrival_time: float) -> None:
        """Hold ``packet`` as a candidate for its slot (counted at finish)."""
        if not 1 <= packet.seq <= self._slots:
            self.forged_rejected += 1
            return
        held = self._candidates.setdefault(packet.seq, {})
        digest = self.content_digest(packet)
        candidate = held.get(digest)
        if candidate is not None:
            candidate[2] += 1
        elif len(held) < DEFAULT_MAX_CANDIDATES:
            held[digest] = [packet, arrival_time, 1]
        else:
            self.forged_rejected += 1

    def finish(self) -> None:
        """Verify every block's slots in sequence order.

        The chain is strictly sequential: a slot's candidate is checked
        against the slot's one-time key and the fingerprint its
        predecessor committed to, so a missing or failed slot breaks
        everything after it, exactly as the paper says.  The slot takes
        its first candidate that verifies, or else its first arrival.
        Copies of the first arrival or of the taken candidate count in
        ``replays_dropped``; every other copy, and a rejected first
        arrival, in ``forged_rejected``.
        """
        block = position = expected = None
        for seq in sorted(self._candidates):
            held = list(self._candidates[seq].values())
            if (seq - 1) // self._block_size != block:
                block = (seq - 1) // self._block_size
                position, expected = 0, None
            taken = fingerprint = None
            first_decodes = False
            for index, (packet, _arrival, _copies) in enumerate(held):
                decodes, fingerprint = self._link(packet, position, expected)
                if index == 0:
                    first_decodes = decodes
                if fingerprint is not None:
                    taken = index
                    break
            slot = taken or 0
            for index, (_packet, _arrival, copies) in enumerate(held):
                if index == slot:
                    self.replays_dropped += copies - 1
                elif index == 0:
                    self.forged_rejected += 1
                    self.replays_dropped += copies - 1
                else:
                    self.forged_rejected += copies
            packet, arrival, _copies = held[slot]
            record = self._records[seq] = PacketOutcome(seq, arrival)
            if taken is None and not first_decodes:
                # Decodes as a packet but not as an online-chain packet:
                # the slot stays empty, breaking the chain like a loss.
                self.forged_rejected += 1
                continue
            record.verified = taken is not None
            if record.verified:
                self._accepted[seq] = self.content_digest(packet)
            expected = fingerprint
            position += 1

    def _link(self, packet: Packet, position: int,
              expected: Optional[bytes]) -> Tuple[bool, Optional[bytes]]:
        """Check ``packet`` as the chain's link at ``position``.

        Returns whether its ``extra`` decodes, and the fingerprint it
        commits to the next link if it verifies (else ``None``).
        """
        try:
            fingerprint, ots_signature = _decode_extra(packet.extra)
        except SimulationError:
            return False, None
        if position == 0:
            ok = (packet.signature is not None
                  and self._signer.verify(packet.auth_bytes(),
                                          packet.signature))
        else:
            keypair = self._keypairs[position]
            body = _packet_body(packet.seq, packet.block_id,
                                packet.payload, fingerprint)
            ok = (expected is not None
                  and keypair.public_fingerprint() == expected
                  and keypair.verify(body, ots_signature))
        return True, fingerprint if ok else None

    def verdict(self, seq: int) -> Optional[PacketOutcome]:
        """Verification is not timed: ``verified_time`` stays ``None``."""
        return self._records.get(seq)

    def accepted_digests(self) -> Dict[int, bytes]:
        return self._accepted
