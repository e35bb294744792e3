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

The hash-chain receiver (:class:`~repro.simulation.receiver.ChainReceiver`)
verifies the chain as each packet arrives: it is the offline chain with
a key fingerprint on each edge instead of a hash
(:class:`~repro.schemes.base.ChainEdges`).  A verified packet vouches
for the next position of its block with the fingerprint it commits to,
and the packet there matches when its one-time key has that
fingerprint and its one-time signature verifies.  The one-time public
keys come from the trial, out of band (see
:meth:`OnlineRohatgiScheme.new_trial`).
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
from repro.schemes.base import Block, ChainEdges, Scheme, Trial, stamp
from repro.schemes.rohatgi import RohatgiScheme

__all__ = ["OnlineRohatgiScheme"]

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
                   block_id: int = 0, base_seq: int = 1, *,
                   start: float = 0.0, t_transmit: float = 0.0) -> Block:
        """Chain one-time keys forward; ordinary-sign only ``P_1``.

        Unlike the offline builder this needs *no* lookahead: each
        packet commits to the next key pair, generated on the spot.
        Verifying takes those key pairs too; :meth:`new_trial` hands
        them out together with the packets.  Send times are stamped as
        :meth:`~repro.schemes.base.Scheme.make_block` says.
        """
        if not payloads:
            raise SchemeParameterError("empty block")
        return Block(stamp(
            _chain_block(payloads, signer,
                         _keypairs(len(payloads) + 1, self.seed),
                         block_id, base_seq), start, t_transmit))

    def new_trial(self, signer: Signer, block_size: int, blocks: int, *,
                  hash_function: HashFunction = sha256,
                  t_transmit: float = 0.01,
                  seed: Optional[int] = None) -> Trial:
        """Chained blocks, verified by the hash-chain receiver.

        Receivers need each packet's one-time public key to check its
        signature against the committed fingerprint; the trial hands
        the key material over alongside the packets (in a deployment it
        rides in the packet — the dominating overhead this scheme is
        famous for).  Keys come from the scheme's ``seed``, else from
        the run ``seed``, else fresh randomness, and every block of the
        trial uses the same ones.  Packets carry no send times.
        """
        from repro.simulation.receiver import ChainReceiver
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
        edges = ChainEdges(
            vouches=partial(_vouches, positions=positions,
                            block_size=block_size),
            matches=partial(_matches, positions=positions,
                            keypairs=keypairs))
        return Trial(packets, positions,
                     partial(ChainReceiver, signer, hash_function,
                             edges=edges))

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


def _vouches(packet: Packet, positions: Dict[int, int],
             block_size: int) -> Tuple[Tuple[int, bytes], ...]:
    """The next position of ``packet``'s block, and the key it commits to."""
    if positions.get(packet.seq, block_size) >= block_size:
        return ()
    try:
        fingerprint, _ots_signature = _decode_extra(packet.extra)
    except SimulationError:
        return ()
    return ((packet.seq + 1, fingerprint),)


def _matches(packet: Packet, fingerprint: bytes, positions: Dict[int, int],
             keypairs: Sequence[LamportKeyPair]) -> bool:
    """Whether ``packet`` is signed by the one-time key ``fingerprint`` names."""
    position = positions.get(packet.seq)
    if position is None:
        return False
    try:
        next_fingerprint, ots_signature = _decode_extra(packet.extra)
    except SimulationError:
        return False
    keypair = keypairs[position - 1]
    body = _packet_body(packet.seq, packet.block_id, packet.payload,
                        next_fingerprint)
    return (keypair.public_fingerprint() == fingerprint
            and keypair.verify(body, ots_signature))
