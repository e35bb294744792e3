"""The sign-each baseline (paper Sec. 1's "overkill solution").

Every packet carries its own digital signature: perfect loss tolerance
(``q_i ≡ 1``), zero delay, zero buffering — and a full ``l_sign`` of
overhead plus a signature verification on every packet.  It anchors
the expensive end of every comparison and is what signature
amortization exists to avoid.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.graph import DependenceGraph
from repro.core.metrics import GraphMetrics
from repro.crypto.hashing import HashFunction, sha256
from repro.crypto.signatures import Signer
from repro.exceptions import SchemeParameterError
from repro.packets import Packet
from repro.schemes.base import PacketOutcome, Scheme, Trial, Verifier

__all__ = ["SignEachScheme", "IndividualVerifier", "verify_sign_each_packet"]


class SignEachScheme(Scheme):
    """One signature per packet; no amortization at all."""

    individually_verifiable = True

    @property
    def name(self) -> str:
        return "sign-each"

    def build_graph(self, n: int) -> Optional[DependenceGraph]:
        """No dependences: every packet is its own ``P_sign``."""
        if n < 1:
            raise SchemeParameterError(f"block size must be >= 1, got {n}")
        return None

    def make_block(self, payloads: Sequence[bytes], signer: Signer,
                   hash_function: HashFunction = sha256,
                   block_id: int = 0, base_seq: int = 1) -> List[Packet]:
        """Sign every payload independently."""
        if not payloads:
            raise SchemeParameterError("empty block")
        packets = []
        for index, payload in enumerate(payloads):
            unsigned = Packet(
                seq=base_seq + index,
                block_id=block_id,
                payload=bytes(payload),
            )
            packets.append(unsigned.with_signature(
                signer.sign(unsigned.auth_bytes())))
        return packets

    def new_trial(self, signer: Signer, block_size: int, blocks: int, *,
                  hash_function: HashFunction = sha256,
                  t_transmit: float = 0.01,
                  seed: Optional[int] = None) -> Trial:
        """Signed blocks, every packet checked on its own."""
        packets, positions = self._send_blocks(signer, block_size, blocks,
                                               hash_function, t_transmit)
        check = partial(verify_sign_each_packet, signer=signer)
        return Trial(packets, positions,
                     partial(IndividualVerifier, check, hash_function))

    def metrics(self, n: int, l_sign: int = 128, l_hash: int = 16,
                sign_copies: int = 1) -> GraphMetrics:
        """Analytic metrics: one signature per packet, nothing else."""
        if n < 1:
            raise SchemeParameterError(f"block size must be >= 1, got {n}")
        return GraphMetrics(
            n=n,
            edge_count=0,
            mean_hashes=0.0,
            overhead_bytes=float(l_sign),
            message_buffer=0,
            hash_buffer=0,
            delay_slots=0,
        )


def verify_sign_each_packet(packet: Packet, signer: Signer) -> bool:
    """Verify a sign-each packet in isolation."""
    if packet.signature is None:
        return False
    # auth_bytes excludes the signature: it is what was signed.
    return signer.verify(packet.auth_bytes(), packet.signature)


class IndividualVerifier(Verifier):
    """Verifier for individually verifiable schemes (sign-each, Wong–Lam).

    ``check(packet)`` decides each packet on its own, with zero delay.
    The first packet to arrive under a sequence number makes its
    record; a later copy of its content, or of the content that
    verified there, is a replay.  Any other packet is a forgery unless
    the slot has not verified yet and it passes ``check``: a packet
    that failed its check leaves the slot claimable, so a forgery that
    arrives first cannot lock the genuine packet out.
    """

    def __init__(self, check: Callable[[Packet], bool],
                 hash_function: HashFunction = sha256) -> None:
        super().__init__(hash_function)
        self._check = check
        # seq -> (digest of the first arrival, the slot's record)
        self._decided: Dict[int, Tuple[bytes, PacketOutcome]] = {}
        self._accepted: Dict[int, bytes] = {}

    def receive(self, packet: Packet, arrival_time: float) -> bool:
        """Decide ``packet``; ``True`` when it verified."""
        seq = packet.seq
        digest = self.content_digest(packet)
        decided = self._decided.get(seq)
        if decided is not None:
            first, outcome = decided
            if digest == first or digest == self._accepted.get(seq):
                self.replays_dropped += 1
                return False
            if outcome.verified or not self._check(packet):
                self.forged_rejected += 1
                return False
            # The first arrival failed its check: this packet takes the
            # slot, keeping the record's forged flag.
            self._decided[seq] = (first, PacketOutcome(
                seq, arrival_time, verified=True, forged=True,
                verified_time=arrival_time))
            self._accepted[seq] = digest
            return True
        ok = self._check(packet)
        self._decided[seq] = (digest, PacketOutcome(
            seq, arrival_time, verified=ok, forged=not ok,
            verified_time=arrival_time if ok else None))
        if ok:
            self._accepted[seq] = digest
        else:
            self.forged += 1
            self.forged_rejected += 1
        return ok

    def verdict(self, seq: int) -> Optional[PacketOutcome]:
        decided = self._decided.get(seq)
        return None if decided is None else decided[1]

    def accepted_digests(self) -> Dict[int, bytes]:
        return self._accepted
