"""The sign-each baseline (paper Sec. 1's "overkill solution").

Every packet carries its own digital signature: perfect loss tolerance
(``q_i ≡ 1``), zero delay, zero buffering — and a full ``l_sign`` of
overhead plus a signature verification on every packet.  It anchors
the expensive end of every comparison and is what signature
amortization exists to avoid.

As a dependence graph it is the graph in which every vertex is a
``P_sign``.  Its packets are signed over
:meth:`~repro.packets.Packet.auth_bytes`, which is the hash-chain
receiver's default signature check, so
:class:`~repro.simulation.receiver.ChainReceiver` verifies it as it
stands: the inherited :meth:`~repro.schemes.base.Scheme.new_trial`
pairs the packets with it.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.graph import DependenceGraph
from repro.core.metrics import GraphMetrics
from repro.crypto.hashing import HashFunction, sha256
from repro.crypto.signatures import Signer
from repro.exceptions import SchemeParameterError
from repro.packets import Packet
from repro.schemes.base import Block, Scheme, stamp

__all__ = ["SignEachScheme"]


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
                   block_id: int = 0, base_seq: int = 1, *,
                   start: float = 0.0, t_transmit: float = 0.0) -> Block:
        """Sign every payload independently."""
        if not payloads:
            raise SchemeParameterError("empty block")
        packets = []
        digests = []
        for index, payload in enumerate(payloads):
            unsigned = Packet(seq=base_seq + index, block_id=block_id,
                              payload=bytes(payload))
            auth = unsigned.auth_bytes()
            packets.append(unsigned.with_signature(signer.sign(auth)))
            digests.append(hash_function.digest(auth))
        return Block(stamp(packets, start, t_transmit), digests)

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

