"""The Wong–Lam authentication tree (paper Sec. 2.2).

Packet hashes form the leaves of a Merkle tree whose root is signed;
every packet carries the root signature and its own authentication
path.  Each received packet verifies in isolation, so ``q_i ≡ 1``
regardless of loss, with zero receiver delay and no buffering — paid
for with ``l_sign + ceil(log2 n)·l_hash`` bytes of overhead on *every*
packet, the "high amount of overhead" the paper calls out.

There is no inter-packet dependence to draw, so :meth:`build_graph`
returns ``None`` and the metrics are computed analytically.  As a
dependence graph every vertex is a ``P_sign`` checked through its
Merkle path, so the hash-chain receiver verifies it with that check
(:class:`~repro.schemes.base.ChainEdges`).
"""

from __future__ import annotations

import math
import struct
from functools import partial
from typing import Dict, Optional, Sequence

from repro.core.graph import DependenceGraph
from repro.core.metrics import GraphMetrics
from repro.crypto.hashing import HashFunction, sha256
from repro.crypto.merkle import MerkleProof, MerkleTree
from repro.crypto.signatures import Signer
from repro.exceptions import SchemeParameterError, VerificationError
from repro.packets import Packet
from repro.schemes.base import Block, ChainEdges, Scheme, Trial, stamp

__all__ = ["WongLamScheme", "encode_proof", "decode_proof", "verify_wong_lam_packet"]

_U16 = struct.Struct(">H")


def encode_proof(proof: MerkleProof, root: bytes, hash_size: int) -> bytes:
    """Serialize (root, authentication path) into a packet's ``extra``."""
    parts = [_U16.pack(len(root)), root, _U16.pack(len(proof.siblings))]
    for sibling, is_left in proof.siblings:
        if len(sibling) != hash_size:
            raise VerificationError("sibling hash of unexpected size")
        parts.append(b"\x01" if is_left else b"\x00")
        parts.append(sibling)
    return b"".join(parts)


def decode_proof(extra: bytes, leaf_index: int,
                 hash_size: int) -> "tuple[bytes, MerkleProof]":
    """Parse the ``extra`` blob written by :func:`encode_proof`."""
    try:
        (root_len,) = _U16.unpack_from(extra, 0)
        offset = 2
        root = extra[offset:offset + root_len]
        if len(root) != root_len:
            raise VerificationError("truncated Merkle root")
        offset += root_len
        (count,) = _U16.unpack_from(extra, offset)
        offset += 2
        siblings = []
        for _ in range(count):
            flag = extra[offset:offset + 1]
            if flag not in (b"\x00", b"\x01"):
                raise VerificationError("malformed sibling flag")
            offset += 1
            sibling = extra[offset:offset + hash_size]
            if len(sibling) != hash_size:
                raise VerificationError("truncated sibling hash")
            offset += hash_size
            siblings.append((sibling, flag == b"\x01"))
    except struct.error as exc:
        raise VerificationError(f"malformed proof blob: {exc}") from exc
    return root, MerkleProof(leaf_index=leaf_index, siblings=tuple(siblings))


class WongLamScheme(Scheme):
    """Individually-verifiable tree-signed blocks.

    Parameters
    ----------
    hash_function:
        Hash used for tree nodes and proofs.
    """

    individually_verifiable = True

    def __init__(self, hash_function: HashFunction = sha256) -> None:
        self.hash_function = hash_function

    @property
    def name(self) -> str:
        return "wong-lam"

    def build_graph(self, n: int) -> Optional[DependenceGraph]:
        """No inter-packet dependences: every packet stands alone."""
        if n < 1:
            raise SchemeParameterError(f"block size must be >= 1, got {n}")
        return None

    def make_block(self, payloads: Sequence[bytes], signer: Signer,
                   hash_function: Optional[HashFunction] = None,
                   block_id: int = 0, base_seq: int = 1, *,
                   start: float = 0.0, t_transmit: float = 0.0) -> Block:
        """Build packets each carrying the signed root and its own proof.

        The tree's leaves are the payloads under their sequence
        numbers (:func:`_leaf`); each packet's ``extra`` holds the root
        and its authentication path, and every packet carries the root
        signature (``signature`` field), making it self-contained.
        """
        if not payloads:
            raise SchemeParameterError("empty block")
        hash_function = hash_function or self.hash_function
        tree = MerkleTree([_leaf(base_seq + index, block_id, bytes(payload))
                           for index, payload in enumerate(payloads)],
                          hash_function)
        signature = signer.sign(tree.root)
        packets = []
        for index, payload in enumerate(payloads):
            extra = encode_proof(tree.proof(index), tree.root,
                                 hash_function.digest_size)
            packets.append(Packet(seq=base_seq + index, block_id=block_id,
                                  payload=bytes(payload), signature=signature,
                                  extra=extra))
        return Block(stamp(packets, start, t_transmit),
                     [hash_function.digest(packet.auth_bytes())
                      for packet in packets])

    def new_trial(self, signer: Signer, block_size: int, blocks: int, *,
                  hash_function: HashFunction = sha256,
                  t_transmit: float = 0.01,
                  seed: Optional[int] = None) -> Trial:
        """Tree-signed blocks, every packet checked on its own."""
        from repro.simulation.receiver import ChainReceiver

        packets, positions, digests = self._send_blocks(
            signer, block_size, blocks, hash_function, t_transmit)
        bases: Dict[int, int] = {}
        for packet in packets:
            bases.setdefault(packet.block_id, packet.seq)
        edges = ChainEdges(signed=partial(
            _verify_in_stream, signer=signer, hash_function=hash_function,
            bases=bases))
        return Trial(packets, positions,
                     partial(ChainReceiver, signer, hash_function,
                             edges=edges), digests)

    def metrics(self, n: int, l_sign: int = 128, l_hash: int = 16,
                sign_copies: int = 1) -> GraphMetrics:
        """Analytic metrics: proof depth hashes + a signature per packet.

        ``sign_copies`` is ignored — every packet already repeats the
        signature.
        """
        if n < 1:
            raise SchemeParameterError(f"block size must be >= 1, got {n}")
        depth = math.ceil(math.log2(n)) if n > 1 else 0
        return GraphMetrics(
            n=n,
            edge_count=0,
            mean_hashes=float(depth),
            overhead_bytes=float(l_sign + depth * l_hash),
            message_buffer=0,
            hash_buffer=0,
            delay_slots=0,
        )


def verify_wong_lam_packet(packet: Packet, signer: Signer,
                           hash_function: HashFunction = sha256,
                           block_base_seq: int = 1) -> bool:
    """Receiver-side verification of a Wong–Lam packet in isolation.

    Checks the root signature, then the authentication path from the
    payload under ``packet.seq`` to the root.  Returns ``False`` on any
    mismatch or malformed proof.
    """
    if packet.signature is None:
        return False
    leaf_index = packet.seq - block_base_seq
    if leaf_index < 0:
        return False
    try:
        root, proof = decode_proof(packet.extra, leaf_index,
                                   hash_function.digest_size)
    except VerificationError:
        return False
    if not signer.verify(root, packet.signature):
        return False
    leaf = _leaf(packet.seq, packet.block_id, packet.payload)
    return MerkleTree.verify_static(leaf, proof, root, hash_function)


def _leaf(seq: int, block_id: int, payload: bytes) -> bytes:
    """A Merkle leaf: the payload bound to its seq and block."""
    return Packet(seq, block_id, payload).auth_bytes()


def _verify_in_stream(packet: Packet, signer: Signer,
                      hash_function: HashFunction,
                      bases: Dict[int, int]) -> bool:
    """:func:`verify_wong_lam_packet` at the base sequence of its block."""
    base = bases.get(packet.block_id)
    return base is not None and verify_wong_lam_packet(
        packet, signer, hash_function, block_base_seq=base)
