"""Batch signing: one signature amortized over many block digests.

The paper's chain constructions amortize a signature *inside* a block;
MABS (Multicast Authentication based on Batch Signature, PAPERS.md)
amortizes *across* blocks: accumulate the digests of N pending blocks,
build a :class:`~repro.crypto.merkle.MerkleTree` over them, sign the
root once, and attach to every block a compact proof — its Merkle
authentication path plus the shared root signature.  Verifying N
blocks then costs N cheap hash walks and a *single* public-key
verification (cached), instead of N signatures.

Three moving parts:

* :class:`BatchSigner` — the sender-side accumulator.  ``append``
  collects leaf messages (a block's ``auth_bytes``); ``flush`` builds
  the tree, signs the domain-separated ``(leaf_count, root)`` message
  with the wrapped signer and returns one encoded
  :class:`BatchAttachment` per leaf, in append order.
* :class:`BatchVerifier` — a :class:`~repro.crypto.signatures.Signer`-
  protocol verifier that recognizes batch attachments by magic prefix,
  recomputes the root from the message and the proof, and checks the
  root signature through a bounded ``(root, signature)`` cache so a
  whole batch costs one real verification.  Non-batch signatures go to
  the wrapped signer through a second bounded map keyed on the exact
  ``(message, signature)`` pair, so the same verifier serves batched
  and per-block senders and a shared instance verifies each distinct
  plain signature once.
* the wire codec — a strict, size-capped, *canonical* encoding of the
  attachment.  Every structural fact (sibling count, side bits) is
  recomputed from ``(leaf_index, leaf_count)`` and must match exactly,
  so each attachment has exactly one valid byte form and any single-bit
  mutation is rejected, raising through the existing
  :class:`~repro.exceptions.WireDecodeError` taxonomy.

:class:`StreamBatchSigner` adapts the construction to harnesses that
need a synchronous drop-in ``Signer``: each ``sign`` call embeds the
message in a deterministic ``batch_size``-leaf tree (the other leaves
standing in for concurrent streams' block digests, derived from the
seed and the message so sharded trials stay bit-for-bit identical).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.crypto.hashing import HashFunction, sha256
from repro.crypto.merkle import MerkleProof, MerkleTree
from repro.crypto.signatures import Signer
from repro.exceptions import (
    CryptoError,
    HeaderFormatError,
    OverlongBlobError,
    TrailingBytesError,
    TruncatedPacketError,
)

__all__ = [
    "BATCH_MAGIC",
    "MAX_PROOF_SIBLINGS",
    "MAX_BATCH_LEAVES",
    "BatchAttachment",
    "encode_batch_attachment",
    "decode_batch_attachment",
    "is_batch_attachment",
    "batch_attachment_size",
    "expected_proof_sides",
    "BatchSigner",
    "BatchVerifier",
    "StreamBatchSigner",
]

#: First bytes of every encoded batch attachment.  Verifiers route on
#: it: anything else is handed to the wrapped signer unchanged.
BATCH_MAGIC = b"BSG\x01"

#: Hard cap on the authentication-path length — a 2^32-leaf tree needs
#: 32 siblings, so nothing legitimate ever exceeds it and a hostile
#: count cannot drive unbounded decode work.
MAX_PROOF_SIBLINGS = 32

#: Hard cap on the declared leaf count (matches the proof-sibling cap).
MAX_BATCH_LEAVES = 1 << MAX_PROOF_SIBLINGS

#: Hash sizes accepted on the wire (sha256 .. sha512 and truncations).
_MAX_HASH_BYTES = 64

#: Root-signature blob cap, aligned with the packet wire cap.
_MAX_ROOT_SIG_BYTES = 1 << 20

#: Domain separator for root signatures: a batch root can never be
#: confused with a directly signed block digest.
_ROOT_DOMAIN = b"repro-batch-root-v1:"

_U32 = struct.Struct(">I")


def _root_message(leaf_count: int, root: bytes) -> bytes:
    """The byte string a batch root signature actually covers.

    The declared leaf count is bound into the signature: two different
    counts can describe the *same* proof structure for one leaf (e.g.
    a leaf at index 2 of 5 and of 7 walk identical side sequences), so
    a count left outside the signed message would be malleable.
    """
    return _ROOT_DOMAIN + _U32.pack(leaf_count) + root


@dataclass(frozen=True)
class BatchAttachment:
    """One block's share of a batch signature.

    ``leaf_index`` / ``leaf_count`` locate the block's digest in the
    signed tree, ``proof`` is its authentication path and
    ``root_signature`` the wrapped signer's signature over the
    domain-separated root (shared by every attachment of the batch).
    """

    leaf_index: int
    leaf_count: int
    proof: MerkleProof
    root_signature: bytes

    @property
    def size_bytes(self) -> int:
        """Encoded wire size of this attachment."""
        return (len(BATCH_MAGIC) + 4 + 4 + 1
                + sum(1 + 1 + len(h) for h, _ in self.proof.siblings)
                + 4 + len(self.root_signature))


def expected_proof_sides(leaf_index: int,
                         leaf_count: int) -> Tuple[bool, ...]:
    """The canonical side-flag sequence for a leaf's authentication path.

    Recomputed purely from ``(leaf_index, leaf_count)`` by replaying
    the tree shape (odd nodes promote unchanged, exactly like
    :class:`~repro.crypto.merkle.MerkleTree`): one entry per level
    where the node *has* a sibling, ``True`` when the sibling sits on
    the left.  Decode validates an attachment's structure against this,
    which makes the encoding canonical and any bit flip in the index,
    count or side bytes detectable.
    """
    if not 0 <= leaf_index < leaf_count:
        raise CryptoError(
            f"leaf index {leaf_index} out of range [0, {leaf_count})")
    sides: List[bool] = []
    index, size = leaf_index, leaf_count
    while size > 1:
        sibling = index ^ 1
        if sibling < size:
            sides.append(sibling < index)
        index //= 2
        size = size // 2 + size % 2
    return tuple(sides)


def batch_attachment_size(batch_size: int, hash_size: int,
                          signature_size: int) -> int:
    """Nominal encoded size of an attachment for a full batch."""
    sides = expected_proof_sides(0, max(batch_size, 1))
    return (len(BATCH_MAGIC) + 4 + 4 + 1
            + len(sides) * (1 + 1 + hash_size)
            + 4 + signature_size)


def encode_batch_attachment(attachment: BatchAttachment) -> bytes:
    """Serialize an attachment into its canonical wire form."""
    sides = expected_proof_sides(attachment.leaf_index,
                                 attachment.leaf_count)
    siblings = attachment.proof.siblings
    if len(siblings) != len(sides) or any(
            got != want for (_, got), want in zip(siblings, sides)):
        raise CryptoError(
            "proof structure does not match (leaf_index, leaf_count)")
    if len(attachment.root_signature) > _MAX_ROOT_SIG_BYTES:
        raise CryptoError("root signature exceeds the wire cap")
    parts = [BATCH_MAGIC,
             _U32.pack(attachment.leaf_index),
             _U32.pack(attachment.leaf_count),
             bytes([len(siblings)])]
    for digest, sibling_is_left in siblings:
        if not 1 <= len(digest) <= _MAX_HASH_BYTES:
            raise CryptoError(
                f"sibling hash of {len(digest)} bytes outside [1, "
                f"{_MAX_HASH_BYTES}]")
        parts.append(bytes([1 if sibling_is_left else 0, len(digest)]))
        parts.append(digest)
    parts.append(_U32.pack(len(attachment.root_signature)))
    parts.append(attachment.root_signature)
    return b"".join(parts)


def is_batch_attachment(blob: Optional[bytes]) -> bool:
    """Whether ``blob`` claims to be a batch attachment (magic prefix)."""
    return blob is not None and blob.startswith(BATCH_MAGIC)


class _Cursor:
    """Strict forward-only reader over an attachment buffer."""

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.offset = 0

    def take(self, count: int, what: str) -> bytes:
        end = self.offset + count
        if end > len(self.data):
            raise TruncatedPacketError(
                f"batch attachment truncated reading {what}: need "
                f"{count} bytes at offset {self.offset}, have "
                f"{len(self.data) - self.offset}")
        piece = self.data[self.offset:end]
        self.offset = end
        return piece


def decode_batch_attachment(data: bytes) -> BatchAttachment:
    """Strict canonical decode; raises the ``WireDecodeError`` taxonomy.

    Every declared length is capped before allocation, the sibling
    structure must match :func:`expected_proof_sides` exactly, and no
    trailing bytes are tolerated — so encode/decode round-trips
    canonically and a decoded attachment re-encodes to the same bytes.
    """
    cursor = _Cursor(data)
    magic = cursor.take(len(BATCH_MAGIC), "magic")
    if magic != BATCH_MAGIC:
        raise HeaderFormatError(
            f"bad batch-attachment magic {magic!r}")
    leaf_index = _U32.unpack(cursor.take(4, "leaf index"))[0]
    leaf_count = _U32.unpack(cursor.take(4, "leaf count"))[0]
    if leaf_count < 1 or leaf_count > MAX_BATCH_LEAVES:
        raise HeaderFormatError(
            f"batch leaf count {leaf_count} outside [1, {MAX_BATCH_LEAVES}]")
    if leaf_index >= leaf_count:
        raise HeaderFormatError(
            f"batch leaf index {leaf_index} >= leaf count {leaf_count}")
    sides = expected_proof_sides(leaf_index, leaf_count)
    sibling_count = cursor.take(1, "sibling count")[0]
    if sibling_count > MAX_PROOF_SIBLINGS:
        raise OverlongBlobError(
            f"proof declares {sibling_count} siblings, cap is "
            f"{MAX_PROOF_SIBLINGS}")
    if sibling_count != len(sides):
        raise HeaderFormatError(
            f"proof declares {sibling_count} siblings; a leaf at "
            f"{leaf_index}/{leaf_count} has exactly {len(sides)}")
    siblings: List[Tuple[bytes, bool]] = []
    hash_size: Optional[int] = None
    for level, expected_side in enumerate(sides):
        side_byte, length = cursor.take(2, f"sibling {level} header")
        if side_byte not in (0, 1):
            raise HeaderFormatError(
                f"sibling {level} side byte must be 0 or 1, got {side_byte}")
        if bool(side_byte) != expected_side:
            raise HeaderFormatError(
                f"sibling {level} side contradicts leaf position "
                f"{leaf_index}/{leaf_count}")
        if not 1 <= length <= _MAX_HASH_BYTES:
            raise OverlongBlobError(
                f"sibling {level} hash declares {length} bytes, outside "
                f"[1, {_MAX_HASH_BYTES}]")
        if hash_size is None:
            hash_size = length
        elif length != hash_size:
            raise HeaderFormatError(
                f"sibling {level} hash size {length} differs from the "
                f"proof's {hash_size}")
        siblings.append((cursor.take(length, f"sibling {level} hash"),
                         bool(side_byte)))
    sig_length = _U32.unpack(cursor.take(4, "root signature length"))[0]
    if sig_length > _MAX_ROOT_SIG_BYTES:
        raise OverlongBlobError(
            f"root signature declares {sig_length} bytes, cap is "
            f"{_MAX_ROOT_SIG_BYTES}")
    root_signature = cursor.take(sig_length, "root signature")
    if cursor.offset != len(data):
        raise TrailingBytesError(
            f"{len(data) - cursor.offset} trailing bytes after batch "
            f"attachment")
    return BatchAttachment(
        leaf_index=leaf_index, leaf_count=leaf_count,
        proof=MerkleProof(leaf_index=leaf_index, siblings=tuple(siblings)),
        root_signature=root_signature)


class BatchSigner:
    """Sender-side batch accumulator: N block digests, one signature.

    Parameters
    ----------
    signer:
        The real signer; its one signature per flush covers every
        appended message.
    hash_function:
        Tree hash; must match the verifier's.
    """

    def __init__(self, signer: Signer,
                 hash_function: HashFunction = sha256) -> None:
        self._signer = signer
        self._hash = hash_function
        self._messages: List[bytes] = []
        self.signs = 0
        self.last_root: Optional[bytes] = None

    @property
    def pending(self) -> int:
        """Messages appended since the last flush."""
        return len(self._messages)

    def append(self, message: bytes) -> int:
        """Queue one leaf message; returns its index in the open batch."""
        self._messages.append(bytes(message))
        return len(self._messages) - 1

    def flush(self) -> List[bytes]:
        """Sign the pending batch; encoded attachments in append order.

        Returns an empty list when nothing is pending.  The underlying
        signer runs exactly once per non-empty flush.
        """
        if not self._messages:
            return []
        tree = MerkleTree(self._messages, self._hash)
        count = len(self._messages)
        root_signature = self._signer.sign(_root_message(count, tree.root))
        self.signs += 1
        self.last_root = tree.root
        attachments = [
            encode_batch_attachment(BatchAttachment(
                leaf_index=index, leaf_count=count,
                proof=tree.proof(index), root_signature=root_signature))
            for index in range(count)
        ]
        self._messages = []
        return attachments


class BatchVerifier:
    """Signer-protocol verifier for batch attachments (and passthrough).

    ``verify`` routes on the magic prefix: batch attachments are
    strictly decoded, the root recomputed from the message's leaf hash
    and the proof, and the root signature checked through a bounded
    cache keyed on ``(leaf_count, root, signature)`` — so the N blocks
    of a batch cost one real public-key verification.  Caching the
    exact triple (not the root alone) keeps a tampered signature or
    count from poisoning the verdict of the genuine one.

    Everything that is not a batch attachment is a plain signature for
    the wrapped signer, whose verdict is a pure function of the exact
    ``(message, signature)`` bytes; a second bounded map keyed on that
    pair lets a pool of receivers sharing one verifier pay one real
    verification per distinct signed frame.  The two maps share the
    ``max_cached_roots`` bound but not their slots, so plain traffic
    (forged signatures included) can never evict a root verdict and
    move ``root_verifies``.  ``sign`` is intentionally refused — this
    is the public half.
    """

    def __init__(self, signer: Signer,
                 hash_function: HashFunction = sha256,
                 max_cached_roots: int = 1024) -> None:
        if max_cached_roots < 1:
            raise CryptoError(
                f"need a positive root cache, got {max_cached_roots}")
        self._signer = signer
        self._hash = hash_function
        self._max_cached = max_cached_roots
        self._cache: Dict[Tuple[int, bytes, bytes], bool] = {}
        self._plain: Dict[Tuple[bytes, bytes], bool] = {}
        self.name = f"batch+{signer.name}"
        self.signature_size = signer.signature_size
        self.root_verifies = 0
        self.cache_hits = 0
        self.decode_failures = 0
        self.proof_failures = 0
        self.passthrough_verifies = 0
        self.passthrough_cache_hits = 0

    def sign(self, message: bytes) -> bytes:
        raise CryptoError("BatchVerifier is verify-only; sign with a "
                          "BatchSigner")

    def verify(self, message: bytes, signature: bytes) -> bool:
        if signature is None:
            return False
        if not is_batch_attachment(signature):
            self.passthrough_verifies += 1
            key = (message, signature)
            verdict = self._plain.get(key)
            if verdict is None:
                verdict = self._signer.verify(message, signature)
                self._remember(self._plain, key, verdict)
            else:
                self.passthrough_cache_hits += 1
            return verdict
        try:
            attachment = decode_batch_attachment(signature)
        except Exception:
            self.decode_failures += 1
            return False
        root = self._walk(message, attachment.proof)
        key = (attachment.leaf_count, root, attachment.root_signature)
        verdict = self._cache.get(key)
        if verdict is None:
            verdict = self._signer.verify(
                _root_message(attachment.leaf_count, root),
                attachment.root_signature)
            self.root_verifies += 1
            self._remember(self._cache, key, verdict)
        else:
            self.cache_hits += 1
        if not verdict:
            self.proof_failures += 1
        return verdict

    def _remember(self, cache: dict, key: tuple, verdict: bool) -> None:
        """Store ``verdict``, evicting the oldest entry when ``cache`` is full."""
        if len(cache) >= self._max_cached:
            cache.pop(next(iter(cache)))
        cache[key] = verdict

    def _walk(self, leaf: bytes, proof: MerkleProof) -> bytes:
        current = self._hash.digest(b"\x00" + leaf)
        for sibling, sibling_is_left in proof.siblings:
            if sibling_is_left:
                current = self._hash.digest(b"\x01" + sibling + current)
            else:
                current = self._hash.digest(b"\x01" + current + sibling)
        return current


class StreamBatchSigner:
    """Drop-in ``Signer`` modelling one stream's slice of a batch.

    Harnesses like the adversarial conformance runner need a
    synchronous ``sign``: the signature must come back before the next
    packet is built, so cross-call accumulation is impossible without
    breaking their per-trial determinism contract.  This adapter signs
    each message as one leaf of a ``batch_size``-leaf tree whose other
    leaves stand in for concurrent streams' block digests — exactly the
    multi-stream scenario MABS batches across — derived from the seed
    and the message itself, so the output is a pure function of
    ``(seed, message)`` and sharded trials remain bit-for-bit
    reproducible.

    The attachments exercise the full receive path (strict decode,
    proof walk, domain-separated root signature, caching); only the
    sender-side amortization is synthetic.
    """

    def __init__(self, signer: Signer, batch_size: int, seed: int = 0,
                 hash_function: HashFunction = sha256) -> None:
        if batch_size < 1:
            raise CryptoError(f"batch size must be >= 1, got {batch_size}")
        self._signer = signer
        self._hash = hash_function
        self.batch_size = batch_size
        self._seed_bytes = b"stream-batch:%d:" % seed
        self._verifier = BatchVerifier(signer, hash_function)
        self.name = f"batch{batch_size}+{signer.name}"
        self.signature_size = batch_attachment_size(
            batch_size, hash_function.digest_size, signer.signature_size)

    def sign(self, message: bytes) -> bytes:
        anchor = self._hash.digest(self._seed_bytes + message)
        position = anchor[0] % self.batch_size
        leaves: List[bytes] = []
        for slot in range(self.batch_size - 1):
            leaves.append(self._hash.digest(
                self._seed_bytes + anchor + b"%d" % slot))
        leaves.insert(position, message)
        tree = MerkleTree(leaves, self._hash)
        root_signature = self._signer.sign(
            _root_message(self.batch_size, tree.root))
        return encode_batch_attachment(BatchAttachment(
            leaf_index=position, leaf_count=self.batch_size,
            proof=tree.proof(position), root_signature=root_signature))

    def verify(self, message: bytes, signature: bytes) -> bool:
        return self._verifier.verify(message, signature)

    @property
    def verifier(self) -> BatchVerifier:
        """The verifier half (cache statistics live here)."""
        return self._verifier
