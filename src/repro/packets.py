"""Wire-level packet model shared by schemes and the simulator.

A :class:`Packet` is what the sender emits and the receiver consumes:
a payload plus authentication fields — carried hashes (the edges of the
dependence-graph made concrete), an optional signature, and an opaque
scheme-specific ``extra`` blob (Merkle proofs for Wong–Lam, interval /
MAC / disclosed-key fields for TESLA).

Two encodings are defined:

* :meth:`Packet.auth_bytes` — the canonical byte string that hashes and
  signatures are computed over.  It covers everything except the
  signature itself and is injective (length-prefixed fields), so a
  verified hash pins the payload *and* the hashes the packet carries,
  which is what makes hash chaining transitive.
* :meth:`Packet.to_wire` / :func:`packet_from_wire` — full
  serialization including the signature, used for byte-accurate
  overhead accounting and loopback tests.

**One encoding per packet.**  A packet is immutable, so its
``auth_bytes()`` string is computed at most once: the first call keeps
it in a private attribute that is not a dataclass field (``==``,
``hash``, ``repr`` and pickling ignore it).  Packetizing, the sender's
digest map, :meth:`Packet.to_wire`, receiver ingest and the soundness
audit all reuse that one copy.  :meth:`Packet.with_send_time` and
:meth:`Packet.with_signature` change only fields outside ``auth_bytes``
and so share it; ``dataclasses.replace`` builds a fresh packet that
encodes anew.  A decoded packet takes its encoding straight from the
wire (the bytes after the header, up to the signature blob).  That is
sound only because :func:`packet_from_wire` is canonical: it accepts
exactly the buffers ``to_wire`` produces, so the ``auth_bytes`` section
of an accepted buffer is byte for byte what the decoded fields encode
to.

A packet built by a compiled block plan
(:meth:`repro.schemes.base.BlockPlan.packetize`) is born with its
encoding and its send time: ``Packet._from_plan`` writes them in the
same pass that makes the packet, and runs no constructor.  The
constructor's checks still all hold, each run where it first can:

* when the plan is made — each vertex carries at most
  :data:`MAX_CARRIED_HASHES` hashes, of distinct vertices in the block
  other than itself;
* once per block, before anything is signed — the first sequence
  number is at least 1, the last fits 32 bits and ``0 <= block_id <
  2**32``, with the exception types the constructor raises, and the
  send times are finite;
* per packet — the payload is within :data:`MAX_BLOB_BYTES`, and each
  carried digest is non-empty and within it, checked as it is written.

The layout itself is written in one place, ``_encode_fields``, for
both paths.

A decoded packet is likewise built once, by ``Packet._from_wire``: the
parse has already bounded every id, length and count and checked the
send time, so only the checks a parse cannot make run there — ``seq
>= 1``, and each carried target at least 1, not ``seq`` and not
repeated, with a non-empty digest — in the constructor's order and
with its messages.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.exceptions import (
    HeaderFormatError,
    OverlongBlobError,
    PacketFormatError,
    SimulationError,
    TrailingBytesError,
    TruncatedPacketError,
)

__all__ = [
    "Packet",
    "packet_from_wire",
    "MAX_BLOB_BYTES",
    "MAX_CARRIED_HASHES",
    "WIRE_HEADER_SIZE",
]

_HEADER = struct.Struct(">IIQdB")  # seq, block_id, flags/reserved, send_time, has_sig
_U32 = struct.Struct(">I")
_IDS = struct.Struct(">II")           # auth_bytes' seq, block_id
_IDS_BLOB = struct.Struct(">III")     # ... plus the payload length
_PAIR = struct.Struct(">II")          # carried target, hash length
_U32_MAX = 0xFFFFFFFF

#: Hard cap on any length-prefixed field (payload, digest, extra,
#: signature).  Generous for every scheme here (the largest real blob
#: is the ~8 KB Lamport OTS) while keeping a hostile length field from
#: driving a multi-gigabyte allocation.
MAX_BLOB_BYTES = 1 << 20

#: Hard cap on the carried-hash count, bounding decode work up front.
MAX_CARRIED_HASHES = 1 << 16

#: Size of the unauthenticated wire header (everything before
#: :meth:`Packet.auth_bytes` starts).  Fault models that must corrupt
#: only *authenticated* bytes key off this offset.
WIRE_HEADER_SIZE = _HEADER.size


def _encode_fields(seq: int, block_id: int, payload: bytes,
                   carried: Tuple[Tuple[int, bytes], ...],
                   extra: bytes) -> bytes:
    """The ``auth_bytes()`` layout; the one place it is written.

    Each carried digest is checked (non-empty, under the blob cap) as
    it is written; every other length was checked by the caller.
    """
    parts = [_IDS_BLOB.pack(seq, block_id, len(payload)), payload,
             _U32.pack(len(carried))]
    for target, digest in carried:
        if not digest or len(digest) > MAX_BLOB_BYTES:
            raise _digest_error(target, digest)
        parts.append(_PAIR.pack(target, len(digest)))
        parts.append(digest)
    parts.append(_U32.pack(len(extra)))
    parts.append(extra)
    return b"".join(parts)


def _digest_error(target: int, digest: bytes) -> SimulationError:
    """Why a carried ``digest`` failed the non-empty, capped check."""
    if not digest:
        return SimulationError(f"empty hash carried for seq {target}")
    return PacketFormatError(
        f"carried hash of {len(digest)} bytes exceeds the wire cap")


def _carried_error(seq: int, carried: Tuple[Tuple[int, bytes], ...]
                   ) -> Optional[SimulationError]:
    """The first fault among a packet's carried hashes, or ``None``.

    Per pair, in order: the target is at least 1, fits 32 bits, is not
    ``seq`` itself and has not been carried before; the digest is
    non-empty and within :data:`MAX_BLOB_BYTES`.
    """
    seen = set()
    for target, digest in carried:
        if target < 1:
            return SimulationError(f"carried hash for invalid seq {target}")
        if target > _U32_MAX:
            return PacketFormatError(
                f"carried seq {target} exceeds the 32-bit wire field")
        if target == seq:
            return SimulationError("packet cannot carry its own hash")
        if target in seen:
            return SimulationError(f"duplicate carried hash for seq {target}")
        if not digest or len(digest) > MAX_BLOB_BYTES:
            return _digest_error(target, digest)
        seen.add(target)
    return None


@dataclass(frozen=True)
class Packet:
    """One multicast packet with its authentication data.

    Attributes
    ----------
    seq:
        Global send-order sequence number (1-based within a stream).
    block_id:
        Which signature-amortization block this packet belongs to.
    payload:
        Application data.
    carried:
        ``(target_seq, hash)`` pairs: the hashes of other packets this
        packet carries — the out-edges of its dependence-graph vertex.
    signature:
        Present only on ``P_sign`` (and on every packet for sign-each /
        Wong–Lam style schemes).
    extra:
        Scheme-specific opaque bytes, covered by :meth:`auth_bytes`.
    send_time:
        Simulation transmit timestamp in seconds.
    """

    seq: int
    block_id: int
    payload: bytes
    carried: Tuple[Tuple[int, bytes], ...] = ()
    signature: Optional[bytes] = None
    extra: bytes = b""
    send_time: float = 0.0

    # The cached auth_bytes() string.  Not annotated, so not a field:
    # instances that have encoded shadow it in their __dict__.
    _auth = None

    def __post_init__(self) -> None:
        self._check_ids(self.block_id, self.seq, self.seq)
        if len(self.payload) > MAX_BLOB_BYTES:
            raise PacketFormatError(
                f"payload of {len(self.payload)} bytes exceeds the wire cap")
        if len(self.extra) > MAX_BLOB_BYTES:
            raise PacketFormatError(
                f"extra blob of {len(self.extra)} bytes exceeds the wire cap")
        if self.signature is not None and len(self.signature) > MAX_BLOB_BYTES:
            raise PacketFormatError(
                f"signature of {len(self.signature)} bytes exceeds the wire cap")
        if len(self.carried) > MAX_CARRIED_HASHES:
            raise PacketFormatError(
                f"{len(self.carried)} carried hashes exceed the cap "
                f"{MAX_CARRIED_HASHES}")
        if not math.isfinite(self.send_time):
            raise PacketFormatError(
                f"send time must be finite, got {self.send_time}")
        error = _carried_error(self.seq, self.carried)
        if error is not None:
            raise error

    @staticmethod
    def _check_ids(block_id: int, first_seq: int, last_seq: int) -> None:
        """The wire-range checks on a block id and a run of sequences."""
        if first_seq < 1:
            raise SimulationError(
                f"sequence numbers are 1-based, got {first_seq}")
        if last_seq > _U32_MAX:
            raise PacketFormatError(
                f"sequence {last_seq} exceeds the 32-bit wire field")
        if block_id < 0:
            raise SimulationError(f"negative block id: {block_id}")
        if block_id > _U32_MAX:
            raise PacketFormatError(
                f"block id {block_id} exceeds the 32-bit wire field")

    @classmethod
    def _from_plan(cls, seq: int, block_id: int, payload: bytes,
                   carried: Tuple[Tuple[int, bytes], ...],
                   send_time: float) -> "Packet":
        """An unsigned packet built by a compiled block plan, encoded once.

        Trusted constructor for :meth:`repro.schemes.base.BlockPlan.packetize`:
        the plan has checked its carried targets (in the block, distinct,
        never the packet itself, within the count cap), the block's
        ``block_id`` and sequence range and that its send times are
        finite, so only the payload and digest sizes are checked here.
        The packet is born with its ``auth_bytes()`` string, written by
        the same encoder as :meth:`auth_bytes`.
        """
        if len(payload) > MAX_BLOB_BYTES:
            raise PacketFormatError(
                f"payload of {len(payload)} bytes exceeds the wire cap")
        packet = object.__new__(cls)
        # Item by item, in field order: cheaper than the frozen
        # __init__'s object.__setattr__ calls or a keyword update().
        state = packet.__dict__
        state["seq"] = seq
        state["block_id"] = block_id
        state["payload"] = payload
        state["carried"] = carried
        state["signature"] = None
        state["extra"] = b""
        state["send_time"] = send_time
        state["_auth"] = _encode_fields(seq, block_id, payload, carried, b"")
        return packet

    @classmethod
    def _from_wire(cls, seq: int, block_id: int, payload: bytes,
                   carried: Tuple[Tuple[int, bytes], ...],
                   signature: Optional[bytes], extra: bytes,
                   send_time: float, auth: bytes) -> "Packet":
        """A packet parsed by :func:`packet_from_wire`, built once.

        Trusted constructor for the decoder, which has already checked
        every id range, blob cap, the carried count and the send time.
        Only the field checks the parse cannot make run here, in the
        constructor's order: ``seq >= 1``, then each carried target
        (at least 1, not ``seq``, not repeated) and digest (non-empty).
        A failure raises :class:`HeaderFormatError` with the text the
        constructor's error would carry.  ``auth`` is the buffer's
        ``auth_bytes`` section, kept as the packet's encoding.
        """
        if seq < 1:
            # The constructor's message (``Packet._check_ids``).
            raise HeaderFormatError(
                f"invalid packet fields: sequence numbers are 1-based, "
                f"got {seq}")
        if carried:
            error = _carried_error(seq, carried)
            if error is not None:
                raise HeaderFormatError(
                    f"invalid packet fields: {error}") from error
        packet = object.__new__(cls)
        state = packet.__dict__
        state["seq"] = seq
        state["block_id"] = block_id
        state["payload"] = payload
        state["carried"] = carried
        state["signature"] = signature
        state["extra"] = extra
        state["send_time"] = send_time
        state["_auth"] = auth
        return packet

    # ------------------------------------------------------------------
    # Canonical encodings
    # ------------------------------------------------------------------

    def auth_bytes(self) -> bytes:
        """Injective encoding of all authenticated fields.

        Hashes of this packet and signatures over it are computed on
        this string.  The signature field itself is excluded (it cannot
        sign itself); everything else — including the carried hashes —
        is covered so that authenticating a packet authenticates the
        hashes it carries.  The send time is excluded too: it is
        transport metadata.  Computed on first use and kept.
        """
        auth = self._auth
        if auth is None:
            auth = self.__dict__["_auth"] = self._encode_auth()
        return auth

    def _encode_auth(self) -> bytes:
        return _encode_fields(self.seq, self.block_id, self.payload,
                              self.carried, self.extra)

    def to_wire(self) -> bytes:
        """Full serialization, signature included."""
        signature = self.signature
        return b"".join((
            _HEADER.pack(self.seq, self.block_id, 0, self.send_time,
                         0 if signature is None else 1),
            self.auth_bytes(),
            _U32.pack(0 if signature is None else len(signature)),
            signature or b"",
        ))

    def __getstate__(self) -> dict:
        # Pickle the fields only: the kept encoding is derived from them.
        state = self.__dict__
        if "_auth" in state:
            state = dict(state)
            del state["_auth"]
        return state

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------

    @property
    def overhead_bytes(self) -> int:
        """Authentication bytes carried: hashes + signature + extra.

        This is the per-packet quantity the paper's Eq. 3 averages.
        """
        total = sum(len(digest) for _, digest in self.carried)
        total += 4 * len(self.carried)  # target-seq fields
        if self.signature is not None:
            total += len(self.signature)
        total += len(self.extra)
        return total

    @property
    def is_signature_packet(self) -> bool:
        """Whether this packet carries a digital signature."""
        return self.signature is not None

    def _copy_with(self, name: str, value) -> "Packet":
        """A copy with one field outside ``auth_bytes`` changed.

        The copy shares this packet's encoding; the caller has checked
        ``value``, and no other field needs checking again.
        """
        clone = object.__new__(type(self))
        state = clone.__dict__
        state.update(self.__dict__)
        state[name] = value
        return clone

    def with_send_time(self, when: float) -> "Packet":
        """A copy stamped with a transmit time.

        Equal to ``dataclasses.replace(self, send_time=when)``, but it
        checks only ``when`` and shares this packet's encoding.
        """
        if not math.isfinite(when):
            raise PacketFormatError(f"send time must be finite, got {when}")
        return self._copy_with("send_time", when)

    def with_signature(self, signature: Optional[bytes]) -> "Packet":
        """A copy carrying ``signature``; it shares this packet's encoding.

        Equal to ``dataclasses.replace(self, signature=signature)``.
        """
        if signature is not None and len(signature) > MAX_BLOB_BYTES:
            raise PacketFormatError(
                f"signature of {len(signature)} bytes exceeds the wire cap")
        return self._copy_with("signature", signature)


def _truncated(what: str, count: int, offset: int,
               size: int) -> TruncatedPacketError:
    return TruncatedPacketError(
        f"truncated {what}: need {count} bytes at offset {offset}, "
        f"buffer holds {size - offset}")


def _blob(data: bytes, offset: int, size: int, what: str):
    """The length-prefixed blob at ``offset`` and the offset after it."""
    if offset + 4 > size:
        raise _truncated(f"{what} length", 4, offset, size)
    (length,) = _U32.unpack_from(data, offset)
    if length > MAX_BLOB_BYTES:
        raise OverlongBlobError(
            f"{what} declares {length} bytes, cap is {MAX_BLOB_BYTES}")
    offset += 4
    end = offset + length
    if end > size:
        raise _truncated(what, length, offset, size)
    return data[offset:end], end


def packet_from_wire(data: bytes) -> Packet:
    """Strictly parse a packet serialized by :meth:`Packet.to_wire`.

    The decoder is *canonical*: it accepts exactly the buffers
    :meth:`Packet.to_wire` can produce.  Reserved bits must be zero,
    the signature flag must be 0 or 1 (and 0 implies an empty
    signature blob), every declared length is capped **before** any
    allocation or loop, and no trailing bytes may remain — so a
    successful decode re-encodes to the identical input, and random
    corruption cannot alias one valid packet into another layout.
    Canonicality is also what lets the decoded packet keep the buffer's
    ``auth_bytes`` section as its encoding instead of re-encoding.

    The buffer is read in one pass of ``struct.unpack_from`` calls at a
    running offset: one for the header, one for the body ids with the
    payload length, one per carried ``(target, length)`` pair, and one
    slice per blob.

    Raises
    ------
    WireDecodeError
        With a taxonomy subtype: :class:`TruncatedPacketError`,
        :class:`HeaderFormatError`, :class:`OverlongBlobError` or
        :class:`TrailingBytesError`.  All are :class:`SimulationError`
        subclasses, so older ``except SimulationError`` sites still
        catch them.
    """
    if type(data) is not bytes:
        data = bytes(data)
    size = len(data)
    if size < WIRE_HEADER_SIZE:
        raise _truncated("packet header", WIRE_HEADER_SIZE, 0, size)
    seq, block_id, reserved, send_time, has_sig = _HEADER.unpack_from(data)
    if reserved != 0:
        raise HeaderFormatError(f"nonzero reserved field: {reserved:#x}")
    if has_sig not in (0, 1):
        raise HeaderFormatError(f"signature flag must be 0 or 1, got {has_sig}")
    if not math.isfinite(send_time):
        raise HeaderFormatError(f"non-finite send time: {send_time}")
    # The auth_bytes section repeats seq/block_id for injectivity.
    offset = WIRE_HEADER_SIZE
    if offset + _IDS_BLOB.size > size:
        # Report what a field-by-field read meets first: short ids,
        # then an id mismatch, then a short payload length.
        if offset + _IDS.size > size:
            raise _truncated("body sequence fields", _IDS.size, offset, size)
        if _IDS.unpack_from(data, offset) != (seq, block_id):
            raise HeaderFormatError("header/body sequence mismatch")
        raise _truncated("payload length", 4, offset + _IDS.size, size)
    seq2, block2, length = _IDS_BLOB.unpack_from(data, offset)
    if seq2 != seq or block2 != block_id:
        raise HeaderFormatError("header/body sequence mismatch")
    if length > MAX_BLOB_BYTES:
        raise OverlongBlobError(
            f"payload declares {length} bytes, cap is {MAX_BLOB_BYTES}")
    offset += _IDS_BLOB.size
    end = offset + length
    if end > size:
        raise _truncated("payload", length, offset, size)
    payload = data[offset:end]
    offset = end
    if offset + 4 > size:
        raise _truncated("carried-hash count", 4, offset, size)
    (count,) = _U32.unpack_from(data, offset)
    if count > MAX_CARRIED_HASHES:
        raise OverlongBlobError(
            f"{count} carried hashes declared, cap is {MAX_CARRIED_HASHES}")
    offset += 4
    carried = []
    for index in range(count):
        if offset + _PAIR.size > size:
            raise _truncated(f"carried hash #{index + 1} header", _PAIR.size,
                             offset, size)
        target, length = _PAIR.unpack_from(data, offset)
        if length > MAX_BLOB_BYTES:
            raise OverlongBlobError(
                f"carried hash #{index + 1} declares {length} bytes, cap is "
                f"{MAX_BLOB_BYTES}")
        offset += _PAIR.size
        end = offset + length
        if end > size:
            raise _truncated(f"carried hash #{index + 1}", length, offset,
                             size)
        carried.append((target, data[offset:end]))
        offset = end
    extra, auth_end = _blob(data, offset, size, "extra blob")
    signature, offset = _blob(data, auth_end, size, "signature")
    if has_sig == 0 and signature:
        raise HeaderFormatError(
            f"{len(signature)} signature bytes present but the signature "
            f"flag is clear")
    if offset != size:
        raise TrailingBytesError(
            f"{size - offset} trailing bytes after the signature blob")
    # Field validation (zero seq, duplicate carried targets, ...) is
    # folded into the decode taxonomy: a buffer that cannot yield a
    # valid Packet is undecodable, whatever the reason.
    return Packet._from_wire(seq, block_id, payload, tuple(carried),
                             signature if has_sig else None, extra,
                             send_time, data[WIRE_HEADER_SIZE:auth_end])
