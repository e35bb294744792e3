"""Property fuzz: the strict wire decoder is total and canonical.

Three invariants over arbitrary and adversarially mutated buffers:

* **totality** — ``packet_from_wire`` either returns a valid packet or
  raises :class:`WireDecodeError`; nothing else ever escapes;
* **canonicality** — any buffer that decodes re-encodes to *exactly*
  itself, so corruption can never alias one valid packet into a
  different wire layout;
* **round trip** — every constructible packet survives
  ``decode(encode(p)) == p``.

Mutations mirror the fault models: random byte flips, truncation,
extension, and splices of two valid packets.

Two more properties ride on the same buffers.  A decoded packet keeps
the buffer's ``auth_bytes`` section as its encoding, so every accepted
buffer must yield a packet whose ``auth_bytes()`` equals that of the
same fields encoded afresh (**cache soundness**).  And the one-pass
decoder must agree with :func:`packet_from_wire_reference`, the older
field-by-field decoder kept here as a test-only oracle, on accept or
reject, on the exception subtype and on the decoded packet
(**differential**).
"""

import math
import pickle
import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import (
    HeaderFormatError,
    OverlongBlobError,
    PacketFormatError,
    SimulationError,
    TrailingBytesError,
    TruncatedPacketError,
    WireDecodeError,
)
from repro.packets import (
    MAX_BLOB_BYTES,
    MAX_CARRIED_HASHES,
    WIRE_HEADER_SIZE,
    Packet,
    packet_from_wire,
)

_digests = st.binary(min_size=1, max_size=48)

_REF_HEADER = struct.Struct(">IIQdB")
_REF_U32 = struct.Struct(">I")


def _take(data, offset, count, what):
    end = offset + count
    if end > len(data):
        raise TruncatedPacketError(
            f"truncated {what}: need {count} bytes at offset {offset}")
    return bytes(data[offset:end]), end


def _take_u32(data, offset, what):
    raw, end = _take(data, offset, 4, what)
    return _REF_U32.unpack(raw)[0], end


def _take_blob(data, offset, what):
    length, offset = _take_u32(data, offset, f"{what} length")
    if length > MAX_BLOB_BYTES:
        raise OverlongBlobError(f"{what} declares {length} bytes")
    return _take(data, offset, length, what)


def packet_from_wire_reference(data):
    """The field-by-field strict decoder: one ``_take`` per field.

    Test-only oracle for :func:`repro.packets.packet_from_wire`, which
    must accept the same buffers, raise the same subtypes in the same
    order of checks and decode the same packets.
    """
    header, offset = _take(data, 0, _REF_HEADER.size, "packet header")
    seq, block_id, reserved, send_time, has_sig = _REF_HEADER.unpack(header)
    if reserved != 0:
        raise HeaderFormatError("nonzero reserved field")
    if has_sig not in (0, 1):
        raise HeaderFormatError("signature flag must be 0 or 1")
    if not math.isfinite(send_time):
        raise HeaderFormatError("non-finite send time")
    body_ids, offset = _take(data, offset, 8, "body sequence fields")
    if struct.unpack(">II", body_ids) != (seq, block_id):
        raise HeaderFormatError("header/body sequence mismatch")
    payload, offset = _take_blob(data, offset, "payload")
    carried_count, offset = _take_u32(data, offset, "carried-hash count")
    if carried_count > MAX_CARRIED_HASHES:
        raise OverlongBlobError("too many carried hashes")
    carried = []
    for index in range(carried_count):
        target, offset = _take_u32(data, offset, "carried target")
        digest, offset = _take_blob(data, offset, "carried hash")
        carried.append((target, digest))
    extra, offset = _take_blob(data, offset, "extra blob")
    signature, offset = _take_blob(data, offset, "signature")
    if has_sig == 0 and signature:
        raise HeaderFormatError("signature bytes with the flag clear")
    if offset != len(data):
        raise TrailingBytesError("trailing bytes")
    try:
        return Packet(seq=seq, block_id=block_id, payload=payload,
                      carried=tuple(carried),
                      signature=signature if has_sig else None,
                      extra=extra, send_time=send_time)
    except WireDecodeError:
        raise
    except SimulationError as exc:
        raise HeaderFormatError(f"invalid packet fields: {exc}") from exc


def _outcome(decode, blob):
    """``("ok", packet)`` or ``("reject", exception type)``.

    Totality harness too: anything but WireDecodeError escapes and fails
    the test.
    """
    try:
        return "ok", decode(blob)
    except WireDecodeError as exc:
        return "reject", type(exc)


def _check_decode(blob):
    """Differential and cache-soundness checks on one buffer.

    Returns the decoded packet, or ``None`` when both decoders reject.
    """
    got = _outcome(packet_from_wire, blob)
    assert got == _outcome(packet_from_wire_reference, blob)
    kind, decoded = got
    if kind == "reject":
        return None
    # The kept encoding is what the fields encode to afresh, and the
    # packet re-frames to the very buffer it came from.
    assert decoded.auth_bytes() == replace(decoded).auth_bytes()
    assert decoded.to_wire() == blob
    return decoded


@st.composite
def packets(draw):
    seq = draw(st.integers(min_value=1, max_value=2 ** 32 - 1))
    targets = draw(st.lists(
        st.integers(min_value=1,
                    max_value=2 ** 32 - 1).filter(lambda t: t != seq),
        max_size=5, unique=True))
    return Packet(
        seq=seq,
        block_id=draw(st.integers(min_value=0, max_value=2 ** 32 - 1)),
        payload=draw(st.binary(max_size=200)),
        carried=tuple((t, draw(_digests)) for t in targets),
        signature=draw(st.one_of(st.none(), st.binary(max_size=150))),
        extra=draw(st.binary(max_size=80)),
        send_time=draw(st.floats(min_value=0, max_value=1e6,
                                 allow_nan=False)),
    )


class TestRoundTrip:
    @given(packets())
    @settings(max_examples=200, deadline=None)
    def test_decode_encode_identity(self, packet):
        decoded = _check_decode(packet.to_wire())
        assert decoded == packet
        assert decoded.auth_bytes() == packet.auth_bytes()

    @given(packets())
    @settings(max_examples=200, deadline=None)
    def test_wire_is_canonical(self, packet):
        wire = packet.to_wire()
        assert packet_from_wire(wire).to_wire() == wire


class TestMutations:
    @given(packets(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_byte_flips_decode_canonically_or_reject(self, packet, data):
        wire = bytearray(packet.to_wire())
        flips = data.draw(st.lists(
            st.tuples(st.integers(min_value=0, max_value=len(wire) - 1),
                      st.integers(min_value=1, max_value=255)),
            min_size=1, max_size=6))
        for offset, mask in flips:
            wire[offset] ^= mask
        mutated = bytes(wire)
        # Canonicality: a surviving decode IS the buffer it came from —
        # the mutation produced another valid encoding, it did not
        # alias into a different layout.
        _check_decode(mutated)

    @given(packets(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_truncation_always_rejected(self, packet, data):
        wire = packet.to_wire()
        cut = data.draw(st.integers(min_value=0, max_value=len(wire) - 1))
        assert _check_decode(wire[:cut]) is None

    @given(packets(), st.binary(min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_extension_always_rejected(self, packet, tail):
        assert _check_decode(packet.to_wire() + tail) is None

    @given(packets(), packets(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_splices_decode_canonically_or_reject(self, a, b, data):
        wa, wb = a.to_wire(), b.to_wire()
        cut_a = data.draw(st.integers(min_value=0, max_value=len(wa)))
        cut_b = data.draw(st.integers(min_value=0, max_value=len(wb)))
        spliced = wa[:cut_a] + wb[cut_b:]
        _check_decode(spliced)


class TestGarbage:
    @given(st.binary(max_size=600))
    @settings(max_examples=400, deadline=None)
    def test_arbitrary_buffers_are_total(self, blob):
        _check_decode(blob)

    @given(packets(), st.binary(max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_decoders_agree_on_prefixed_garbage(self, packet, tail):
        # A valid header (and ids) steer random bytes past the first
        # checks, so the later fields' checks get exercised too; a
        # short tail after the header alone meets the body ids cut off
        # at every length.
        wire = packet.to_wire()
        _check_decode(wire[:WIRE_HEADER_SIZE] + tail[:12])
        _check_decode(wire[:WIRE_HEADER_SIZE + 8] + tail)
        _check_decode(wire[:WIRE_HEADER_SIZE + 12] + tail)


class TestKeptEncoding:
    """The cached ``auth_bytes`` never outlives the fields it encodes."""

    @given(packets(), st.binary(max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_replace_never_carries_the_old_encoding(self, packet, payload):
        packet.auth_bytes()
        changed = replace(packet, payload=payload)
        fresh = Packet(changed.seq, changed.block_id, changed.payload,
                       changed.carried, changed.signature, changed.extra,
                       changed.send_time)
        assert changed.auth_bytes() == fresh.auth_bytes()
        if payload != packet.payload:
            assert changed.auth_bytes() != packet.auth_bytes()

    @given(packets())
    @settings(max_examples=100, deadline=None)
    def test_kept_encoding_is_invisible(self, packet):
        before = (pickle.dumps(packet), hash(packet), repr(packet))
        packet.auth_bytes()
        assert (pickle.dumps(packet), hash(packet), repr(packet)) == before
        assert pickle.loads(pickle.dumps(packet)) == packet

    @given(packets(), st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_with_send_time_equals_replace(self, packet, when):
        packet.auth_bytes()
        stamped = packet.with_send_time(when)
        expected = replace(packet, send_time=when)
        assert stamped == expected
        assert stamped.auth_bytes() == expected.auth_bytes()
        assert stamped.to_wire() == expected.to_wire()

    @given(packets(), st.sampled_from([math.nan, math.inf, -math.inf]))
    @settings(max_examples=30, deadline=None)
    def test_with_send_time_rejects_non_finite(self, packet, when):
        with pytest.raises(PacketFormatError):
            packet.with_send_time(when)
