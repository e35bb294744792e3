"""Parity: the one-build decoder and the one-call hash against their oracles.

:func:`repro.packets.packet_from_wire` builds a decoded packet once,
through ``Packet._from_wire``, running only the field checks its parse
cannot make.  :func:`packet_from_wire_constructor` below is the earlier
decoder, kept here as a test-only oracle: the same parse, then the
validating ``Packet`` constructor over every field, then the buffer's
``auth_bytes`` section kept as the encoding.  On every buffer the two
must either raise the same exception type with the same message, or
return equal packets with equal ``auth_bytes()`` and ``to_wire()``.

The buffers are valid frames, the fault models' mutations of them
(byte flips, truncation, extension, splices, garbage after a valid
header) and frames whose fields only the constructor's checks refuse
(zero ``seq``, a zero, self or repeated carried target, an empty
digest), written straight to the wire.

:meth:`repro.crypto.hashing.HashFunction.digest` is one
``factory(data).digest()`` call; it must equal hashlib's digest,
truncated, for every registered hash and truncated variant.
"""

import hashlib
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import HashFunction, get_hash, sha256
from repro.crypto.signatures import HmacStubSigner
from repro.exceptions import (
    HeaderFormatError,
    OverlongBlobError,
    SimulationError,
    TrailingBytesError,
    WireDecodeError,
)
from repro.packets import (
    _HEADER,
    _IDS,
    _IDS_BLOB,
    _PAIR,
    _U32,
    MAX_CARRIED_HASHES,
    MAX_BLOB_BYTES,
    WIRE_HEADER_SIZE,
    Packet,
    _blob,
    _truncated,
    packet_from_wire,
)
from repro.schemes import EmssScheme
from repro.simulation.sender import make_payloads


def packet_from_wire_constructor(data):
    """The constructor-based decoder: same parse, then ``Packet(...)``."""
    if type(data) is not bytes:
        data = bytes(data)
    size = len(data)
    if size < WIRE_HEADER_SIZE:
        raise _truncated("packet header", WIRE_HEADER_SIZE, 0, size)
    seq, block_id, reserved, send_time, has_sig = _HEADER.unpack_from(data)
    if reserved != 0:
        raise HeaderFormatError(f"nonzero reserved field: {reserved:#x}")
    if has_sig not in (0, 1):
        raise HeaderFormatError(
            f"signature flag must be 0 or 1, got {has_sig}")
    if not math.isfinite(send_time):
        raise HeaderFormatError(f"non-finite send time: {send_time}")
    offset = WIRE_HEADER_SIZE
    if offset + _IDS_BLOB.size > size:
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
    try:
        packet = Packet(seq, block_id, payload, tuple(carried),
                        signature if has_sig else None, extra, send_time)
    except WireDecodeError:
        raise
    except SimulationError as exc:
        raise HeaderFormatError(f"invalid packet fields: {exc}") from exc
    packet.__dict__["_auth"] = data[WIRE_HEADER_SIZE:auth_end]
    return packet


def _outcome(decode, blob):
    try:
        return "ok", decode(blob)
    except WireDecodeError as exc:
        return "reject", (type(exc), str(exc))


def _check_parity(blob):
    """Both decoders agree on ``blob``; returns the decoded packet or None."""
    got = _outcome(packet_from_wire, blob)
    expected = _outcome(packet_from_wire_constructor, blob)
    assert got[0] == expected[0], (got, expected)
    if got[0] == "reject":
        assert got[1] == expected[1]
        return None
    packet, oracle = got[1], expected[1]
    assert packet == oracle
    assert packet.auth_bytes() == oracle.auth_bytes()
    assert packet.to_wire() == oracle.to_wire() == blob
    assert vars(packet) == vars(oracle)
    return packet


def _raw_frame(seq, block_id, payload, carried, extra=b"", signature=None,
               send_time=0.0):
    """Wire bytes written field by field, bypassing every field check."""
    parts = [_HEADER.pack(seq, block_id, 0, send_time,
                          0 if signature is None else 1),
             _IDS_BLOB.pack(seq, block_id, len(payload)), payload,
             _U32.pack(len(carried))]
    for target, digest in carried:
        parts += [_PAIR.pack(target, len(digest)), digest]
    parts += [_U32.pack(len(extra)), extra,
              _U32.pack(0 if signature is None else len(signature)),
              signature or b""]
    return b"".join(parts)


_digests = st.binary(min_size=1, max_size=40)


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
        payload=draw(st.binary(max_size=120)),
        carried=tuple((t, draw(_digests)) for t in targets),
        signature=draw(st.one_of(st.none(), st.binary(max_size=80))),
        extra=draw(st.binary(max_size=40)),
        send_time=draw(st.floats(min_value=0, max_value=1e6,
                                 allow_nan=False)),
    )


@st.composite
def field_faults(draw):
    """A frame whose fields break the constructor's checks, maybe several.

    Seq 0, carried targets drawn from a tiny range (so zero, self and
    repeated targets are common) and digests that may be empty; the
    constructor's order of checks decides which fault is reported.
    """
    seq = draw(st.integers(min_value=0, max_value=3))
    carried = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=4),
                  st.binary(max_size=3)), max_size=5))
    return _raw_frame(seq, draw(st.integers(0, 2 ** 32 - 1)),
                      draw(st.binary(max_size=8)), carried,
                      extra=draw(st.binary(max_size=4)),
                      signature=draw(st.one_of(st.none(),
                                               st.binary(max_size=4))))


class TestDecodeParity:
    @given(packets())
    @settings(max_examples=200, deadline=None)
    def test_valid_frames(self, packet):
        assert _check_parity(packet.to_wire()) == packet

    @given(packets(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_byte_flips(self, packet, data):
        wire = bytearray(packet.to_wire())
        flips = data.draw(st.lists(
            st.tuples(st.integers(min_value=0, max_value=len(wire) - 1),
                      st.integers(min_value=1, max_value=255)),
            min_size=1, max_size=6))
        for offset, mask in flips:
            wire[offset] ^= mask
        _check_parity(bytes(wire))

    @given(packets(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_truncations(self, packet, data):
        wire = packet.to_wire()
        cut = data.draw(st.integers(min_value=0, max_value=len(wire) - 1))
        assert _check_parity(wire[:cut]) is None

    @given(packets(), st.binary(min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_extensions(self, packet, tail):
        assert _check_parity(packet.to_wire() + tail) is None

    @given(packets(), packets(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_splices(self, a, b, data):
        wa, wb = a.to_wire(), b.to_wire()
        cut_a = data.draw(st.integers(min_value=0, max_value=len(wa)))
        cut_b = data.draw(st.integers(min_value=0, max_value=len(wb)))
        _check_parity(wa[:cut_a] + wb[cut_b:])

    @given(packets(), st.binary(max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_prefixed_garbage(self, packet, tail):
        wire = packet.to_wire()
        _check_parity(wire[:WIRE_HEADER_SIZE] + tail[:12])
        _check_parity(wire[:WIRE_HEADER_SIZE + 12] + tail)

    @given(field_faults())
    @settings(max_examples=400, deadline=None)
    def test_field_faults(self, blob):
        _check_parity(blob)

    @pytest.mark.parametrize("seq, carried, message", [
        (0, [(0, b"")], "sequence numbers are 1-based, got 0"),
        (2, [(0, b"")], "carried hash for invalid seq 0"),
        (2, [(2, b"")], "packet cannot carry its own hash"),
        (2, [(1, b"a"), (1, b"")], "duplicate carried hash for seq 1"),
        (2, [(1, b""), (1, b"a")], "empty hash carried for seq 1"),
        (2, [(3, b"a"), (2, b"a"), (0, b"a")],
         "packet cannot carry its own hash"),
    ])
    def test_first_fault_wins_in_constructor_order(self, seq, carried,
                                                   message):
        blob = _raw_frame(seq, 0, b"p", carried)
        with pytest.raises(HeaderFormatError) as caught:
            packet_from_wire(blob)
        assert str(caught.value) == f"invalid packet fields: {message}"
        _check_parity(blob)

    def test_parse_faults_outrank_field_faults(self):
        # A zero seq in a truncated frame is reported as the truncation,
        # as the constructor never runs on a buffer the parse refused.
        blob = _raw_frame(0, 0, b"payload", [(0, b"")])
        assert _check_parity(blob[:-1]) is None
        with pytest.raises(TrailingBytesError):
            packet_from_wire(blob + b"\x00")

    def test_decoding_a_block_runs_no_constructor(self, monkeypatch):
        signer = HmacStubSigner(b"decode-parity")
        packets = EmssScheme(2, 1).make_block(
            make_payloads(128, 64, b"decode"), signer, sha256, block_id=5,
            base_seq=641)
        frames = [packet.to_wire() for packet in packets]
        calls = []
        original = Packet.__post_init__

        def counted(self):
            calls.append(self.seq)
            original(self)

        monkeypatch.setattr(Packet, "__post_init__", counted)
        decoded = [packet_from_wire(frame) for frame in frames]
        assert calls == []
        assert decoded == packets
        assert [p.auth_bytes() for p in decoded] == [
            p.auth_bytes() for p in packets]


_HASH_NAMES = ("sha256", "sha1", "md5", "sha256/10", "sha256/1", "sha1/16",
               "md5/8")


class TestHashParity:
    @given(st.sampled_from(_HASH_NAMES), st.binary(max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_digest_is_hashlib_truncated(self, name, data):
        function = get_hash(name)
        base = name.split("/", 1)[0]
        expected = hashlib.new(base, data).digest()[:function.digest_size]
        assert function.digest(data) == expected
        assert len(function.digest(data)) == function.digest_size
        assert function.digest(bytearray(data)) == expected
        assert function.digest(memoryview(data)) == expected

    @given(st.sampled_from(_HASH_NAMES),
           st.lists(st.binary(max_size=40), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_chain_is_digest_of_concatenation(self, name, parts):
        function = get_hash(name)
        assert function.chain(parts) == function.digest(b"".join(parts))

    @pytest.mark.parametrize("name", _HASH_NAMES)
    def test_pickle_round_trip(self, name):
        function = get_hash(name)
        copy = pickle.loads(pickle.dumps(function))
        assert copy == function
        assert copy.digest(b"x") == function.digest(b"x")

    def test_oversized_digest_size_keeps_the_factory_digest(self):
        # A digest_size above the factory's own output slices nothing.
        loose = HashFunction("md5-as-32", 32, hashlib.md5)
        assert loose.digest(b"x") == hashlib.md5(b"x").digest()

    def test_equality_ignores_the_kept_flag(self):
        assert HashFunction("sha256", 32, hashlib.sha256) == sha256
        assert hash(HashFunction("sha256", 32, hashlib.sha256)) == hash(sha256)
        assert "_whole" not in repr(sha256)
