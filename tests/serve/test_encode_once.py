"""Encode and hash counts of a live session: each packet once.

A packet keeps its first ``auth_bytes()`` string (see
:mod:`repro.packets`).  The sender encodes each packet while it
packetizes the block — a plan-built packet is born with its encoding —
and ``make_block`` hashes that string once and stamps the packet with
its send time; the sender's digest map is the block's digests, and
``to_wire`` reuses the encoding.  A receiver takes each genuine frame's
packet and digest from the decode memo the sender filled, so it
neither encodes nor hashes one.  Fresh encodings are counted here by
wrapping ``repro.packets._encode_fields``, the one encoder behind both
``Packet._from_plan`` and an ``auth_bytes()`` cache miss, and hashes by
wrapping ``HashFunction.digest``; both are sorted by whether
``SenderService._packetize`` was running at the time.
"""

from collections import Counter

import pytest

from repro import packets
from repro.crypto.hashing import HashFunction
from repro.serve.sender import SenderService
from repro.serve.service import ServeConfig, run_live_session

#: One receiver on the local transport, lossy but not attacked.
CONFIG = ServeConfig(receivers=1, blocks=4, block_size=32,
                     loss_schedule=((0, 0.1),), attack=None, seed=19)


@pytest.fixture(scope="module")
def counts():
    monkeypatch = pytest.MonkeyPatch()
    inside = Counter()          # (block, seq) -> misses while packetizing
    outside = Counter()         # (block, seq) -> misses anywhere else
    hashed_inside = Counter()   # hashed bytes -> hashes while packetizing
    hashed_outside = Counter()  # hashed bytes -> hashes anywhere else
    packetized = []             # every stamped packet the sender built
    packetizing = [False]

    encode = packets._encode_fields
    digest = HashFunction.digest
    packetize = SenderService._packetize

    def counted_encode(seq, block_id, *fields):
        tally = inside if packetizing[0] else outside
        tally[block_id, seq] += 1
        return encode(seq, block_id, *fields)

    def counted_digest(hash_function, data):
        tally = hashed_inside if packetizing[0] else hashed_outside
        tally[bytes(data)] += 1
        return digest(hash_function, data)

    def flagged_packetize(sender, *args, **kwargs):
        packetizing[0] = True
        try:
            pending = packetize(sender, *args, **kwargs)
        finally:
            packetizing[0] = False
        for group in pending.groups.values():
            packetized.extend(group.stamped)
        return pending

    monkeypatch.setattr(packets, "_encode_fields", counted_encode)
    monkeypatch.setattr(HashFunction, "digest", counted_digest)
    monkeypatch.setattr(SenderService, "_packetize", flagged_packetize)
    try:
        result = run_live_session(CONFIG)
    finally:
        monkeypatch.undo()
    return (result, inside, outside, packetized, hashed_inside,
            hashed_outside)


def test_session_delivers_and_is_sound(counts):
    result = counts[0]
    assert result.forged_accepted == 0
    assert result.delivered > 0


def test_one_encoding_per_packetized_packet(counts):
    _, inside, _, packetized, _, _ = counts
    assert len(packetized) == CONFIG.blocks * CONFIG.block_size
    keys = {(packet.block_id, packet.seq) for packet in packetized}
    assert len(keys) == len(packetized)
    assert set(inside) == keys
    assert set(inside.values()) == {1}


def test_no_encoding_after_packetize(counts):
    """Stamping, digests, framing, decode, ingest and audit all reuse it."""
    outside = counts[2]
    assert sum(outside.values()) == 0, dict(outside)


def test_sender_hashes_each_auth_string_once(counts):
    _, _, _, packetized, hashed_inside, _ = counts
    auth = Counter(packet.auth_bytes() for packet in packetized)
    assert set(auth.values()) == {1}
    assert hashed_inside == auth


def test_no_genuine_frame_hashed_after_packetize(counts):
    """Unattacked, every frame is genuine: receivers hash nothing."""
    hashed_outside = counts[5]
    assert sum(hashed_outside.values()) == 0, len(hashed_outside)
