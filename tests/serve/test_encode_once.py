"""Encode count of a live session: each packet is encoded exactly once.

A packet keeps its first ``auth_bytes()`` string (see
:mod:`repro.packets`).  The sender encodes each packet while it
packetizes the block — a plan-built packet is born with its encoding —
and every later step reuses that copy: the send stamp, the sender's
digest map and ``to_wire``.  Each receiver takes the encoding straight
from the wire buffer it decoded.  Fresh encodings are counted here by
wrapping ``repro.packets._encode_fields``, the one encoder behind both
``Packet._from_plan`` and an ``auth_bytes()`` cache miss, and sorted by
whether ``SenderService._packetize`` was running at the time.
"""

from collections import Counter

import pytest

from repro import packets
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
    packetized = []             # every stamped packet the sender built
    packetizing = [False]

    encode = packets._encode_fields
    packetize = SenderService._packetize

    def counted_encode(seq, block_id, *fields):
        tally = inside if packetizing[0] else outside
        tally[block_id, seq] += 1
        return encode(seq, block_id, *fields)

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
    monkeypatch.setattr(SenderService, "_packetize", flagged_packetize)
    try:
        result = run_live_session(CONFIG)
    finally:
        monkeypatch.undo()
    return result, inside, outside, packetized


def test_session_delivers_and_is_sound(counts):
    result = counts[0]
    assert result.forged_accepted == 0
    assert result.delivered > 0


def test_one_encoding_per_packetized_packet(counts):
    _, inside, _, packetized = counts
    assert len(packetized) == CONFIG.blocks * CONFIG.block_size
    keys = {(packet.block_id, packet.seq) for packet in packetized}
    assert len(keys) == len(packetized)
    assert set(inside) == keys
    assert set(inside.values()) == {1}


def test_no_encoding_after_packetize(counts):
    """Stamping, digests, framing, decode, ingest and audit all reuse it."""
    outside = counts[2]
    assert sum(outside.values()) == 0, dict(outside)
