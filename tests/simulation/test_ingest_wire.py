"""Defensive wire ingestion: one-delivery runs through ``ingest_run``.

The adversarial channel hands the receiver raw bytes; each buffer here
is a run of one delivery through the one wire entry.  These tests pin
the degradation contract — undecodable buffers are counted and
discarded, forgeries never claim or poison a sequence slot, replays
are deduplicated by content, and genuine packets verify regardless of
what arrived around them.
"""

from dataclasses import replace

import pytest

from repro.crypto.hashing import sha256
from repro.crypto.signatures import HmacStubSigner
from repro.schemes.emss import EmssScheme
from repro.schemes.rohatgi import RohatgiScheme
from repro.simulation.receiver import ChainReceiver
from repro.simulation.sender import make_payloads

from tests.wire import ingest_one


@pytest.fixture
def signer():
    return HmacStubSigner(key=b"ingest-test")


@pytest.fixture
def block(signer):
    return RohatgiScheme().make_block(make_payloads(5), signer)


class TestUndecodable:
    def test_garbage_counted_and_discarded(self, signer):
        receiver = ChainReceiver(signer)
        for garbage in (b"\x01\x02\x03", b""):
            ingest_one(receiver, garbage, 0.0)
            assert receiver.last_ingest == "undecodable"
            assert receiver.last_ingest_packet is None
        assert receiver.undecodable == 2
        assert receiver.outcomes == {}
        assert receiver.buffered_count == 0

    def test_truncated_wire_counted(self, signer, block):
        receiver = ChainReceiver(signer)
        wire = block[0].to_wire()
        ingest_one(receiver, wire[:len(wire) // 2], 0.0)
        assert receiver.last_ingest == "undecodable"
        assert receiver.undecodable == 1
        assert receiver.outcomes == {}

    def test_genuine_stream_still_verifies(self, signer, block):
        receiver = ChainReceiver(signer)
        for packet in block:
            ingest_one(receiver, packet.to_wire(), 0.0)
        assert receiver.verified_count() == len(block)
        assert receiver.undecodable == 0


class TestForgeryRejection:
    def test_bad_signature_never_claims_slot(self, signer, block):
        receiver = ChainReceiver(signer)
        forged = replace(block[0], payload=b"forged payload")
        ingest_one(receiver, forged.to_wire(), 0.0)
        assert receiver.forged_rejected == 1
        assert receiver.verdict(block[0].seq) is None
        # The genuine signature packet still takes the slot and verifies.
        ingest_one(receiver, block[0].to_wire(), 0.1)
        assert receiver.verdict(block[0].seq).verified

    def test_forged_chain_packet_loses_race_to_genuine(self, signer, block):
        receiver = ChainReceiver(signer)
        forged = replace(block[1], payload=b"tampered")
        # Forgery first, genuine second, then the covering signature.
        ingest_one(receiver, forged.to_wire(), 0.0)
        ingest_one(receiver, block[1].to_wire(), 0.1)
        ingest_one(receiver, block[0].to_wire(), 0.2)
        outcome = receiver.verdict(block[1].seq)
        assert outcome.verified
        assert receiver.forged_rejected == 1
        assert block[1].seq in receiver.accepted_digests()

    def test_forgery_after_verification_rejected(self, signer, block):
        receiver = ChainReceiver(signer)
        for packet in block:
            ingest_one(receiver, packet.to_wire(), 0.0)
        forged = replace(block[2], payload=b"late forgery")
        ingest_one(receiver, forged.to_wire(), 1.0)
        assert receiver.forged_rejected == 1
        assert receiver.verdict(block[2].seq).verified

    def test_accepted_digest_matches_genuine(self, signer, block):
        receiver = ChainReceiver(signer)
        forged = replace(block[1], payload=b"tampered")
        ingest_one(receiver, forged.to_wire(), 0.0)
        for packet in block:
            ingest_one(receiver, packet.to_wire(), 0.1)
        for packet in block:
            assert receiver.accepted_digests()[packet.seq] == sha256.digest(
                packet.auth_bytes())


class TestReplays:
    def test_replay_of_verified_packet_dropped(self, signer, block):
        receiver = ChainReceiver(signer)
        for packet in block:
            ingest_one(receiver, packet.to_wire(), 0.0)
        ingest_one(receiver, block[3].to_wire(), 0.5)
        assert receiver.replays_dropped == 1
        assert receiver.verified_count() == len(block)

    def test_replay_of_buffered_candidate_dropped(self, signer):
        # EMSS sends the signature last, so early packets buffer.
        packets = EmssScheme(2, 1).make_block(make_payloads(6), signer)
        receiver = ChainReceiver(signer)
        ingest_one(receiver, packets[0].to_wire(), 0.0)
        ingest_one(receiver, packets[0].to_wire(), 0.1)
        assert receiver.replays_dropped == 1
        assert receiver.buffered_count == 1


class TestCandidateBounds:
    def test_slot_contention_capped(self, signer):
        packets = EmssScheme(2, 1).make_block(make_payloads(6), signer)
        receiver = ChainReceiver(signer, max_candidates=2)
        seq = packets[0].seq
        for i in range(5):
            fake = replace(packets[0], payload=b"variant %d" % i)
            ingest_one(receiver, fake.to_wire(), 0.0)
        assert receiver.buffered_count == 2
        assert receiver.forged_rejected == 3
        assert not receiver.verdict(seq).verified
