"""Defensive wire ingestion: ChainReceiver.ingest_wire / ingest.

The adversarial channel hands the receiver raw bytes; these tests pin
the degradation contract — undecodable buffers are counted and
discarded, forgeries never claim or poison a sequence slot, replays
are deduplicated by content, and genuine packets verify regardless of
what arrived around them.
"""

from dataclasses import replace

import pytest

from repro.crypto.signatures import HmacStubSigner
from repro.schemes.emss import EmssScheme
from repro.schemes.rohatgi import RohatgiScheme
from repro.simulation.receiver import ChainReceiver
from repro.simulation.sender import make_payloads


@pytest.fixture
def signer():
    return HmacStubSigner(key=b"ingest-test")


@pytest.fixture
def block(signer):
    return RohatgiScheme().make_block(make_payloads(5), signer)


class TestUndecodable:
    def test_garbage_counted_and_discarded(self, signer):
        receiver = ChainReceiver(signer)
        assert receiver.ingest_wire(b"\x01\x02\x03", 0.0) is None
        assert receiver.ingest_wire(b"", 0.0) is None
        assert receiver.undecodable == 2
        assert receiver.outcomes == {}
        assert receiver.buffered_count == 0

    def test_truncated_wire_counted(self, signer, block):
        receiver = ChainReceiver(signer)
        wire = block[0].to_wire()
        assert receiver.ingest_wire(wire[:len(wire) // 2], 0.0) is None
        assert receiver.undecodable == 1

    def test_genuine_stream_still_verifies(self, signer, block):
        receiver = ChainReceiver(signer)
        for packet in block:
            receiver.ingest_wire(packet.to_wire(), 0.0)
        assert receiver.verified_count() == len(block)
        assert receiver.undecodable == 0


class TestForgeryRejection:
    def test_bad_signature_never_claims_slot(self, signer, block):
        receiver = ChainReceiver(signer)
        forged = replace(block[0], payload=b"forged payload")
        receiver.ingest_wire(forged.to_wire(), 0.0)
        assert receiver.forged_rejected == 1
        assert block[0].seq not in receiver.outcomes
        # The genuine signature packet still takes the slot and verifies.
        receiver.ingest_wire(block[0].to_wire(), 0.1)
        assert receiver.outcomes[block[0].seq].verified

    def test_forged_chain_packet_loses_race_to_genuine(self, signer, block):
        receiver = ChainReceiver(signer)
        forged = replace(block[1], payload=b"tampered")
        # Forgery first, genuine second, then the covering signature.
        receiver.ingest_wire(forged.to_wire(), 0.0)
        receiver.ingest_wire(block[1].to_wire(), 0.1)
        receiver.ingest_wire(block[0].to_wire(), 0.2)
        outcome = receiver.outcomes[block[1].seq]
        assert outcome.verified
        assert receiver.forged_rejected == 1
        assert block[1].seq in receiver.accepted_digests()

    def test_forgery_after_verification_rejected(self, signer, block):
        receiver = ChainReceiver(signer)
        for packet in block:
            receiver.ingest_wire(packet.to_wire(), 0.0)
        forged = replace(block[2], payload=b"late forgery")
        receiver.ingest_wire(forged.to_wire(), 1.0)
        assert receiver.forged_rejected == 1
        assert receiver.outcomes[block[2].seq].verified

    def test_accepted_digest_matches_genuine(self, signer, block):
        receiver = ChainReceiver(signer)
        forged = replace(block[1], payload=b"tampered")
        receiver.ingest_wire(forged.to_wire(), 0.0)
        for packet in block:
            receiver.ingest_wire(packet.to_wire(), 0.1)
        from repro.crypto.hashing import sha256
        for packet in block:
            assert receiver.accepted_digests()[packet.seq] == sha256.digest(
                packet.auth_bytes())


class TestReplays:
    def test_replay_of_verified_packet_dropped(self, signer, block):
        receiver = ChainReceiver(signer)
        for packet in block:
            receiver.ingest_wire(packet.to_wire(), 0.0)
        receiver.ingest_wire(block[3].to_wire(), 0.5)
        assert receiver.replays_dropped == 1
        assert receiver.verified_count() == len(block)

    def test_replay_of_buffered_candidate_dropped(self, signer):
        # EMSS sends the signature last, so early packets buffer.
        packets = EmssScheme(2, 1).make_block(make_payloads(6), signer)
        receiver = ChainReceiver(signer)
        receiver.ingest_wire(packets[0].to_wire(), 0.0)
        receiver.ingest_wire(packets[0].to_wire(), 0.1)
        assert receiver.replays_dropped == 1
        assert receiver.buffered_count == 1


class TestCandidateBounds:
    def test_slot_contention_capped(self, signer):
        packets = EmssScheme(2, 1).make_block(make_payloads(6), signer)
        receiver = ChainReceiver(signer, max_candidates=2)
        seq = packets[0].seq
        for i in range(5):
            fake = replace(packets[0], payload=b"variant %d" % i)
            receiver.ingest_wire(fake.to_wire(), 0.0)
        assert receiver.buffered_count == 2
        assert receiver.forged_rejected == 3
        assert not receiver.outcomes[seq].verified
