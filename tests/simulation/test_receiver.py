"""Unit tests for the generic cascade receiver."""

from dataclasses import replace

import pytest

from repro.crypto.signatures import HmacStubSigner
from repro.schemes.emss import EmssScheme
from repro.schemes.rohatgi import RohatgiScheme
from repro.simulation.receiver import ChainReceiver


@pytest.fixture
def signer():
    return HmacStubSigner(key=b"rcv")


def _block(scheme, n, signer):
    return scheme.make_block([b"payload-%d" % i for i in range(n)], signer)


class TestForwardChain:
    def test_in_order_everything_verifies_immediately(self, signer):
        packets = _block(RohatgiScheme(), 5, signer)
        receiver = ChainReceiver(signer)
        for i, packet in enumerate(packets):
            outcome = receiver.receive(packet, float(i))
            assert outcome.verified, f"packet {packet.seq}"
            assert outcome.delay == 0.0

    def test_gap_stalls_suffix(self, signer):
        packets = _block(RohatgiScheme(), 5, signer)
        receiver = ChainReceiver(signer)
        for packet in packets[:2] + packets[3:]:
            receiver.receive(packet, 0.0)
        assert receiver.outcomes[1].verified
        assert receiver.outcomes[2].verified
        assert not receiver.outcomes[4].verified
        assert not receiver.outcomes[5].verified

    def test_hash_buffer_peak_is_one(self, signer):
        packets = _block(RohatgiScheme(), 6, signer)
        receiver = ChainReceiver(signer)
        for packet in packets:
            receiver.receive(packet, 0.0)
        assert receiver.hash_buffer_peak <= 1


class TestBackwardChain:
    def test_buffered_until_signature(self, signer):
        packets = _block(EmssScheme(2, 1), 5, signer)
        receiver = ChainReceiver(signer)
        for packet in packets[:-1]:
            receiver.receive(packet, packet.seq * 0.1)
        assert receiver.verified_count() == 0
        assert receiver.buffered_count == 4
        receiver.receive(packets[-1], 0.5)
        assert receiver.verified_count() == 5
        assert receiver.buffered_count == 0

    def test_cascade_verification_times(self, signer):
        packets = _block(EmssScheme(2, 1), 4, signer)
        receiver = ChainReceiver(signer)
        for packet in packets:
            receiver.receive(packet, packet.seq * 0.1)
        # All verified at the signature packet's arrival time.
        for outcome in receiver.outcomes.values():
            assert outcome.verified_time == pytest.approx(0.4)

    def test_message_buffer_peak(self, signer):
        packets = _block(EmssScheme(2, 1), 8, signer)
        receiver = ChainReceiver(signer)
        for packet in packets:
            receiver.receive(packet, 0.0)
        assert receiver.message_buffer_peak == 7

    def test_out_of_order_delivery(self, signer):
        packets = _block(EmssScheme(2, 1), 6, signer)
        receiver = ChainReceiver(signer)
        for packet in reversed(packets):  # signature first
            receiver.receive(packet, 0.0)
        assert receiver.verified_count() == 6

    def test_loss_breaks_only_dependent_packets(self, signer):
        packets = _block(EmssScheme(2, 1), 6, signer)
        receiver = ChainReceiver(signer)
        # Drop packets 3 and 4: packets 1 and 2 lose every path.
        for packet in [packets[0], packets[1], packets[4], packets[5]]:
            receiver.receive(packet, 0.0)
        assert not receiver.outcomes[1].verified
        assert not receiver.outcomes[2].verified
        assert receiver.outcomes[5].verified
        assert receiver.outcomes[6].verified


class TestAdversarial:
    def test_tampered_payload_flagged_forged(self, signer):
        packets = _block(RohatgiScheme(), 3, signer)
        receiver = ChainReceiver(signer)
        receiver.receive(packets[0], 0.0)
        forged = replace(packets[1], payload=b"evil")
        assert receiver.receive(forged, 0.0) is None
        assert receiver.verdict(2) is None
        assert receiver.forged_rejected == 1
        # The slot stays free: the genuine packet still verifies.
        assert receiver.receive(packets[1], 1.0).verified
        assert receiver.accepted_digests()[2] == \
            receiver.content_digest(packets[1])

    def test_bad_signature_flagged(self, signer):
        packets = _block(RohatgiScheme(), 2, signer)
        bad = replace(packets[0], signature=b"\x00" * 128)
        receiver = ChainReceiver(signer)
        assert receiver.receive(bad, 0.0) is None
        assert receiver.verdict(1) is None
        assert receiver.forged_rejected == 1
        outcome = receiver.receive(packets[0], 1.0)
        assert outcome.verified and outcome.arrival_time == 1.0

    def test_forged_packet_does_not_poison_chain(self, signer):
        packets = _block(RohatgiScheme(), 4, signer)
        receiver = ChainReceiver(signer)
        receiver.receive(packets[0], 0.0)
        receiver.receive(replace(packets[1], payload=b"evil"), 0.0)
        # The forgery burned nothing: the genuine packet 2 and the
        # chain behind it all verify.
        for packet in packets[1:]:
            receiver.receive(packet, 1.0)
        assert receiver.forged_rejected == 1
        assert receiver.forged == 0
        assert receiver.verified_count() == 4
        assert receiver.accepted_digests() == {
            packet.seq: receiver.content_digest(packet) for packet in packets}

    def test_duplicate_delivery_ignored(self, signer):
        packets = _block(RohatgiScheme(), 3, signer)
        receiver = ChainReceiver(signer)
        first = receiver.receive(packets[0], 0.0)
        second = receiver.receive(packets[0], 1.0)
        assert first is second
        assert receiver.verified_count() == 1
