"""Unit tests for the ordered-delivery stream receiver."""

import pytest

from repro.crypto.signatures import HmacStubSigner
from repro.schemes.emss import EmssScheme
from repro.schemes.rohatgi import RohatgiScheme
from repro.simulation.sender import StreamSender, make_payloads
from repro.simulation.stream_receiver import StreamReceiver


@pytest.fixture
def signer():
    return HmacStubSigner(key=b"stream")


class TestInOrderDelivery:
    def test_forward_chain_delivers_immediately(self, signer):
        packets = RohatgiScheme().make_block(make_payloads(5), signer)
        receiver = StreamReceiver(signer)
        seen = []
        for packet in packets:
            seen.extend(d.seq for d in receiver.receive(packet, 0.0))
        assert seen == [1, 2, 3, 4, 5]

    def test_end_signed_block_releases_in_one_batch(self, signer):
        packets = EmssScheme(2, 1).make_block(make_payloads(5), signer)
        receiver = StreamReceiver(signer)
        for packet in packets[:-1]:
            assert receiver.receive(packet, 0.0) == []
        batch = receiver.receive(packets[-1], 1.0)
        # Signature packet itself still carries a payload here.
        assert [d.seq for d in batch] == [1, 2, 3, 4, 5]

    def test_out_of_order_arrival_reordered(self, signer):
        packets = EmssScheme(2, 1).make_block(make_payloads(4), signer)
        receiver = StreamReceiver(signer)
        order = [packets[3], packets[1], packets[0], packets[2]]
        delivered = []
        for packet in order:
            delivered.extend(d.seq for d in receiver.receive(packet, 0.0))
        assert delivered == [1, 2, 3, 4]

    def test_callback_invoked_in_order(self, signer):
        packets = EmssScheme(2, 1).make_block(make_payloads(4), signer)
        seen = []
        receiver = StreamReceiver(signer, on_deliver=lambda d: seen.append(d.seq))
        for packet in reversed(packets):
            receiver.receive(packet, 0.0)
        assert seen == [1, 2, 3, 4]

    def test_payload_content_preserved(self, signer):
        payloads = make_payloads(3)
        packets = RohatgiScheme().make_block(payloads, signer)
        receiver = StreamReceiver(signer)
        out = []
        for packet in packets:
            out.extend(d.payload for d in receiver.receive(packet, 0.0))
        assert out == payloads


class TestGapHandling:
    def test_gap_blocks_delivery(self, signer):
        packets = RohatgiScheme().make_block(make_payloads(5), signer)
        seen = []
        receiver = StreamReceiver(signer, on_deliver=seen.append)
        receiver.receive(packets[0], 0.0)
        # Lose packet 2: 3 can never verify either (chain break); 1 only.
        assert [d.seq for d in seen] == [1]
        assert receiver.delivered == 1

    def test_skip_gap_releases_later_verified(self, signer):
        packets = EmssScheme(2, 1).make_block(make_payloads(6), signer)
        receiver = StreamReceiver(signer)
        # Drop packets 1 and 2 entirely; deliver the rest.
        for packet in packets[2:]:
            receiver.receive(packet, 0.0)
        assert receiver.delivered == 0
        assert receiver.pending == 4
        released = receiver.skip_gap(2)
        assert [d.seq for d in released] == [3, 4, 5, 6]
        assert receiver.skipped == 2

    def test_finish_block_evicts_and_skips(self, signer):
        sender = StreamSender(EmssScheme(2, 1), signer, block_size=5)
        block0 = sender.send_block(make_payloads(5))
        block1 = sender.send_block(make_payloads(5))
        receiver = StreamReceiver(signer)
        # Block 0 loses its signature packet: nothing verifies.
        for packet in block0[:-1]:
            receiver.receive(packet, 0.0)
        released = receiver.finish_block(0, last_seq=5)
        assert released == []
        assert receiver.skipped == 5
        assert receiver.verifier.buffered_count == 0
        # Block 1 flows normally afterwards.
        delivered = []
        for packet in block1:
            delivered.extend(d.seq for d in receiver.receive(packet, 1.0))
        assert delivered == [p.seq for p in block1]

    def test_skip_gap_noop_for_past(self, signer):
        packets = RohatgiScheme().make_block(make_payloads(3), signer)
        receiver = StreamReceiver(signer)
        for packet in packets:
            receiver.receive(packet, 0.0)
        assert receiver.skip_gap(2) == []
        assert receiver.skipped == 0


class TestAdversarial:
    def test_forged_payload_never_delivered(self, signer):
        from dataclasses import replace

        packets = RohatgiScheme().make_block(make_payloads(3), signer)
        seen = []
        receiver = StreamReceiver(signer, on_deliver=seen.append)
        receiver.receive(packets[0], 0.0)
        receiver.receive(replace(packets[1], payload=b"evil"), 0.0)
        receiver.skip_gap(3)
        assert seen and all(d.payload != b"evil" for d in seen)
