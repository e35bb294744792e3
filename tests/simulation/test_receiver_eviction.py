"""Unit tests for receiver buffer eviction (DoS-resistance knobs)."""

import pytest

from repro.crypto.signatures import HmacStubSigner
from repro.schemes.emss import EmssScheme
from repro.simulation.receiver import ChainReceiver
from repro.simulation.sender import StreamSender, make_payloads


@pytest.fixture
def signer():
    return HmacStubSigner(key=b"evict")


def _block(signer, n=8, block_id=0, base_seq=1):
    return EmssScheme(2, 1).make_block(make_payloads(n), signer,
                                       block_id=block_id, base_seq=base_seq)


class TestBufferCap:
    def test_cap_enforced(self, signer):
        receiver = ChainReceiver(signer, max_buffered=3)
        packets = _block(signer, 8)
        for packet in packets[:-1]:  # withhold the signature
            receiver.receive(packet, 0.0)
        assert receiver.buffered_count <= 3
        assert receiver.evicted == 4

    def test_oldest_evicted_first(self, signer):
        receiver = ChainReceiver(signer, max_buffered=2)
        packets = _block(signer, 6)
        for packet in packets[:-1]:
            receiver.receive(packet, 0.0)
        # Only the two most recent data packets remain; on signature
        # arrival they verify, older ones cannot.
        receiver.receive(packets[-1], 1.0)
        assert receiver.verdict(4).verified
        assert receiver.verdict(5).verified
        assert not receiver.verdict(1).verified

    def test_cap_validation(self, signer):
        with pytest.raises(ValueError):
            ChainReceiver(signer, max_buffered=0)

    def test_unbounded_by_default(self, signer):
        receiver = ChainReceiver(signer)
        for packet in _block(signer, 8)[:-1]:
            receiver.receive(packet, 0.0)
        assert receiver.buffered_count == 7
        assert receiver.evicted == 0


class TestBlockEviction:
    def test_evict_block_drops_only_that_block(self, signer):
        receiver = ChainReceiver(signer)
        sender = StreamSender(EmssScheme(2, 1), signer, block_size=6)
        block0 = sender.send_block(make_payloads(6))
        block1 = sender.send_block(make_payloads(6))
        # Deliver both blocks minus their signatures: all buffered.
        for packet in block0[:-1] + block1[:-1]:
            receiver.receive(packet, 0.0)
        receiver.close_block(0, block0[-1].seq)
        assert receiver.evicted == 5
        assert receiver.buffered_count == 5  # block 1 untouched
        # Block 1 still completes normally.
        receiver.receive(block1[-1], 1.0)
        assert receiver.verdict(block1[0].seq).verified

    def test_evict_missing_block_is_noop(self, signer):
        receiver = ChainReceiver(signer)
        for packet in _block(signer, 6)[:-1]:
            receiver.receive(packet, 0.0)
        # Nothing claims block 99 and nothing sits at or below seq 0.
        receiver.close_block(99, 0)
        assert receiver.evicted == 0
        assert receiver.buffered_count == 5
