"""Edge cases for stream gap-skipping and block finishing."""

import pytest

from repro.crypto.signatures import HmacStubSigner
from repro.exceptions import SchemeParameterError
from repro.schemes.emss import EmssScheme
from repro.simulation.sender import make_payloads
from repro.simulation.stream_receiver import StreamReceiver


@pytest.fixture
def signer():
    return HmacStubSigner(key=b"stream-edges")


def _block(signer, count, block_id=0, base_seq=1):
    return EmssScheme(1, 1).make_block(make_payloads(count), signer,
                                       block_id=block_id, base_seq=base_seq)


class TestSkipGapEdges:
    def test_skip_before_next_seq_is_a_noop(self, signer):
        receiver = StreamReceiver(signer)
        for packet in _block(signer, 3):
            receiver.receive(packet, 0.0)
        assert receiver._next_seq == 4
        assert receiver.skip_gap(2) == []
        assert receiver.skipped == 0
        assert receiver._next_seq == 4

    def test_skip_past_already_released_seq_counts_nothing(self, signer):
        packets = _block(signer, 4)
        receiver = StreamReceiver(signer)
        for packet in packets:
            receiver.receive(packet, 0.0)
        delivered_before = receiver.delivered
        # Everything through seq 4 is already released; skipping "past"
        # it must not double-deliver or inflate the skipped counter.
        assert receiver.skip_gap(4) == []
        assert receiver.skipped == 0
        assert receiver.delivered == delivered_before

    def test_gap_at_block_boundary_releases_next_block(self, signer):
        first = _block(signer, 3, block_id=0, base_seq=1)
        second = _block(signer, 3, block_id=1, base_seq=4)
        receiver = StreamReceiver(signer)
        # Lose the whole first block; the second verifies fully but is
        # held back by the boundary gap.
        for packet in second:
            receiver.receive(packet, 1.0)
        assert receiver.delivered == 0
        assert receiver.pending == 3
        released = receiver.finish_block(0, last_seq=3)
        assert [d.seq for d in released] == [4, 5, 6]
        assert receiver.skipped == 3
        assert receiver.pending == 0
        assert len(first) == 3  # block really spanned seqs 1..3

    def test_partial_gap_inside_block(self, signer):
        packets = _block(signer, 4)
        receiver = StreamReceiver(signer)
        for packet in packets[2:]:
            receiver.receive(packet, 0.0)
        assert receiver.delivered == 0
        released = receiver.skip_gap(2)
        assert [d.seq for d in released] == [3, 4]
        assert receiver.skipped == 2

    def test_finish_block_is_idempotent(self, signer):
        packets = _block(signer, 3)
        receiver = StreamReceiver(signer)
        for packet in packets[1:]:
            receiver.receive(packet, 0.0)
        first = receiver.finish_block(0, last_seq=3)
        assert [d.seq for d in first] == [2, 3]
        assert receiver.finish_block(0, last_seq=3) == []
        assert receiver.skipped == 1


class TestEmptyBlock:
    def test_empty_block_rejected_by_scheme(self, signer):
        with pytest.raises(SchemeParameterError):
            EmssScheme(1, 1).make_block([], signer)

    def test_finish_never_started_block(self, signer):
        # A block whose every packet was lost: nothing buffered, the
        # boundary just advances the sequence horizon.
        receiver = StreamReceiver(signer)
        assert receiver.finish_block(0, last_seq=5) == []
        assert receiver.skipped == 5
        assert receiver._next_seq == 6

    def test_stream_recovers_after_empty_block(self, signer):
        seen = []
        receiver = StreamReceiver(signer, on_deliver=seen.append)
        receiver.finish_block(0, last_seq=3)
        for packet in _block(signer, 2, block_id=1, base_seq=4):
            receiver.receive(packet, 2.0)
        assert [d.seq for d in seen] == [4, 5]
        assert receiver.delivered == 2
