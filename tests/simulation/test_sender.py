"""Unit tests for the stream sender."""

import pytest

from repro.crypto.signatures import HmacStubSigner
from repro.exceptions import SimulationError
from repro.schemes.emss import EmssScheme
from repro.simulation.sender import StreamSender, make_payloads


@pytest.fixture
def sender():
    return StreamSender(EmssScheme(2, 1), HmacStubSigner(key=b"s"),
                        block_size=4, t_transmit=0.01)


class TestMakePayloads:
    def test_count_and_size(self):
        payloads = make_payloads(10, size=40)
        assert len(payloads) == 10
        assert all(len(p) == 40 for p in payloads)

    def test_distinct(self):
        payloads = make_payloads(100)
        assert len(set(payloads)) == 100

    def test_each_call_returns_a_fresh_list(self):
        first = make_payloads(5, tag=b"fresh")
        second = make_payloads(5, tag=b"fresh")
        assert first == second
        assert first is not second
        first.append(b"mutated")
        first[0] = b"changed"
        assert make_payloads(5, tag=b"fresh") == second

    def test_validation(self):
        with pytest.raises(SimulationError):
            make_payloads(-1)
        with pytest.raises(SimulationError):
            make_payloads(1, size=4)


class TestSendBlock:
    def test_send_times_spaced_by_t_transmit(self, sender):
        packets = sender.send_block(make_payloads(4))
        times = [p.send_time for p in packets]
        assert times == pytest.approx([0.0, 0.01, 0.02, 0.03])

    def test_sequence_numbers_continue_across_blocks(self, sender):
        first = sender.send_block(make_payloads(4))
        second = sender.send_block(make_payloads(4))
        assert [p.seq for p in first] == [1, 2, 3, 4]
        assert [p.seq for p in second] == [5, 6, 7, 8]

    def test_block_ids_increment(self, sender):
        first = sender.send_block(make_payloads(4))
        second = sender.send_block(make_payloads(4))
        assert {p.block_id for p in first} == {0}
        assert {p.block_id for p in second} == {1}

    def test_clock_continues_across_blocks(self, sender):
        sender.send_block(make_payloads(4))
        second = sender.send_block(make_payloads(4))
        assert second[0].send_time == pytest.approx(0.04)

    def test_empty_block_rejected(self, sender):
        with pytest.raises(SimulationError):
            sender.send_block([])


class TestSendStream:
    def test_stream_chunks_into_blocks(self, sender):
        blocks = list(sender.send_stream(make_payloads(10)))
        assert [len(b) for b in blocks] == [4, 4, 2]

    def test_each_block_signed(self, sender):
        for block in sender.send_stream(make_payloads(12)):
            assert sum(p.is_signature_packet for p in block) == 1


class TestValidation:
    def test_bad_block_size(self):
        with pytest.raises(SimulationError):
            StreamSender(EmssScheme(2, 1), HmacStubSigner(key=b"s"),
                         block_size=0)

    def test_bad_t_transmit(self):
        with pytest.raises(SimulationError):
            StreamSender(EmssScheme(2, 1), HmacStubSigner(key=b"s"),
                         block_size=4, t_transmit=0.0)
