"""Unit tests for the lossy, delaying channel."""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.channel import Channel
from repro.network.delay import GaussianDelay
from repro.network.loss import BernoulliLoss, TraceLoss
from repro.packets import Packet


def _packets(count):
    return [Packet(seq=i + 1, block_id=0, payload=b"p%d" % i,
                   send_time=i * 0.01) for i in range(count)]


def _signed(seq, when=0.0):
    return Packet(seq=seq, block_id=0, payload=b"s", signature=b"\x01" * 8,
                  send_time=when)


class TestLossless:
    def test_everything_delivered_in_order(self):
        channel = Channel()
        deliveries = channel.transmit(_packets(5))
        assert [d.packet.seq for d in deliveries] == [1, 2, 3, 4, 5]
        assert channel.dropped == 0

    def test_zero_delay(self):
        deliveries = Channel().transmit(_packets(3))
        assert all(d.delay == 0.0 for d in deliveries)


class TestLoss:
    def test_trace_loss_drops_exactly(self):
        channel = Channel(loss=TraceLoss([False, True, False, True, False]))
        deliveries = channel.transmit(_packets(5))
        assert [d.packet.seq for d in deliveries] == [1, 3, 5]
        assert channel.dropped == 2
        assert channel.observed_loss_rate == pytest.approx(0.4)

    def test_signature_packets_protected(self):
        channel = Channel(loss=BernoulliLoss(1.0, seed=1),
                          protect_signature_packets=True)
        packets = _packets(4) + [_signed(5)]
        deliveries = channel.transmit(packets)
        assert [d.packet.seq for d in deliveries] == [5]

    def test_protection_can_be_disabled(self):
        channel = Channel(loss=BernoulliLoss(1.0, seed=1),
                          protect_signature_packets=False)
        assert channel.transmit(_packets(3) + [_signed(4)]) == []

    def test_loss_state_advances_past_protected_packets(self):
        # The protected packet still consumes a loss decision so that
        # the pattern seen by other packets is unchanged.
        trace = [True, False, True]
        with_protection = Channel(loss=TraceLoss(trace))
        packets = [_signed(1), *_packets(2)]
        packets = [packets[0],
                   Packet(seq=2, block_id=0, payload=b"x"),
                   Packet(seq=3, block_id=0, payload=b"y")]
        delivered = {d.packet.seq for d in with_protection.transmit(packets)}
        assert delivered == {1, 2}  # seq 3 ate the second True


class TestDelay:
    def test_arrival_order_can_differ_from_send_order(self):
        channel = Channel(delay=GaussianDelay(mean=0.5, std=0.3, seed=11))
        deliveries = channel.transmit(_packets(50))
        arrival_seqs = [d.packet.seq for d in deliveries]
        assert sorted(arrival_seqs) == list(range(1, 51))
        assert arrival_seqs != list(range(1, 51))  # reordering happened

    def test_arrival_times_sorted(self):
        channel = Channel(delay=GaussianDelay(mean=0.2, std=0.1, seed=3))
        deliveries = channel.transmit(_packets(20))
        times = [d.arrival_time for d in deliveries]
        assert times == sorted(times)

    def test_delay_positive(self):
        channel = Channel(delay=GaussianDelay(mean=0.1, std=0.05, seed=5))
        for delivery in channel.transmit(_packets(100)):
            assert delivery.delay >= 0.0


class TestReset:
    def test_reset_restores_counters_and_models(self):
        channel = Channel(loss=BernoulliLoss(0.5, seed=2))
        first = {d.packet.seq for d in channel.transmit(_packets(20))}
        channel.reset()
        assert channel.sent == 0
        assert channel.dropped == 0
        second = {d.packet.seq for d in channel.transmit(_packets(20))}
        assert first == second


def _transmit_reference(channel, packets):
    """The per-packet channel: count each slot, then a heap of arrivals.

    Test-only reference for :meth:`Channel.transmit`, which tallies the
    block's losses in one pass and sorts the arrivals once.  Returns
    the deliveries and the ``(sent, dropped)`` counts.
    """
    packets = list(packets)
    losses = channel.loss.sample(len(packets))
    heap = []
    sent = dropped_count = 0
    for index, (packet, lost) in enumerate(zip(packets, losses)):
        dropped = lost and not (channel.protect_signature_packets
                                and packet.is_signature_packet)
        sent += 1
        if dropped:
            dropped_count += 1
            continue
        arrival = packet.send_time + channel.delay.sample()
        heapq.heappush(heap, (arrival, packet.seq, index, packet))
    deliveries = [heapq.heappop(heap)[::3] for _ in range(len(heap))]
    return deliveries, (sent, dropped_count)


class TestOnePassTransmit:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 6), st.integers(0, 3),
                              st.booleans()), max_size=40),
           st.floats(0.0, 0.9), st.integers(0, 2 ** 16), st.booleans())
    def test_matches_per_packet_heap(self, specs, p, seed, protect):
        # Few distinct seqs and send times, and a delay floor most
        # draws clamp to, so arrival ties are common.
        packets = [Packet(seq=seq, block_id=0, payload=b"x",
                          signature=b"s" if signed else None,
                          send_time=when * 0.01)
                   for seq, when, signed in specs]

        def channel():
            return Channel(loss=BernoulliLoss(p, seed=seed),
                           delay=GaussianDelay(0.0, 0.02, floor=0.01,
                                               seed=seed + 1),
                           protect_signature_packets=protect)

        fast, slow = channel(), channel()
        got = [(d.arrival_time, d.packet) for d in fast.transmit(packets)]
        expected, counts = _transmit_reference(slow, packets)
        assert [(t, id(q)) for t, q in got] == [
            (t, id(q)) for t, q in expected]
        assert (fast.sent, fast.dropped) == counts
        assert type(fast.dropped) is int
