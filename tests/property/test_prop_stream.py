"""Property-based tests for stream delivery and TESLA semantics."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.signatures import HmacStubSigner
from repro.schemes.emss import EmssScheme
from repro.schemes.tesla import TeslaParameters, TeslaReceiver, TeslaSender
from repro.simulation.sender import make_payloads
from repro.simulation.stream_receiver import StreamReceiver

_SIGNER = HmacStubSigner(key=b"prop-stream")


@st.composite
def delivery_orders(draw):
    """A block, a received-subset, and an arrival order."""
    n = draw(st.integers(min_value=3, max_value=16))
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    keep[-1] = True  # signature packet always arrives (paper assumption)
    indices = [i for i in range(n) if keep[i]]
    order = draw(st.permutations(indices))
    return n, list(order)


class TestStreamReceiverProperties:
    @given(delivery_orders())
    @settings(max_examples=120, deadline=None)
    def test_delivery_always_in_order_and_genuine(self, case):
        n, order = case
        payloads = make_payloads(n)
        packets = EmssScheme(2, 1).make_block(payloads, _SIGNER)
        released = []
        receiver = StreamReceiver(_SIGNER, on_deliver=released.append)
        for index in order:
            receiver.receive(packets[index], 0.0)
        receiver.skip_gap(n)
        seqs = [d.seq for d in released]
        # Strictly increasing, no duplicates, payloads authentic.
        assert seqs == sorted(set(seqs))
        assert receiver.delivered == len(released)
        for delivered in released:
            assert delivered.payload == payloads[delivered.seq - 1]

    @given(delivery_orders())
    @settings(max_examples=80, deadline=None)
    def test_skip_accounting_is_complete(self, case):
        n, order = case
        packets = EmssScheme(2, 1).make_block(make_payloads(n), _SIGNER)
        receiver = StreamReceiver(_SIGNER)
        for index in order:
            receiver.receive(packets[index], 0.0)
        receiver.skip_gap(n)
        assert receiver.delivered + receiver.skipped == n
        assert receiver.pending == 0

    @given(delivery_orders())
    @settings(max_examples=80, deadline=None)
    def test_arrival_order_never_changes_the_verified_set(self, case):
        n, order = case
        packets = EmssScheme(2, 1).make_block(make_payloads(n), _SIGNER)
        in_order_seqs, shuffled_seqs = set(), set()
        in_order = StreamReceiver(
            _SIGNER, on_deliver=lambda d: in_order_seqs.add(d.seq))
        for index in sorted(order):
            in_order.receive(packets[index], 0.0)
        shuffled = StreamReceiver(
            _SIGNER, on_deliver=lambda d: shuffled_seqs.add(d.seq))
        for index in order:
            shuffled.receive(packets[index], 0.0)
        in_order.skip_gap(n)
        shuffled.skip_gap(n)
        assert in_order_seqs == shuffled_seqs


class TestTeslaProperties:
    @given(st.lists(st.booleans(), min_size=8, max_size=24))
    @settings(max_examples=60, deadline=None)
    def test_verified_iff_some_later_disclosure_arrived(self, kept):
        count = len(kept)
        parameters = TeslaParameters(interval=0.05, lag=2,
                                     chain_length=count + 4)
        sender = TeslaSender(parameters, _SIGNER, seed=b"\x0d" * 16)
        receiver = TeslaReceiver(sender.bootstrap_packet(), _SIGNER)
        packets = [sender.send(b"m%d" % i, i * 0.05) for i in range(count)]
        delivered = [p for p, keep in zip(packets, kept) if keep]
        for packet in delivered:
            receiver.receive(packet, packet.send_time + 0.001)
        # No flush: key for interval i rides in data packet i + lag.
        for i, packet in enumerate(packets):
            if not kept[i]:
                continue
            interval = i + 1
            disclosers = [j for j in range(count)
                          if kept[j] and (j + 1) - parameters.lag >= interval]
            verdict = receiver.verdicts[packet.seq].status
            if disclosers:
                assert verdict == "verified"
            else:
                assert verdict == "pending"
