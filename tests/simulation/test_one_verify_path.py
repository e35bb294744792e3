"""One verify path: ``ChainReceiver.receive`` against the trusting oracle.

Every delivery, loss-only or attacked, goes through the same
defensive ``receive``.  On a loss-only channel its extra checks must
change nothing: against
:class:`~tests.oracles.TrustingChainReceiver` (first delivery per
sequence wins, repeats ignored) every verdict, the accepted digests in
order, both buffer peaks, ``evicted`` and ``forged`` agree, and the
only defensive counter that moves is ``replays_dropped``, once per
repeated copy delivered (replicated ``P_sign``).

Two properties pin what the defensive body adds on hostile input:
forgeries never claim a slot (the same stream with forged copies
spliced in leaves every verdict as the oracle has it on the clean
stream, each forgery counted once in ``forged_rejected``), and
same-sequence contention stays within ``max_candidates``.
"""

from collections import Counter
from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.conformance import DEFAULT_SPECS
from repro.crypto.signatures import HmacStubSigner
from repro.network.channel import Channel, Delivery
from repro.network.delay import GaussianDelay
from repro.network.loss import BernoulliLoss, GilbertElliottLoss
from repro.schemes.base import Scheme
from repro.schemes.registry import make_scheme
from repro.simulation.receiver import ChainReceiver
from repro.simulation.sender import (StreamSender, make_payloads,
                                     replicate_signature_packets)

from tests.oracles import TrustingChainReceiver

SIGNER = HmacStubSigner(key=b"one-verify-path")

#: Registry schemes verified by the generic hash-chain receiver.
GRAPH_SPECS = sorted(
    spec for spec in DEFAULT_SPECS.values()
    if type(make_scheme(spec)).new_trial is Scheme.new_trial)

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def loss_only_streams(draw):
    """``(sent, deliveries, max_buffered)`` of one loss-only channel."""
    scheme = make_scheme(draw(st.sampled_from(GRAPH_SPECS)))
    block_size = draw(st.integers(min_value=2, max_value=10))
    copies = draw(st.integers(min_value=1, max_value=3))
    sender = StreamSender(scheme, SIGNER, block_size)
    packets = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        packets.extend(replicate_signature_packets(
            sender.send_block(make_payloads(block_size)), copies))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    if draw(st.booleans()):
        loss = BernoulliLoss(draw(st.sampled_from([0.0, 0.2, 0.5])),
                             seed=seed)
    else:
        loss = GilbertElliottLoss(0.2, 0.4, seed=seed)
    delay = (GaussianDelay(0.02, 0.02, seed=seed + 1)
             if draw(st.booleans()) else None)
    channel = Channel(loss=loss, delay=delay,
                      protect_signature_packets=False)
    max_buffered = draw(st.sampled_from([None, 1, 2, 4]))
    return packets, channel.transmit(packets), max_buffered


def _record(outcome):
    if outcome is None:
        return None
    return (outcome.arrival_time, outcome.verified, outcome.verified_time,
            outcome.forged)


def _state(receiver, seqs):
    return {
        "verdicts": {seq: _record(receiver.verdict(seq)) for seq in seqs},
        "accepted": list(receiver.accepted_digests().items()),
        "peaks": (receiver.message_buffer_peak, receiver.hash_buffer_peak),
        "evicted": receiver.evicted,
        "forged": receiver.forged,
    }


def _repeats(deliveries):
    counts = Counter(delivery.packet.seq for delivery in deliveries)
    return sum(count - 1 for count in counts.values())


@given(loss_only_streams())
@SETTINGS
def test_loss_only_streams_match_the_trusting_oracle(stream):
    _sent, deliveries, max_buffered = stream
    oracle = TrustingChainReceiver(SIGNER, max_buffered=max_buffered)
    receiver = ChainReceiver(SIGNER, max_buffered=max_buffered)
    for delivery in deliveries:
        packet, arrival = delivery.packet, delivery.arrival_time
        assert _record(receiver.receive(packet, arrival)) == \
            _record(oracle.receive(packet, arrival))
    seqs = {delivery.packet.seq for delivery in deliveries}
    assert _state(receiver, seqs) == _state(oracle, seqs)
    assert receiver.replays_dropped == _repeats(deliveries)
    assert receiver.forged_rejected == 0
    assert receiver.undecodable == 0


def _forge(packet):
    return replace(packet, payload=b"forged" + packet.payload)


@given(loss_only_streams(), st.data())
@SETTINGS
def test_forgeries_never_claim_a_slot(stream, data):
    sent, deliveries, max_buffered = stream
    oracle = TrustingChainReceiver(SIGNER, max_buffered=max_buffered)
    for delivery in deliveries:
        oracle.receive(delivery.packet, delivery.arrival_time)
    # Forged P_sign copies anywhere in the stream: the signature fails
    # whatever arrived before.
    hostile = list(deliveries)
    signed = [d for d in deliveries if d.packet.signature is not None]
    if signed:
        for delivery in data.draw(st.lists(st.sampled_from(signed),
                                           max_size=4)):
            hostile.insert(data.draw(st.integers(0, len(hostile))),
                           replace(delivery, packet=_forge(delivery.packet)))
    # Then a forged copy of every packet that mismatches on arrival:
    # it verified, or nothing arrived and it is signed or its hash is
    # trusted.
    end = max((d.arrival_time for d in deliveries), default=0.0) + 1.0
    for packet in {packet.seq: packet for packet in sent}.values():
        outcome = oracle.verdict(packet.seq)
        if (outcome.verified if outcome is not None
                else packet.signature is not None
                or packet.seq in oracle.trusted):
            hostile.append(Delivery(end, _forge(packet)))
    receiver = ChainReceiver(SIGNER, max_buffered=max_buffered)
    for delivery in hostile:
        receiver.receive(delivery.packet, delivery.arrival_time)
    seqs = {packet.seq for packet in sent}
    assert _state(receiver, seqs) == _state(oracle, seqs)
    assert receiver.forged_rejected == len(hostile) - len(deliveries)
    assert receiver.replays_dropped == _repeats(deliveries)


@given(st.sampled_from(GRAPH_SPECS), st.integers(min_value=3, max_value=8),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=8), st.data())
@SETTINGS
def test_slot_contention_is_capped(spec, block_size, max_candidates,
                                   collisions, data):
    block = make_scheme(spec).make_block(make_payloads(block_size), SIGNER)
    victim = data.draw(st.sampled_from(
        [packet for packet in block if packet.signature is None]))
    receiver = ChainReceiver(SIGNER, max_candidates=max_candidates)
    for index in range(collisions):
        forged = replace(victim, payload=b"collision-%d" % index)
        receiver.receive(forged, 0.0)
    # Nothing is trusted yet, so each collision waits as a candidate
    # until the slot is full; the rest are turned away.
    held = min(collisions, max_candidates)
    assert receiver.buffered_count == held
    assert receiver.message_buffer_peak == held
    assert receiver.forged_rejected == collisions - held
    for packet in block:
        receiver.receive(packet, 1.0)
    sent = {packet.seq: receiver.content_digest(packet) for packet in block}
    assert all(sent[seq] == digest
               for seq, digest in receiver.accepted_digests().items())
