"""One verify path: ``ChainReceiver.receive`` against the trusting oracle.

Every registry scheme whose trial verifier is a
:class:`~repro.simulation.receiver.ChainReceiver` runs here — the
hash-chained ones, and sign-each, Wong–Lam and the online chain with
their :class:`~repro.schemes.base.ChainEdges` — each receiver built
through ``trial.new_verifier()`` so the scheme's own checks apply.
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
from repro.schemes.registry import make_scheme
from repro.simulation.receiver import ChainReceiver
from repro.simulation.sender import replicate_signature_packets

from tests.oracles import TrustingChainReceiver

SIGNER = HmacStubSigner(key=b"one-verify-path")



def _chain_verified(spec):
    trial = make_scheme(spec).new_trial(SIGNER, 2, 1, seed=0)
    return isinstance(trial.new_verifier(), ChainReceiver)


#: Registry schemes whose trial verifier is the hash-chain receiver.
GRAPH_SPECS = sorted(spec for spec in DEFAULT_SPECS.values()
                     if _chain_verified(spec))

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def loss_only_streams(draw):
    """``(trial, sent, deliveries, max_buffered)`` of one loss-only channel."""
    scheme = make_scheme(draw(st.sampled_from(GRAPH_SPECS)))
    block_size = draw(st.integers(min_value=2, max_value=10))
    copies = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    trial = scheme.new_trial(SIGNER, block_size,
                             draw(st.integers(min_value=1, max_value=3)),
                             seed=seed)
    blocks = {}
    for packet in trial.packets:
        blocks.setdefault(packet.block_id, []).append(packet)
    packets = []
    for block in blocks.values():
        packets.extend(replicate_signature_packets(block, copies))
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
    return trial, packets, channel.transmit(packets), max_buffered


def _receivers(trial, max_buffered):
    """The scheme's receiver and the oracle with the same edges."""
    receiver = trial.new_verifier(max_buffered=max_buffered)
    return receiver, TrustingChainReceiver(
        SIGNER, max_buffered=max_buffered, edges=receiver.edges)


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
    trial, _sent, deliveries, max_buffered = stream
    receiver, oracle = _receivers(trial, max_buffered)
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
    trial, sent, deliveries, max_buffered = stream
    receiver, oracle = _receivers(trial, max_buffered)
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
    trial = make_scheme(spec).new_trial(SIGNER, block_size, 1, seed=1)
    block = trial.packets
    victim = data.draw(st.sampled_from(block))
    receiver = trial.new_verifier(max_candidates=max_candidates)
    for index in range(collisions):
        forged = replace(victim, payload=b"collision-%d" % index)
        receiver.receive(forged, 0.0)
    # A signed collision fails its signature at once.  Otherwise
    # nothing is trusted yet, so each collision waits as a candidate
    # until the slot is full; the rest are turned away.
    held = (0 if victim.signature is not None
            else min(collisions, max_candidates))
    assert receiver.buffered_count == held
    assert receiver.message_buffer_peak == held
    assert receiver.forged_rejected == collisions - held
    for packet in block:
        receiver.receive(packet, 1.0)
    sent = {packet.seq: receiver.content_digest(packet) for packet in block}
    assert all(sent[seq] == digest
               for seq, digest in receiver.accepted_digests().items())
