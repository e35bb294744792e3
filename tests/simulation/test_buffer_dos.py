"""Buffer-DoS regression: flooding cannot unbound receiver memory.

The paper notes the buffering that chained schemes require "is subject
to Denial of Service attacks".  A ``ChainReceiver(max_buffered=k)``
flooded with unverifiable packets must keep its message buffer at
``k``, evict deterministically, and still verify legitimate packets
arriving afterwards.
"""

import pytest

from repro.crypto.signatures import HmacStubSigner
from repro.packets import Packet
from repro.schemes.emss import EmssScheme
from repro.schemes.rohatgi import RohatgiScheme
from repro.simulation.receiver import ChainReceiver
from repro.simulation.sender import make_payloads

FLOOD = 100
CAP = 8


@pytest.fixture
def signer():
    return HmacStubSigner(key=b"buffer-dos-test")


def _flood_packets(count, base_seq=10_000):
    """Unverifiable chaff: no signature, no trusted hash will ever come."""
    return [Packet(seq=base_seq + i, block_id=99,
                   payload=b"flood %d" % i) for i in range(count)]


class TestBoundedMemory:
    def test_buffer_never_exceeds_cap(self, signer):
        receiver = ChainReceiver(signer, max_buffered=CAP)
        for packet in _flood_packets(FLOOD):
            receiver.ingest_wire(packet.to_wire(), 0.0)
        assert receiver.buffered_count == CAP
        assert receiver.message_buffer_peak <= CAP
        assert receiver.evicted == FLOOD - CAP

    def test_eviction_is_deterministic(self, signer):
        def run():
            receiver = ChainReceiver(signer, max_buffered=CAP)
            for packet in _flood_packets(FLOOD):
                receiver.ingest_wire(packet.to_wire(), 0.0)
            return sorted(seq for seq, o in receiver.outcomes.items()
                          if not o.verified), receiver.evicted

        assert run() == run()

    def test_oldest_lowest_seq_evicted_first(self, signer):
        receiver = ChainReceiver(signer, max_buffered=CAP)
        packets = _flood_packets(FLOOD)
        for packet in packets:
            receiver.ingest_wire(packet.to_wire(), 0.0)
        # The survivors are exactly the CAP highest sequence numbers.
        survivors = {seq for seq in receiver.outcomes
                     if receiver._buffered.get(seq)}
        assert survivors == {p.seq for p in packets[-CAP:]}


class TestLegitTrafficSurvives:
    def test_signed_stream_verifies_after_flood(self, signer):
        receiver = ChainReceiver(signer, max_buffered=CAP)
        for packet in _flood_packets(FLOOD):
            receiver.ingest_wire(packet.to_wire(), 0.0)
        block = RohatgiScheme().make_block(make_payloads(6), signer)
        for packet in block:
            receiver.ingest_wire(packet.to_wire(), 1.0)
        assert all(receiver.outcomes[p.seq].verified for p in block)

    def test_flood_between_chain_and_signature(self, signer):
        """Chaff arriving mid-block evicts itself, not the genuine block.

        Eviction drops the lowest buffered sequence first (oldest in
        stream order), so chaff claiming stale low sequences churns
        through the buffer while the in-flight block survives and
        verifies when its signature lands.
        """
        block = EmssScheme(2, 1).make_block(make_payloads(6), signer,
                                            base_seq=50_000)
        receiver = ChainReceiver(signer, max_buffered=len(block) + CAP)
        for packet in block[:-1]:
            receiver.ingest_wire(packet.to_wire(), 0.0)
        for packet in _flood_packets(FLOOD, base_seq=100):
            receiver.ingest_wire(packet.to_wire(), 0.5)
        # Signature packet arrives last and cascades.
        receiver.ingest_wire(block[-1].to_wire(), 1.0)
        assert all(receiver.outcomes[p.seq].verified for p in block)
        assert receiver.buffered_count <= len(block) + CAP

    def test_flood_can_evict_genuine_when_cap_too_small(self, signer):
        """Documented failure mode: a tight cap sacrifices genuine
        packets under flood (they evict first — lowest seq), but the
        receiver stays bounded and alive."""
        block = EmssScheme(2, 1).make_block(make_payloads(6), signer)
        receiver = ChainReceiver(signer, max_buffered=4)
        for packet in block[:-1]:
            receiver.ingest_wire(packet.to_wire(), 0.0)
        for packet in _flood_packets(FLOOD):
            receiver.ingest_wire(packet.to_wire(), 0.5)
        receiver.ingest_wire(block[-1].to_wire(), 1.0)
        assert receiver.buffered_count <= 4
        assert receiver.outcomes[block[-1].seq].verified
        assert not all(receiver.outcomes[p.seq].verified
                       for p in block[:-1])


@pytest.mark.parametrize("name", ["rohatgi-online", "sign-each", "wong-lam"])
def test_trial_kernel_caps_every_chain_verified_scheme(name):
    # These schemes verify through ChainReceiver, so the kernel's
    # message-buffer cap reaches their verifier too.
    from repro.analysis.conformance import default_scheme
    from repro.simulation.trials import SeededChannels, run_trials

    scheme = default_scheme(name)
    capped, = run_trials(scheme, 8, 0, 3,
                         SeededChannels.for_scheme(scheme, 0.3, 5),
                         max_buffered=2)
    assert capped.message_buffer_peak <= 2
    assert sum(t.verified for t in capped.tallies.values()) > 0
