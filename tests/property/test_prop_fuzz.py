"""Fuzz-style property tests: hostile inputs never crash unexpectedly.

A receiver on the open Internet parses attacker-controlled bytes; the
only acceptable behaviours are clean rejection (``SimulationError`` /
``False`` verdicts) or a successful parse of genuinely valid data —
never an unhandled exception.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.signatures import HmacStubSigner
from repro.exceptions import ReproError
from repro.packets import Packet, packet_from_wire
from repro.schemes.saida import SaidaReceiver
from repro.schemes.wong_lam import verify_wong_lam_packet
from repro.simulation.receiver import ChainReceiver


class TestWireParserFuzz:
    @given(st.binary(max_size=400))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_never_crash(self, blob):
        try:
            packet = packet_from_wire(blob)
        except ReproError:
            return  # clean rejection
        # If it parsed, it must re-serialize consistently.
        assert packet.seq >= 1

    @given(st.binary(min_size=1, max_size=200), st.data())
    @settings(max_examples=150, deadline=None)
    def test_truncations_of_valid_packets_rejected_cleanly(self, payload,
                                                           data):
        packet = Packet(seq=5, block_id=1, payload=payload,
                        carried=((9, b"\xab" * 16),), signature=b"\x01" * 8)
        wire = packet.to_wire()
        cut = data.draw(st.integers(min_value=0, max_value=len(wire) - 1))
        try:
            revived = packet_from_wire(wire[:cut])
        except ReproError:
            return
        assert revived != packet or cut == len(wire)


class TestReceiverFuzz:
    @given(st.binary(max_size=100), st.binary(max_size=64),
           st.integers(min_value=1, max_value=1000))
    @settings(max_examples=150, deadline=None)
    def test_chain_receiver_swallows_garbage_packets(self, payload, extra,
                                                     seq):
        signer = HmacStubSigner(key=b"fuzz")
        receiver = ChainReceiver(signer)
        packet = Packet(seq=seq, block_id=0, payload=payload, extra=extra,
                        signature=b"\x00" * 16)
        receiver.receive(packet, 0.0)
        assert receiver.verdict(seq) is None
        assert receiver.forged_rejected == 1
        assert not receiver.accepted_digests()
        genuine = packet.with_signature(signer.sign(packet.auth_bytes()))
        receiver.receive(genuine, 1.0)
        assert receiver.verdict(seq).verified

    @given(st.binary(max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_wong_lam_verifier_rejects_garbage_extra(self, extra):
        signer = HmacStubSigner(key=b"fuzz")
        packet = Packet(seq=1, block_id=0, payload=b"data", extra=extra,
                        signature=b"\x00" * 16)
        assert verify_wong_lam_packet(packet, signer) is False

    @given(st.binary(min_size=16, max_size=120), st.data())
    @settings(max_examples=100, deadline=None)
    def test_saida_receiver_survives_corrupt_shares(self, junk, data):
        from repro.schemes.saida import SaidaScheme
        from repro.simulation.sender import make_payloads

        signer = HmacStubSigner(key=b"fuzz")
        scheme = SaidaScheme(0.5)
        packets = scheme.make_block(make_payloads(8), signer)
        victim = data.draw(st.integers(min_value=0, max_value=7))
        from dataclasses import replace
        share_header = packets[victim].extra[:16]
        packets[victim] = replace(packets[victim],
                                  extra=share_header + junk)
        receiver = SaidaReceiver(signer)
        for packet in packets:
            receiver.receive(packet)
        # The forged share either breaks reconstruction (block fails,
        # nothing verifies) or was harmlessly excess; never a crash and
        # never a forged payload accepted.
        assert receiver.verified.get(packets[victim].seq) is not True or \
            packets[victim].payload.startswith(b"pkt")
