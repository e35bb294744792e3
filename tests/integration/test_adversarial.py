"""Adversarial integration tests: forgeries must never verify.

The paper's setting assumes untrusted receivers who may inject
packets.  These tests play that adversary against every scheme:
tampered payloads, spliced hashes, replayed signatures, forged TESLA
keys — nothing may reach "verified".
"""

from dataclasses import replace

import pytest

from repro.crypto.signatures import HmacStubSigner
from repro.schemes.emss import EmssScheme
from repro.schemes.rohatgi import RohatgiScheme
from repro.schemes.tesla import TeslaParameters, TeslaReceiver, TeslaSender
from repro.schemes.wong_lam import WongLamScheme, verify_wong_lam_packet
from repro.simulation.receiver import ChainReceiver
from repro.simulation.sender import make_payloads


@pytest.fixture
def signer():
    return HmacStubSigner(key=b"honest-sender")


class TestChainForgery:
    def test_payload_substitution_detected(self, signer):
        packets = EmssScheme(2, 1).make_block(make_payloads(6), signer)
        receiver = ChainReceiver(signer)
        for packet in packets:
            if packet.seq == 3:
                packet = replace(packet, payload=b"injected!" * 3)
            receiver.receive(packet, 0.0)
        assert not receiver.outcomes[3].verified
        assert receiver.outcomes[3].forged

    def test_hash_splicing_detected(self, signer):
        """Swap a carried hash to redirect trust — must fail somewhere."""
        packets = EmssScheme(2, 1).make_block(make_payloads(6), signer)
        victim = packets[4]
        foreign_digest = packets[5].carried[0][1]
        spliced_carried = tuple(
            (target, foreign_digest) for target, _ in victim.carried
        )
        spliced = replace(victim, carried=spliced_carried)
        receiver = ChainReceiver(signer)
        for packet in packets[:4] + [spliced, packets[5]]:
            receiver.receive(packet, 0.0)
        # The spliced packet's own hash no longer matches what the
        # signature packet carries for it.
        assert not receiver.outcomes[spliced.seq].verified

    def test_cross_block_replay_rejected(self, signer):
        scheme = RohatgiScheme()
        block_a = scheme.make_block(make_payloads(4, tag=b"a"), signer,
                                    block_id=0, base_seq=1)
        block_b = scheme.make_block(make_payloads(4, tag=b"b"), signer,
                                    block_id=1, base_seq=5)
        receiver = ChainReceiver(signer)
        receiver.receive(block_a[0], 0.0)
        # Replay block B's second packet renumbered into block A's slot.
        foreign = replace(block_b[1], seq=2, block_id=0)
        receiver.receive(foreign, 0.0)
        assert receiver.verdict(2) is None
        assert receiver.forged_rejected == 1
        receiver.receive(block_a[1], 0.5)
        assert receiver.verdict(2).verified
        assert receiver.accepted_digests()[2] == \
            receiver.content_digest(block_a[1])

    def test_unsigned_root_claim_rejected(self, signer):
        packets = RohatgiScheme().make_block(make_payloads(3), signer)
        stripped = replace(packets[0], signature=b"\x00" * 128)
        receiver = ChainReceiver(signer)
        receiver.receive(stripped, 0.0)
        assert receiver.verdict(1) is None
        assert receiver.forged_rejected == 1
        for packet in packets:
            receiver.receive(packet, 0.5)
        assert receiver.verified_count() == 3


class TestWongLamForgery:
    def test_proof_transplant_rejected(self, signer):
        packets = WongLamScheme().make_block(make_payloads(8), signer)
        # Give packet 3 packet 5's proof.
        franken = replace(packets[3], extra=packets[5].extra)
        assert not verify_wong_lam_packet(franken, signer)

    def test_signature_transplant_across_blocks(self, signer):
        first = WongLamScheme().make_block(make_payloads(4, tag=b"x"), signer)
        second = WongLamScheme().make_block(make_payloads(4, tag=b"y"),
                                            signer, block_id=1, base_seq=5)
        franken = replace(second[0], signature=first[0].signature,
                          seq=first[0].seq, block_id=0)
        assert not verify_wong_lam_packet(franken, signer)


class TestTeslaForgery:
    def _session(self, signer):
        parameters = TeslaParameters(interval=0.05, lag=2, chain_length=32)
        sender = TeslaSender(parameters, signer, seed=b"\x02" * 16)
        receiver = TeslaReceiver(sender.bootstrap_packet(), signer)
        return sender, receiver

    def test_forged_payload_fails_mac(self, signer):
        sender, receiver = self._session(signer)
        genuine = sender.send(b"price=100", 0.0)
        forged = replace(genuine, payload=b"price=999")
        receiver.receive(forged, 0.01)
        for packet in sender.flush_keys(1):
            receiver.receive(packet, packet.send_time + 0.01)
        assert receiver.verdicts[forged.seq].status == "bad-mac"

    def test_key_disclosure_cannot_be_front_run(self, signer):
        """An attacker replaying a packet after its key disclosure must
        hit the security condition, even with a valid MAC."""
        sender, receiver = self._session(signer)
        genuine = sender.send(b"data", 0.0)  # interval 1
        # Replay far past K_1's disclosure time (0.1 s).
        receiver.receive(genuine, 0.5)
        assert receiver.verdicts[genuine.seq].status == "unsafe"
