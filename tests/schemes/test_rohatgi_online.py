"""Unit tests for the online (one-time-signature) Gennaro-Rohatgi chain."""

from dataclasses import replace

import pytest

from repro.crypto.signatures import HmacStubSigner
from repro.exceptions import SchemeParameterError
from repro.schemes.rohatgi import RohatgiScheme
from repro.schemes.rohatgi_online import OnlineRohatgiScheme
from repro.simulation.sender import make_payloads


@pytest.fixture
def signer():
    return HmacStubSigner(key=b"online")


@pytest.fixture
def scheme():
    return OnlineRohatgiScheme(seed=b"test-seed")


def _verdicts(trial, packets, verifier=None):
    """Deliver ``packets`` to a fresh verifier; whether each verified.

    A packet that failed its check leaves no record (it never claims
    its slot): it reads as not verified.
    """
    verifier = verifier if verifier is not None else trial.new_verifier()
    for packet in packets:
        verifier.receive(packet, 0.0)
    verifier.finish()
    records = [verifier.verdict(packet.seq) for packet in packets]
    return [record is not None and record.verified for record in records]


class TestStructure:
    def test_same_graph_as_offline(self, scheme):
        online = scheme.build_graph(12)
        offline = RohatgiScheme().build_graph(12)
        assert online == offline

    def test_only_first_packet_ordinary_signed(self, scheme, signer):
        packets = scheme.make_block(make_payloads(5), signer)
        assert packets[0].is_signature_packet
        assert all(p.signature is None for p in packets[1:])

    def test_ots_signatures_present_after_first(self, scheme, signer):
        packets = scheme.make_block(make_payloads(4), signer)
        # extra = 4B header + 32B fingerprint (+ 8KB OTS sig after P_1).
        assert len(packets[0].extra) == 4 + 32
        for packet in packets[1:]:
            assert len(packet.extra) == 4 + 32 + 256 * 32

    def test_overhead_dwarfs_offline(self, scheme):
        online = scheme.metrics(64)
        offline = RohatgiScheme().metrics(64)
        assert online.overhead_bytes > 100 * offline.overhead_bytes
        assert online.delay_slots == 0

    def test_empty_block_rejected(self, scheme, signer):
        with pytest.raises(SchemeParameterError):
            scheme.make_block([], signer)


class TestVerification:
    def test_clean_chain_verifies(self, scheme, signer):
        trial = scheme.new_trial(signer, 6, 1)
        assert _verdicts(trial, trial.packets) == [True] * 6

    def test_single_loss_kills_the_suffix(self, scheme, signer):
        trial = scheme.new_trial(signer, 6, 1)
        survivors = [p for i, p in enumerate(trial.packets) if i != 2]
        # Packets before the gap verify; at and after it, nothing does.
        assert _verdicts(trial, survivors) == [True, True, False, False,
                                               False]

    def test_forged_payload_rejected(self, scheme, signer):
        trial = scheme.new_trial(signer, 6, 1)
        first, second, third = trial.packets[:3]
        forged = replace(second, payload=b"forged")
        # Forgery breaks the chain forward too.
        assert _verdicts(trial, [first, forged, third]) == [True, False,
                                                            False]
        verifier = trial.new_verifier()
        for packet in (first, forged, third):
            verifier.receive(packet, 0.0)
        # Checked on arrival against the key its predecessor committed
        # to, the forgery never claims the slot.
        assert verifier.verdict(second.seq) is None
        assert verifier.forged_rejected == 1

    def test_forged_fingerprint_rejected(self, scheme, signer):
        trial = scheme.new_trial(signer, 6, 1)
        extra = bytearray(trial.packets[0].extra)
        extra[10] ^= 1  # flip a fingerprint bit in the signed packet
        bad_first = replace(trial.packets[0], extra=bytes(extra))
        assert _verdicts(trial, [bad_first]) == [False]

    def test_wrong_root_signer_rejected(self, scheme, signer):
        trial = scheme.new_trial(signer, 6, 1)
        other = OnlineRohatgiScheme(seed=b"test-seed").new_trial(
            HmacStubSigner(key=b"other"), 6, 1)
        assert _verdicts(trial, trial.packets[:1],
                         other.new_verifier()) == [False]

    def test_earlier_block_verifies_after_a_later_one_was_made(self, signer):
        """Key pairs travel with each trial, never on the scheme."""
        scheme = OnlineRohatgiScheme()  # unseeded: fresh key pairs per call
        first = scheme.new_trial(signer, 6, 1)
        scheme.new_trial(signer, 6, 1)
        assert _verdicts(first, first.packets) == [True] * 6

    def test_deterministic_seed(self, signer):
        a = OnlineRohatgiScheme(seed=b"s").make_block(
            make_payloads(3), signer)
        b = OnlineRohatgiScheme(seed=b"s").make_block(
            make_payloads(3), signer)
        assert [p.extra for p in a] == [p.extra for p in b]
