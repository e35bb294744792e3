"""Unit tests for the sign-each baseline."""

from dataclasses import replace

import pytest

from repro.crypto.signatures import HmacStubSigner
from repro.exceptions import SchemeParameterError
from repro.schemes.sign_each import SignEachScheme


@pytest.fixture
def signer():
    return HmacStubSigner(key=b"se")


@pytest.fixture
def scheme():
    return SignEachScheme()


class TestScheme:
    def test_no_graph(self, scheme):
        assert scheme.build_graph(5) is None
        assert scheme.individually_verifiable

    def test_every_packet_signed_individually(self, scheme, signer):
        packets = scheme.make_block([b"a", b"b", b"c"], signer)
        assert all(p.is_signature_packet for p in packets)
        assert len({p.signature for p in packets}) == 3

    def test_each_verifies_alone(self, scheme, signer):
        trial = scheme.new_trial(signer, 2, 1)
        for packet in trial.packets:
            verifier = trial.new_verifier()
            verifier.receive(packet, 0.0)
            assert verifier.verdict(packet.seq).verified

    def test_tampering_rejected(self, scheme, signer):
        trial = scheme.new_trial(signer, 1, 1)
        verifier = trial.new_verifier()
        verifier.receive(replace(trial.packets[0], payload=b"evil"), 0.0)
        assert verifier.verdict(trial.packets[0].seq) is None
        assert verifier.forged_rejected == 1

    def test_unsigned_rejected(self, scheme, signer):
        trial = scheme.new_trial(signer, 1, 1)
        verifier = trial.new_verifier()
        verifier.receive(replace(trial.packets[0], signature=None), 0.0)
        record = verifier.verdict(trial.packets[0].seq)
        assert record is not None and not record.verified

    def test_empty_block_rejected(self, scheme, signer):
        with pytest.raises(SchemeParameterError):
            scheme.make_block([], signer)


class TestMetrics:
    def test_full_signature_per_packet(self, scheme):
        metrics = scheme.metrics(100, l_sign=128)
        assert metrics.overhead_bytes == 128.0
        assert metrics.mean_hashes == 0.0

    def test_no_delay_or_buffers(self, scheme):
        metrics = scheme.metrics(10)
        assert metrics.delay_slots == 0
        assert metrics.message_buffer == 0
        assert metrics.hash_buffer == 0
