"""End-to-end integration: real crypto, real packets, real channels.

Unlike the unit suites these use the *real* RSA signer (small modulus
for speed) and full wire serialization, exercising every layer at once:
scheme → block builder → wire format → channel → receiver → stats.
"""

import pytest

from repro.crypto.signatures import LamportSigner, RsaSigner
from repro.network.channel import Channel
from repro.network.delay import GaussianDelay
from repro.network.loss import BernoulliLoss
from repro.packets import packet_from_wire
from repro.schemes.augmented_chain import AugmentedChainScheme
from repro.schemes.emss import EmssScheme
from repro.schemes.rohatgi import RohatgiScheme
from repro.schemes.tesla import TeslaParameters, TeslaReceiver, TeslaSender
from repro.schemes.wong_lam import WongLamScheme, verify_wong_lam_packet
from repro.simulation.receiver import ChainReceiver
from repro.simulation.sender import StreamSender, make_payloads
from repro.simulation import run_session


@pytest.fixture(scope="module")
def rsa_signer():
    return RsaSigner.generate(512)


class TestRsaBackedSessions:
    @pytest.mark.parametrize("scheme", [
        RohatgiScheme(), EmssScheme(2, 1), AugmentedChainScheme(2, 2),
    ])
    def test_lossless_session_verifies_everything(self, scheme, rsa_signer):
        stats = run_session(scheme, 9, 2, Channel(), signer=rsa_signer)
        assert stats.q_min == 1.0
        assert stats.forged == 0

    def test_lossy_delayed_session(self, rsa_signer):
        channel = Channel(loss=BernoulliLoss(0.2, seed=21),
                          delay=GaussianDelay(mean=0.05, std=0.02, seed=22))
        stats = run_session(EmssScheme(2, 1), 16, 3, channel,
                            signer=rsa_signer)
        assert stats.forged == 0
        assert 0.0 < stats.overall_q <= 1.0


class TestWireSerializationInTheLoop:
    def test_blocks_survive_serialization(self, rsa_signer):
        """Serialize every packet to bytes and back before receiving."""
        sender = StreamSender(EmssScheme(2, 1), rsa_signer, block_size=8)
        receiver = ChainReceiver(rsa_signer)
        packets = sender.send_block(make_payloads(8))
        for packet in packets:
            revived = packet_from_wire(packet.to_wire())
            receiver.receive(revived, revived.send_time)
        assert receiver.verified_count() == 8

    def test_wong_lam_survives_serialization(self, rsa_signer):
        packets = WongLamScheme().make_block(make_payloads(6), rsa_signer)
        for packet in packets:
            revived = packet_from_wire(packet.to_wire())
            assert verify_wong_lam_packet(revived, rsa_signer)


class TestLamportBootstrap:
    def test_tesla_with_lamport_bootstrap(self):
        """TESLA's single bootstrap signature suits a one-time scheme."""
        signer = LamportSigner.generate(seed=b"tesla-ots")
        parameters = TeslaParameters(interval=0.05, lag=2, chain_length=16)
        sender = TeslaSender(parameters, signer, seed=b"\x01" * 16)
        bootstrap = sender.bootstrap_packet()
        receiver = TeslaReceiver(bootstrap, signer)
        packets = [sender.send(b"tick %d" % i, i * 0.05) for i in range(8)]
        for packet in packets + sender.flush_keys(8):
            receiver.receive(packet, packet.send_time + 0.005)
        assert receiver.counts().get("verified") == 8


class TestMultiBlockStream:
    def test_long_stream_with_loss(self, rsa_signer):
        channel = Channel(loss=BernoulliLoss(0.15, seed=33))
        stats = run_session(AugmentedChainScheme(2, 2), 13, 5, channel,
                            signer=rsa_signer)
        # Five blocks of 13: every position tallied 5 times.
        assert all(t.received <= 5 for t in stats.tallies.values())
        assert len(stats.tallies) == 13
        assert stats.forged == 0
