"""Integration-style tests for full sender→channel→receiver sessions."""

import pytest

from repro.crypto.signatures import HmacStubSigner
from repro.exceptions import SimulationError
from repro.network.channel import Channel
from repro.network.delay import GaussianDelay
from repro.network.loss import BernoulliLoss, NoLoss, TraceLoss
from repro.schemes.emss import EmssScheme
from repro.schemes.rohatgi import RohatgiScheme
from repro.schemes.sign_each import SignEachScheme
from repro.schemes.tesla import TeslaParameters, TeslaScheme
from repro.schemes.wong_lam import WongLamScheme
from repro.simulation import run_session


@pytest.fixture
def signer():
    return HmacStubSigner(key=b"sess")


class TestChainSession:
    def test_lossless_everything_verifies(self, signer):
        stats = run_session(EmssScheme(2, 1), 10, 3, Channel(),
                            signer=signer)
        assert stats.q_min == 1.0
        assert stats.forged == 0

    def test_lossy_q_below_one(self, signer):
        channel = Channel(loss=BernoulliLoss(0.3, seed=5))
        stats = run_session(EmssScheme(2, 1), 20, 10, channel,
                            signer=signer)
        assert 0.0 <= stats.q_min < 1.0
        assert stats.observed_loss_rate == pytest.approx(0.3, abs=0.07)

    def test_rohatgi_suffix_loss(self, signer):
        # Lose exactly packet 2 of 5: positions 3..5 become unverifiable.
        channel = Channel(loss=TraceLoss(
            [False, True, False, False, False]))
        stats = run_session(RohatgiScheme(), 5, 1, channel, signer=signer)
        profile = stats.q_profile()
        assert profile[1] == 1.0
        assert profile[3] == 0.0
        assert profile[5] == 0.0

    def test_stats_accumulate_across_calls(self, signer):
        stats = run_session(EmssScheme(2, 1), 10, 1, Channel(),
                            signer=signer)
        stats = stats.merge(run_session(
            EmssScheme(2, 1), 10, 1, Channel(loss=BernoulliLoss(1.0, seed=1)),
            signer=signer))
        # Second run lost all data packets; tallies should reflect both.
        assert stats.tallies[1].received == 1

    def test_delays_match_block_structure(self, signer):
        stats = run_session(EmssScheme(2, 1), 10, 1, Channel(),
                            signer=signer, t_transmit=0.01)
        # First packet waits for the signature: 9 slots of 10 ms.
        assert stats.max_delay == pytest.approx(0.09, abs=1e-6)

    def test_validation(self, signer):
        with pytest.raises(SimulationError):
            run_session(EmssScheme(2, 1), 10, 0, Channel(), signer=signer)


class TestIndividualSession:
    @pytest.mark.parametrize("scheme", [WongLamScheme(), SignEachScheme()])
    def test_q_always_one_under_loss(self, scheme, signer):
        channel = Channel(loss=BernoulliLoss(0.5, seed=7),
                          protect_signature_packets=False)
        stats = run_session(scheme, 16, 4, channel, signer=signer)
        assert stats.q_min == 1.0
        assert stats.forged == 0


class TestTeslaSession:
    def test_lossless_all_verify(self, signer):
        parameters = TeslaParameters(interval=0.05, lag=3, chain_length=64)
        stats = run_session(TeslaScheme(parameters), 30, 1, Channel(),
                            signer=signer)
        assert stats.q_min == 1.0

    def test_lossy_profile_shape(self, signer):
        parameters = TeslaParameters(interval=0.05, lag=3, chain_length=64)
        channel = Channel(loss=BernoulliLoss(0.4, seed=11))
        stats = run_session(TeslaScheme(parameters), 60, 1, channel,
                            signer=signer)
        # Early packets have many later disclosure chances; lambda is
        # 1 - p^(n+1-i), so early positions should do no worse overall.
        profile = stats.q_profile()
        early = [profile[i] for i in sorted(profile) if i <= 20 and i in profile]
        assert min(early, default=1.0) >= 0.5

    def test_delay_eats_into_xi(self, signer):
        parameters = TeslaParameters(interval=0.05, lag=2, chain_length=64)
        # Mean delay near the disclosure delay: many packets unsafe.
        channel = Channel(delay=GaussianDelay(mean=0.12, std=0.02, seed=3))
        stats = run_session(TeslaScheme(parameters), 40, 1, channel,
                            signer=signer)
        assert stats.q_min < 0.8

    def test_packet_count_bounds(self, signer):
        parameters = TeslaParameters(interval=0.05, lag=2, chain_length=8)
        with pytest.raises(SimulationError):
            run_session(TeslaScheme(parameters), 9, 1, Channel(),
                        signer=signer)
        with pytest.raises(SimulationError):
            run_session(TeslaScheme(parameters), 0, 1, Channel(),
                        signer=signer)

    def test_message_buffer_tracks_lag(self, signer):
        parameters = TeslaParameters(interval=0.05, lag=4, chain_length=64)
        stats = run_session(TeslaScheme(parameters), 30, 1,
                            Channel(loss=NoLoss()), signer=signer)
        assert 1 <= stats.message_buffer_peak <= 6
