"""SAIDA sessions through the trial kernel."""

import pytest

from repro.analysis import saida as analysis
from repro.crypto.signatures import HmacStubSigner
from repro.exceptions import SimulationError
from repro.network.channel import Channel
from repro.network.loss import BernoulliLoss
from repro.schemes.saida import SaidaScheme
from repro.simulation import run_session


@pytest.fixture
def signer():
    return HmacStubSigner(key=b"saida-sess")


class TestSaidaSession:
    def test_lossless_everything_verifies(self, signer):
        stats = run_session(SaidaScheme(0.5), 16, 4, Channel(),
                            signer=signer)
        assert stats.q_min == 1.0

    def test_matches_closed_form(self, signer):
        scheme = SaidaScheme(0.5)
        n, p = 20, 0.35
        stats = run_session(
            scheme, n, 150,
            Channel(loss=BernoulliLoss(p, seed=3),
                    protect_signature_packets=False),
            signer=signer)
        predicted = analysis.q_i(n, scheme.threshold(n), p)
        assert stats.overall_q == pytest.approx(predicted, abs=0.05)

    def test_buffer_peak_bounded_by_threshold(self, signer):
        scheme = SaidaScheme(0.5)
        stats = run_session(scheme, 20, 3, Channel(), signer=signer)
        assert stats.message_buffer_peak <= scheme.threshold(20)

    def test_validation(self, signer):
        with pytest.raises(SimulationError):
            run_session(SaidaScheme(0.5), 10, 0, Channel(), signer=signer)

    def test_above_cliff_collapses(self, signer):
        scheme = SaidaScheme(0.8)  # survives only < 20% loss
        stats = run_session(
            scheme, 20, 60,
            Channel(loss=BernoulliLoss(0.5, seed=4),
                    protect_signature_packets=False),
            signer=signer)
        assert stats.overall_q < 0.05
