"""Unit tests for the receiver-delay distribution analysis."""

import pytest

from repro.analysis.delay import DelayDistribution, worst_delay_distribution
from repro.crypto.signatures import HmacStubSigner
from repro.exceptions import AnalysisError
from repro.network.channel import Channel
from repro.network.delay import GaussianDelay
from repro.schemes.emss import EmssScheme
from repro.schemes.rohatgi import RohatgiScheme
from repro.simulation import run_session


class TestDistribution:
    def test_cdf_monotone(self):
        law = DelayDistribution(mean=0.5, std=0.1)
        values = [law.cdf(t) for t in (0.2, 0.4, 0.5, 0.6, 0.8)]
        assert values == sorted(values)
        assert law.cdf(0.5) == pytest.approx(0.5)

    def test_quantile_inverts_cdf(self):
        law = DelayDistribution(mean=1.0, std=0.2)
        for q in (0.1, 0.5, 0.9, 0.99):
            assert law.cdf(law.quantile(q)) == pytest.approx(q, abs=1e-6)

    def test_degenerate_zero_std(self):
        law = DelayDistribution(mean=0.3, std=0.0)
        assert law.cdf(0.29) == 0.0
        assert law.cdf(0.3) == 1.0
        assert law.quantile(0.9) == 0.3

    def test_quantile_validation(self):
        with pytest.raises(AnalysisError):
            DelayDistribution(1.0, 0.1).quantile(0.0)

    def test_buffer_time_alias(self):
        law = DelayDistribution(mean=1.0, std=0.2)
        assert law.buffer_time_for(0.95) == law.quantile(0.95)


class TestWorstDelayDistribution:
    def test_rohatgi_has_zero_mean(self):
        graph = RohatgiScheme().build_graph(20)
        law = worst_delay_distribution(graph, t_transmit=0.01,
                                       jitter_std=0.005)
        assert law.mean == 0.0
        assert law.std == pytest.approx(0.005 * 2 ** 0.5)

    def test_emss_mean_is_block_span(self):
        n = 20
        graph = EmssScheme(2, 1).build_graph(n)
        law = worst_delay_distribution(graph, t_transmit=0.01,
                                       jitter_std=0.0)
        assert law.mean == pytest.approx((n - 1) * 0.01)

    def test_validation(self):
        graph = RohatgiScheme().build_graph(5)
        with pytest.raises(AnalysisError):
            worst_delay_distribution(graph, 0.0, 0.01)
        with pytest.raises(AnalysisError):
            worst_delay_distribution(graph, 0.01, -0.1)

    def test_matches_simulated_delays(self):
        """The analytic law brackets the simulator's measured delays."""
        n, t_transmit, sigma = 16, 0.01, 0.004
        scheme = EmssScheme(2, 1)
        signer = HmacStubSigner(key=b"delay")
        channel = Channel(delay=GaussianDelay(mean=0.05, std=sigma,
                                              seed=9))
        stats = run_session(scheme, n, 40, channel, signer=signer,
                            t_transmit=t_transmit)
        law = worst_delay_distribution(scheme.build_graph(n), t_transmit,
                                       sigma)
        # The worst packet (first of each block) waits ~ the law's mean.
        assert stats.max_delay <= law.quantile(0.9999) + 1e-6
        assert stats.max_delay >= law.mean - 4 * law.std
