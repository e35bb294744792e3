"""Unit tests for the Monte Carlo runners."""

import pytest

from repro.exceptions import SimulationError
from repro.schemes.emss import EmssScheme
from repro.schemes.rohatgi import RohatgiScheme
from repro.schemes.tesla import TeslaParameters, TeslaScheme
from repro.schemes.wong_lam import WongLamScheme
from repro.simulation import (
    SeededChannels,
    WireTrialConfig,
    run_trials,
    wire_monte_carlo,
)
from repro.analysis import rohatgi as rohatgi_analysis
from repro.analysis import tesla as tesla_analysis


class TestWireMonteCarlo:
    def test_rohatgi_matches_closed_form(self):
        n, p = 10, 0.2
        config = WireTrialConfig(block_size=n, trials=400, loss_rate=p,
                                 seed=3)
        stats = wire_monte_carlo(RohatgiScheme(), config)
        profile = stats.q_profile()
        for position in (3, 6, 10):
            expected = rohatgi_analysis.q_i(position, p)
            assert profile[position] == pytest.approx(expected, abs=0.08)

    def test_individually_verifiable_path(self):
        config = WireTrialConfig(block_size=8, trials=10, loss_rate=0.3)
        stats = wire_monte_carlo(WongLamScheme(), config)
        assert stats.q_min == 1.0

    def test_no_forgeries_in_loss_only_world(self):
        config = WireTrialConfig(block_size=16, trials=20, loss_rate=0.4)
        stats = wire_monte_carlo(EmssScheme(2, 1), config)
        assert stats.forged == 0

    def test_trials_validation(self):
        with pytest.raises(SimulationError):
            wire_monte_carlo(RohatgiScheme(),
                             WireTrialConfig(trials=0))


def _tesla_trials(parameters, packet_count, trials, loss_rate,
                  delay_mean=0.0, delay_std=0.0):
    scheme = TeslaScheme(parameters)
    channels = SeededChannels.for_scheme(scheme, loss_rate, 11, delay_mean,
                                         delay_std)
    return run_trials(scheme, packet_count, 0, trials, channels)[0]


class TestTeslaMonteCarlo:
    def test_matches_eq7_at_zero_delay(self):
        parameters = TeslaParameters(interval=0.05, lag=4, chain_length=64)
        p = 0.3
        stats = _tesla_trials(parameters, 50, 60, p)
        # With no network delay xi = 1, so q_min -> 1 - p at the tail.
        profile = stats.q_profile()
        tail = profile[max(profile)]
        assert tail == pytest.approx(1 - p, abs=0.1)

    def test_gaussian_delay_reduces_q(self):
        parameters = TeslaParameters(interval=0.05, lag=4, chain_length=64)
        t_disclose = parameters.disclosure_delay
        mu, sigma = 0.15, 0.05
        stats = _tesla_trials(parameters, 50, 60, 0.0, delay_mean=mu,
                              delay_std=sigma)
        predicted_xi = tesla_analysis.xi(t_disclose, mu, sigma)
        assert stats.overall_q == pytest.approx(predicted_xi, abs=0.12)

    def test_trials_validation(self):
        parameters = TeslaParameters(chain_length=8)
        with pytest.raises(SimulationError):
            run_trials(TeslaScheme(parameters), 4, -1, 1,
                       SeededChannels(0.1, 11))
