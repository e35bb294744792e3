"""Exact ``q_i`` of ``E_{m,1}`` under Markov loss.

The frontier engine carries the channel state; the joint
(channel state, unverifiable run) chain in ``tests/oracles.py`` is its
oracle on Gilbert–Elliott channels, which are reversible.
"""

import pytest

from repro.analysis.exact_chain import exact_q_profile
from repro.analysis.frontier import frontier_q_profile
from repro.analysis.montecarlo import graph_monte_carlo_model
from repro.exceptions import AnalysisError
from repro.network.loss import GilbertElliottLoss
from repro.schemes.emss import EmssScheme

from tests.oracles import (
    gilbert_elliott_q_min,
    markov_chain_q_min,
    markov_chain_q_profile,
)

_GE = [[0.95, 0.05], [0.25, 0.75]]
_GE_RATES = [0.0, 1.0]


def engine_q_min(n: int, m: int, rate: float, burst: float) -> float:
    """The engine's ``q_min`` of ``E_{m,1}`` on a Gilbert–Elliott channel."""
    model = GilbertElliottLoss.from_rate_and_burst(rate, burst)
    return min(frontier_q_profile(EmssScheme(m, 1).block_plan(n),
                                  model).values())


class TestDegenerations:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("p", [0.0, 0.2, 0.5, 1.0])
    def test_single_state_is_iid(self, m, p):
        markov = markov_chain_q_profile(40, m, [[1.0]], [p])
        iid = exact_q_profile(40, m, p)
        for a, b in zip(markov, iid):
            assert a == pytest.approx(b, abs=1e-12)

    def test_lossless_channel(self):
        profile = markov_chain_q_profile(30, 2, _GE, [0.0, 0.0])
        assert profile == [1.0] * 30

    def test_probabilities_valid(self):
        profile = markov_chain_q_profile(60, 2, _GE, _GE_RATES)
        assert all(0.0 <= q <= 1.0 for q in profile)
        assert profile[0] == 1.0


class TestEngineAgainstOracle:
    @pytest.mark.parametrize("m", [1, 2, 4])
    @pytest.mark.parametrize("burst", [1.0001, 2.0, 4.0, 16.0])
    def test_gilbert_elliott_profiles_agree(self, m, burst):
        n, rate = 240, 0.1
        model = GilbertElliottLoss.from_rate_and_burst(rate, burst)
        engine = frontier_q_profile(EmssScheme(m, 1).block_plan(n), model)
        g2b, b2g = model.p_good_to_bad, model.p_bad_to_good
        oracle = markov_chain_q_profile(
            n, m, [[1.0 - g2b, g2b], [b2g, 1.0 - b2g]], _GE_RATES)
        # send position s is the oracle's index n + 1 - s
        for position, got in engine.items():
            assert got == pytest.approx(oracle[n - position], abs=1e-12)
        assert min(engine.values()) == pytest.approx(
            gilbert_elliott_q_min(n, m, rate, burst), abs=1e-12)


class TestAgainstMonteCarlo:
    @pytest.mark.parametrize("burst", [2.0, 4.0, 8.0])
    def test_matches_model_driven_monte_carlo(self, burst):
        n, rate = 80, 0.1
        exact = engine_q_min(n, 2, rate, burst)
        model = GilbertElliottLoss.from_rate_and_burst(rate, burst, seed=5)
        graph = EmssScheme(2, 1).build_graph(n)
        mc = graph_monte_carlo_model(graph, model, trials=4000)
        assert mc.q_min == pytest.approx(exact, abs=0.04)


class TestBurstShapes:
    def test_isolated_losses_protect_adjacent_copies(self):
        """Mean burst -> 1 means no two consecutive losses: E_{2,1}
        becomes nearly unbreakable, *better* than iid."""
        n, rate = 120, 0.1
        near_one = engine_q_min(n, 2, rate, 1.01)
        iid = exact_q_profile(n, 2, rate)[-1]
        assert near_one > iid + 0.3

    def test_worst_burst_matches_copy_spread(self):
        """Bursts around the copy spread (2) are the worst case."""
        n, rate = 120, 0.1
        values = {burst: engine_q_min(n, 2, rate, burst)
                  for burst in (1.01, 2.0, 4.0, 16.0)}
        assert values[2.0] == min(values.values())

    def test_longer_reach_softens_bursts(self):
        n, rate, burst = 120, 0.1, 3.0
        m2 = engine_q_min(n, 2, rate, burst)
        m4 = engine_q_min(n, 4, rate, burst)
        assert m4 > m2


class TestValidation:
    def test_matrix_shape(self):
        with pytest.raises(AnalysisError):
            markov_chain_q_profile(10, 2, [[1.0, 0.0]], [0.1])

    def test_non_stochastic(self):
        with pytest.raises(AnalysisError):
            markov_chain_q_profile(10, 2, [[0.7, 0.7], [0.5, 0.5]],
                                   [0.1, 0.2])

    def test_bad_rates(self):
        with pytest.raises(AnalysisError):
            markov_chain_q_profile(10, 2, [[1.0]], [1.5])

    def test_bad_initial(self):
        with pytest.raises(AnalysisError):
            markov_chain_q_profile(10, 2, [[1.0]], [0.1], initial=[0.4])

    def test_bad_sizes(self):
        with pytest.raises(AnalysisError):
            markov_chain_q_profile(0, 2, [[1.0]], [0.1])
        with pytest.raises(AnalysisError):
            markov_chain_q_min(10, 0, [[1.0]], [0.1])
