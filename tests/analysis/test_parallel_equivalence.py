"""Differential tests: the parallel engine vs its serial counterparts.

The engine's whole contract is that the pool changes *where* chunks
run, never *what* they compute — so every test here asserts exact
equality (``==`` on result objects or full profiles), not approximate
agreement.
"""

import pytest

from repro.analysis.montecarlo import McResult, graph_monte_carlo
from repro.exceptions import SimulationError
from repro.network.channel import Channel
from repro.parallel import (
    chunk_sizes,
    parallel_graph_monte_carlo,
    parallel_trials,
    resolve_chunks,
    spawn_seed_tree,
)
from repro.network.loss import BernoulliLoss, GilbertElliottLoss
from repro.schemes.augmented_chain import AugmentedChainScheme
from repro.schemes.emss import EmssScheme
from repro.schemes.rohatgi import RohatgiScheme
from repro.schemes.tesla import TeslaParameters, TeslaScheme
from repro.schemes.wong_lam import WongLamScheme
from repro.simulation import (
    FixedChannels,
    ReceiverSpec,
    SeededChannels,
    WireTrialConfig,
    run_multicast_session,
    run_trials,
    wire_monte_carlo,
)

def _wong_lam_star(n):
    """Wong–Lam's dependence structure: every packet hangs off P_sign."""
    from repro.core.graph import DependenceGraph

    return DependenceGraph.from_edges(n, 1, [(1, j) for j in range(2, n + 1)])


GRAPH_BUILDERS = [
    ("emss(2,1)", lambda n: EmssScheme(2, 1).build_graph(n)),
    ("ac(3,3)", lambda n: AugmentedChainScheme(3, 3).build_graph(n)),
    ("rohatgi", lambda n: RohatgiScheme().build_graph(n)),
    ("wong-lam-star", _wong_lam_star),
]
LOSS_RATES = [0.1, 0.5]


class TestGraphLevelWorkerInvariance:
    @pytest.mark.parametrize("scheme_name,build", GRAPH_BUILDERS,
                             ids=[name for name, _ in GRAPH_BUILDERS])
    @pytest.mark.parametrize("p", LOSS_RATES)
    def test_identical_across_worker_counts(self, scheme_name, build, p):
        graph = build(40)
        results = [
            parallel_graph_monte_carlo(graph, p, trials=600, seed=101,
                                       workers=workers)
            for workers in (1, 2, 4)
        ]
        for other in results[1:]:
            assert other.q == results[0].q
            assert other.received_counts == results[0].received_counts
            assert other.verified_counts == results[0].verified_counts
            assert other.trials == results[0].trials

    def test_merged_equals_single_shot_over_seed_tree(self):
        graph = EmssScheme(2, 1).build_graph(30)
        trials, seed = 500, 42
        parallel = parallel_graph_monte_carlo(graph, 0.3, trials=trials,
                                              seed=seed, workers=2)
        chunks = resolve_chunks(trials)
        shards = [
            graph_monte_carlo(graph, 0.3, trials=size, seed=chunk_seed)
            for size, chunk_seed in zip(chunk_sizes(trials, chunks),
                                        spawn_seed_tree(seed, chunks))
        ]
        assert parallel == McResult.merge_all(shards)

    def test_explicit_chunks_respected(self):
        graph = RohatgiScheme().build_graph(20)
        one = parallel_graph_monte_carlo(graph, 0.2, trials=50, seed=9,
                                         workers=2, chunks=5)
        two = parallel_graph_monte_carlo(graph, 0.2, trials=50, seed=9,
                                         workers=4, chunks=5)
        assert one == two
        assert one.trials == 50

    def test_unprotected_root_passes_through(self):
        graph = EmssScheme(2, 1).build_graph(20)
        result = parallel_graph_monte_carlo(graph, 0.4, trials=400, seed=3,
                                            workers=2,
                                            root_always_received=False)
        assert result.received_counts[graph.root] < 400


class TestWireLevelWorkerInvariance:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matches_serial_driver(self, workers):
        config = WireTrialConfig(block_size=8, trials=6, loss_rate=0.25,
                                 seed=13)
        scheme = EmssScheme(2, 1)
        serial = wire_monte_carlo(scheme, config)
        parallel, = parallel_trials(scheme, 8, 6, SeededChannels(0.25, 13),
                                    workers=workers)
        assert parallel.tallies == serial.tallies
        assert parallel.delays == serial.delays
        assert (parallel.sent, parallel.dropped, parallel.forged) == \
            (serial.sent, serial.dropped, serial.forged)
        assert parallel.message_buffer_peak == serial.message_buffer_peak
        assert parallel.hash_buffer_peak == serial.hash_buffer_peak

    def test_individually_verifiable_scheme_matches_serial(self):
        config = WireTrialConfig(block_size=8, trials=4, loss_rate=0.3,
                                 seed=29)
        scheme = WongLamScheme()
        serial = wire_monte_carlo(scheme, config)
        parallel, = parallel_trials(scheme, 8, 4, SeededChannels(0.3, 29),
                                    workers=2)
        assert parallel.tallies == serial.tallies

    def test_custom_loss_model_matches_serial(self):
        config = WireTrialConfig(block_size=8, trials=4, seed=5)
        scheme = RohatgiScheme()
        loss = GilbertElliottLoss.from_rate_and_burst(0.2, 3.0, seed=17)
        serial = wire_monte_carlo(scheme, config, loss=loss)
        loss = GilbertElliottLoss.from_rate_and_burst(0.2, 3.0, seed=17)
        parallel, = parallel_trials(scheme, 8, 4,
                                    SeededChannels(0.2, 5, loss=loss),
                                    workers=2)
        assert parallel.tallies == serial.tallies

    def test_tesla_matches_serial_driver(self):
        scheme = TeslaScheme(TeslaParameters(interval=0.1, lag=2,
                                             chain_length=40))
        channels = SeededChannels.for_scheme(scheme, 0.2, 23)
        serial, = run_trials(scheme, 20, 0, 4, channels)
        parallel, = parallel_trials(scheme, 20, 4, channels, workers=2)
        assert parallel.tallies == serial.tallies
        assert parallel.delays == serial.delays


class TestMulticastWorkerInvariance:
    @staticmethod
    def _audience():
        return [
            ReceiverSpec("lan", BernoulliLoss(0.05, seed=1)),
            ReceiverSpec("wifi", BernoulliLoss(0.3, seed=2)),
            ReceiverSpec("mobile",
                         GilbertElliottLoss.from_rate_and_burst(
                             0.2, 4.0, seed=3)),
        ]

    def test_matches_serial_session(self):
        scheme = EmssScheme(2, 1)
        serial = run_multicast_session(scheme, 16, 2, self._audience())
        channels = FixedChannels(tuple(Channel(loss=spec.loss)
                                       for spec in self._audience()))
        parallel = parallel_trials(scheme, 16, 1, channels, receivers=3,
                                   blocks=2, workers=2)
        for spec, stats in zip(self._audience(), parallel):
            assert stats == serial.per_receiver[spec.name]

    def test_duplicate_receiver_names_rejected(self):
        specs = [ReceiverSpec("a"), ReceiverSpec("a")]
        with pytest.raises(SimulationError):
            run_multicast_session(EmssScheme(2, 1), 8, 1, specs)
