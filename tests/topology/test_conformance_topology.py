"""Statistical conformance of topology loss against the analytic models.

Two claims, held to the same 3-standard-error bar as the rest of the
conformance suite:

* **marginals** — on a star topology the induced per-receiver loss is
  the paper's independent Bernoulli model, so every registered
  scheme's wire-level ``q_i`` must match its analytic profile at the
  leaf's path loss rate (and on a multi-hop spine path, at the
  inclusion–exclusion rate the path implies);
* **correlation** — sibling leaves behind a shared spine edge must
  show *positive* delivery correlation matching the closed-form edge
  product ``Cov = l_a · l_b · s (1 - s)``, measured in Fisher-z SEs.

All runs are seeded; the trial counts keep every pinned deviation
comfortably under the bar while staying fast enough for tier 1.
"""

import pytest

from repro.analysis.conformance import DEFAULT_SPECS, default_scheme
from repro.exceptions import SimulationError
from repro.parallel import parallel_trials
from repro.topology import (
    TopologyChannels,
    dualspine_topology,
    path_loss_rate,
    redundant_trees,
    shortest_path_tree,
    sibling_delivery_correlation,
    spine_topology,
    star_topology,
    topology_conformance_deviations,
    topology_wire_stats,
)

LEAVES = [f"r{i:02d}" for i in range(4)]
BLOCK = 12
TRIALS = 400
SEED = 7
RATE = 0.15

SCHEME_NAMES = sorted(DEFAULT_SPECS)


@pytest.fixture(scope="module")
def star():
    topo = star_topology(LEAVES)
    return topo, [shortest_path_tree(topo)]


@pytest.fixture(scope="module")
def spine():
    topo = spine_topology(LEAVES, 2)
    return topo, [shortest_path_tree(topo)]


class TestStarMarginals:
    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_every_scheme_within_three_se_of_analytic(self, star, name):
        topo, trees = star
        rows = topology_conformance_deviations(
            default_scheme(name), topo, trees, "r01", BLOCK, RATE, TRIALS,
            seed=SEED)
        worst = max(rows, key=lambda row: row["deviation_se"])
        assert worst["deviation_se"] < 3.0, (
            f"{name} on star: position {worst['position']} deviates "
            f"{worst['deviation_se']:.2f} SE from the analytic model")

    def test_star_path_rate_is_the_base_rate(self, star):
        topo, trees = star
        for leaf in LEAVES:
            assert path_loss_rate(topo, trees, leaf, RATE) \
                == pytest.approx(RATE)


class TestSpineMarginals:
    def test_two_hop_path_rate_compounds(self, spine):
        topo, trees = spine
        # Spine edge and leaf edge both at RATE: 1 - (1-p)^2.
        assert path_loss_rate(topo, trees, "r00", RATE) \
            == pytest.approx(1.0 - (1.0 - RATE) ** 2)

    def test_emss_on_spine_leaf_within_three_se(self, spine):
        topo, trees = spine
        rows = topology_conformance_deviations(
            default_scheme("emss"), topo, trees, "r00", BLOCK, RATE, TRIALS,
            seed=SEED)
        assert max(row["deviation_se"] for row in rows) < 3.0

    def test_hot_spine_scale_shifts_the_marginal(self):
        topo = spine_topology(LEAVES, 2, spine_scales=(2.0, 1.0))
        trees = [shortest_path_tree(topo)]
        hot = path_loss_rate(topo, trees, "r00", RATE)
        clean = path_loss_rate(topo, trees, "r03", RATE)
        assert hot == pytest.approx(1.0 - (1.0 - 2 * RATE) * (1.0 - RATE))
        assert hot > clean


class TestSiblingCorrelation:
    def test_pinned_spine_session_matches_closed_form(self, spine):
        topo, trees = spine
        report = sibling_delivery_correlation(topo, trees, "r00", "r01",
                                              0.2, 20000, seed=SEED)
        assert report["shared_edges"] == 1
        assert report["predicted"] > 0
        assert report["measured"] > 0, "siblings must correlate positively"
        assert report["deviation_se"] < 3.0, (
            f"measured {report['measured']:.4f} vs closed-form "
            f"{report['predicted']:.4f}: {report['deviation_se']:.2f} SE")

    def test_cross_subtree_leaves_share_no_edge(self, spine):
        topo, trees = spine
        report = sibling_delivery_correlation(topo, trees, "r00", "r03",
                                              0.2, 20000, seed=SEED)
        assert report["shared_edges"] == 0
        assert report["predicted"] == pytest.approx(0.0)
        assert report["deviation_se"] < 3.0

    def test_star_leaves_are_uncorrelated(self, star):
        topo, trees = star
        report = sibling_delivery_correlation(topo, trees, "r00", "r01",
                                              0.2, 20000, seed=SEED)
        assert report["shared_edges"] == 0
        assert report["predicted"] == pytest.approx(0.0)
        assert report["deviation_se"] < 3.0

    def test_rejects_redundant_paths_and_tiny_samples(self, spine):
        topo, trees = spine
        with pytest.raises(SimulationError):
            sibling_delivery_correlation(topo, trees, "r00", "r01", 0.2, 4)
        dual_topo = dualspine_topology(LEAVES, 2)
        dual_trees = redundant_trees(dual_topo, 2)
        with pytest.raises(SimulationError):
            sibling_delivery_correlation(dual_topo, dual_trees, "r00", "r01",
                                         0.2, 1000)


class TestShardingDeterminism:
    def test_parallel_fold_identical_across_worker_counts(self, star):
        topo, trees = star
        scheme = default_scheme("emss")
        channels = TopologyChannels.for_scheme(scheme, topo, trees, "r00",
                                               RATE, SEED)
        baseline, = parallel_trials(scheme, BLOCK, 60, channels, workers=1)
        for workers in (2, 4):
            shard, = parallel_trials(scheme, BLOCK, 60, channels,
                                     workers=workers)
            assert shard.tallies == baseline.tallies
            assert shard.sent == baseline.sent
            assert shard.dropped == baseline.dropped

    def test_wire_stats_equals_sharded_run(self, star):
        topo, trees = star
        scheme = default_scheme("rohatgi")
        serial = topology_wire_stats(scheme, topo, trees, "r00", BLOCK,
                                     RATE, 60, seed=SEED)
        channels = TopologyChannels.for_scheme(scheme, topo, trees, "r00",
                                               RATE, SEED)
        sharded, = parallel_trials(scheme, BLOCK, 60, channels, workers=2,
                                   chunks=4)
        assert sharded.tallies == serial.tallies
