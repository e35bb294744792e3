"""Edge loss bank and path loss: seeds, caching, delivery math."""

import pytest

from repro.exceptions import SimulationError
from repro.network.loss import BernoulliLoss
from repro.topology import (
    EDGE_LOSS_MODELS,
    EdgeLossBank,
    PathLoss,
    delivery_probability,
    spine_topology,
    star_topology,
)

LEAVES = [f"r{i:02d}" for i in range(4)]


def _star_bank(seed=7, **kwargs):
    return EdgeLossBank(star_topology(LEAVES), seed, **kwargs)


class TestBank:
    def test_edge_seed_matches_channel_factory_formula(self):
        bank = _star_bank(seed=42)
        assert bank.edge_seed(0, 0) == 42 + 7919 + 104729
        assert bank.edge_seed(3, 5) == 42 + 7919 * 4 + 104729 * 6

    def test_draws_are_slot_order_independent(self):
        early = _star_bank()
        late = _star_bank()
        # One bank is asked slot 5 first, the other walks 0..5; the
        # cached sequences must agree (lazily extended in slot order).
        late_draw = late.lost(0, 0, 0.3, 5)
        early_draws = [early.lost(0, 0, 0.3, slot) for slot in range(6)]
        assert late_draw == early_draws[5]
        assert [late.lost(0, 0, 0.3, slot) for slot in range(6)] \
            == early_draws

    def test_rate_is_pinned_per_edge_block_cell(self):
        bank = _star_bank()
        bank.lost(0, 0, 0.3, 0)
        with pytest.raises(SimulationError):
            bank.lost(0, 0, 0.4, 1)
        # A different block is a fresh cell: new rate is fine.
        bank.lost(0, 1, 0.4, 0)
        assert bank.cells_touched == 2

    def test_rate_pin_outlives_dropped_cells(self):
        bank = _star_bank()
        first = [bank.lost(0, 0, 0.3, slot) for slot in range(8)]
        bank.lost(0, 1, 0.4, 0)  # drops block 0's draws
        with pytest.raises(SimulationError):
            bank.lost(0, 0, 0.5, 0)
        assert [bank.lost(0, 0, 0.3, slot) for slot in range(8)] == first
        assert bank.cells_touched == 2

    def test_loss_scale_clamps_to_one(self):
        topo = spine_topology(LEAVES, 2, spine_scales=(10.0, 1.0))
        bank = EdgeLossBank(topo, 7)
        assert bank.edge_rate(0, 0.5) == 1.0
        assert bank.edge_rate(1, 0.5) == 0.5

    def test_gilbert_elliott_falls_back_on_degenerate_rates(self):
        bank = _star_bank(model="gilbert-elliott")
        # rate 0 and 1 have no burst structure: Bernoulli fallback,
        # which is deterministic regardless of seed.
        assert bank.lost(0, 0, 0.0, 0) is False
        topo = spine_topology(LEAVES, 2, spine_scales=(10.0, 1.0))
        hot = EdgeLossBank(topo, 7, model="gilbert-elliott")
        assert hot.lost(0, 0, 0.5, 0) is True  # scaled to rate 1.0

    def test_unknown_model_and_bad_burst_raise(self):
        with pytest.raises(SimulationError):
            _star_bank(model="markov")
        with pytest.raises(SimulationError):
            _star_bank(mean_burst=0.5)
        assert set(EDGE_LOSS_MODELS) == {"bernoulli", "gilbert-elliott"}


class TestPathLoss:
    def test_single_edge_equals_bernoulli_at_derived_seed(self):
        bank = _star_bank(seed=11)
        loss = PathLoss(bank, 3, ((2,),), 0.35)
        reference = BernoulliLoss(0.35, seed=bank.edge_seed(2, 3))
        assert [loss.is_lost() for _ in range(64)] \
            == [reference.is_lost() for _ in range(64)]

    def test_multi_edge_path_is_and_over_edges(self):
        topo = spine_topology(LEAVES, 2)
        bank = EdgeLossBank(topo, 7)
        leaf_edge = topo.edge_index("s00", "r00")
        loss = PathLoss(bank, 0, ((0, leaf_edge),), 0.3)
        for slot in range(32):
            expected = (bank.lost(0, 0, 0.3, slot)
                        or bank.lost(leaf_edge, 0, 0.3, slot))
            # Re-querying replays the cached draws, so the comparison
            # is against exactly what PathLoss consumed.
            assert loss.is_lost() == expected

    def test_duplicates_counted_not_redelivered(self):
        # Two disjoint single-edge paths at rate 0: both always up,
        # one delivery + one suppressed duplicate per slot.
        bank = _star_bank()
        loss = PathLoss(bank, 0, ((0,), (1,)), 0.0)
        assert [loss.is_lost() for _ in range(5)] == [False] * 5
        assert loss.duplicates_suppressed == 5

    def test_reset_replays_the_same_draws(self):
        bank = _star_bank()
        loss = PathLoss(bank, 0, ((0,), (1,)), 0.4)
        first = [loss.is_lost() for _ in range(16)]
        dup_first = loss.duplicates_suppressed
        loss.reset()
        assert [loss.is_lost() for _ in range(16)] == first
        assert loss.duplicates_suppressed == dup_first

    def test_mean_loss_rate_uses_inclusion_exclusion(self):
        bank = _star_bank()
        loss = PathLoss(bank, 0, ((0,), (1,)), 0.4)
        # P(both private paths down) = 0.4 * 0.4
        assert loss.mean_loss_rate == pytest.approx(0.16)

    def test_validation(self):
        bank = _star_bank()
        with pytest.raises(SimulationError):
            PathLoss(bank, 0, (), 0.1)
        with pytest.raises(SimulationError):
            PathLoss(bank, 0, ((0,),), 1.5)


class TestDeliveryProbability:
    def test_shared_edges_counted_once(self):
        # Paths (a, b) and (a, c): shared edge a must not be squared.
        rates = {0: 0.2, 1: 0.3, 2: 0.4}
        got = delivery_probability(((0, 1), (0, 2)), rates)
        # P(a up) * P(b up or c up) = 0.8 * (1 - 0.3*0.4)
        assert got == pytest.approx(0.8 * (1.0 - 0.12))

    def test_matches_brute_force_enumeration(self):
        rates = {0: 0.3, 1: 0.2, 2: 0.25, 3: 0.15}
        paths = ((0, 2), (1, 2), (3,))
        brute = 0.0
        for mask in range(16):
            up = {edge: bool(mask & (1 << edge)) for edge in range(4)}
            prob = 1.0
            for edge in range(4):
                prob *= (1.0 - rates[edge]) if up[edge] else rates[edge]
            if any(all(up[edge] for edge in path) for path in paths):
                brute += prob
        assert delivery_probability(paths, rates) == pytest.approx(brute)

    def test_degenerate_rates(self):
        assert delivery_probability(((0,),), {0: 0.0}) == pytest.approx(1.0)
        assert delivery_probability(((0,),), {0: 1.0}) == pytest.approx(0.0)
