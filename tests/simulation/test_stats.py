"""Unit tests for simulation statistics aggregation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SimulationError
from repro.simulation.stats import PositionTally, SimulationStats


class TestPositionTally:
    def test_q_none_until_received(self):
        assert PositionTally().q is None

    def test_q_ratio(self):
        tally = PositionTally(received=4, verified=3)
        assert tally.q == pytest.approx(0.75)


class TestRecord:
    def test_accumulates_per_position(self):
        stats = SimulationStats()
        stats.record(1, received=True, verified=True)
        stats.record(1, received=True, verified=False)
        stats.record(2, received=False, verified=False)
        assert stats.q_profile() == {1: 0.5}

    def test_verified_requires_received(self):
        stats = SimulationStats()
        with pytest.raises(SimulationError):
            stats.record(1, received=False, verified=True)

    def test_positions_one_based(self):
        stats = SimulationStats()
        with pytest.raises(SimulationError):
            stats.record(0, received=True, verified=True)

    def test_delays_collected_only_for_verified(self):
        stats = SimulationStats()
        stats.record(1, received=True, verified=True, delay=0.5)
        stats.record(2, received=True, verified=False, delay=9.9)
        assert stats.delays == [0.5]


class TestAggregates:
    def _populated(self):
        stats = SimulationStats()
        for _ in range(8):
            stats.record(1, received=True, verified=True, delay=0.1)
        for i in range(8):
            stats.record(2, received=True, verified=i < 4, delay=0.3)
        return stats

    def test_q_min(self):
        assert self._populated().q_min == pytest.approx(0.5)

    def test_overall_q(self):
        assert self._populated().overall_q == pytest.approx(12 / 16)

    def test_delay_stats(self):
        stats = self._populated()
        assert stats.max_delay == pytest.approx(0.3)
        assert 0.1 < stats.mean_delay < 0.3

    def test_empty_stats_raise(self):
        with pytest.raises(SimulationError):
            SimulationStats().q_min
        with pytest.raises(SimulationError):
            SimulationStats().overall_q

    def test_loss_rate(self):
        stats = SimulationStats()
        stats.sent, stats.dropped = 10, 3
        assert stats.observed_loss_rate == pytest.approx(0.3)
        assert SimulationStats().observed_loss_rate == 0.0

    def test_buffer_peaks_merge(self):
        stats = SimulationStats()
        stats.merge_buffer_peaks(5, 2)
        stats.merge_buffer_peaks(3, 7)
        assert stats.message_buffer_peak == 5
        assert stats.hash_buffer_peak == 7

    def test_mean_delay_empty(self):
        assert SimulationStats().mean_delay == 0.0


_fates = st.lists(
    st.tuples(st.integers(1, 6), st.booleans(), st.booleans(),
              st.one_of(st.none(), st.floats(0.0, 5.0)))
    .map(lambda f: (f[0], f[1] or f[2], f[2], f[3])),
    max_size=30)


class TestRecordBlock:
    """One call per block against the per-position :meth:`record`."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_fates, max_size=4))
    def test_matches_record_per_position(self, blocks):
        oracle, block_wise = SimulationStats(), SimulationStats()
        for fates in blocks:
            for fate in fates:
                oracle.record(*fate)
            block_wise.record_block(fates)
        assert block_wise.tallies == oracle.tallies
        assert block_wise.delays == oracle.delays

    @pytest.mark.parametrize("bad", [(0, True, True, None),
                                     (-3, False, False, None),
                                     (2, False, True, 0.5)])
    def test_keeps_records_checks(self, bad):
        fates = [(1, True, True, 0.25), bad, (3, True, False, None)]
        oracle, block_wise = SimulationStats(), SimulationStats()
        with pytest.raises(SimulationError) as expected:
            for fate in fates:
                oracle.record(*fate)
        with pytest.raises(SimulationError) as got:
            block_wise.record_block(fates)
        assert str(got.value) == str(expected.value)
        # Fates before the bad one are tallied, as record would have.
        assert block_wise.tallies == oracle.tallies
        assert block_wise.delays == oracle.delays == [0.25]
