"""Unit tests for the windowed loss estimator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SimulationError
from repro.network.channel import Channel
from repro.network.delay import ConstantDelay
from repro.network.loss import BernoulliLoss, LossEstimator, PooledLossEstimator
from repro.packets import Packet


def _packets(count):
    return [Packet(seq=i + 1, block_id=0, payload=b"p%d" % i,
                   send_time=i * 0.01) for i in range(count)]


class TestValidation:
    def test_window_must_be_positive(self):
        with pytest.raises(SimulationError):
            LossEstimator(window=0)

    def test_alpha_bounds(self):
        with pytest.raises(SimulationError):
            LossEstimator(alpha=0.0)
        with pytest.raises(SimulationError):
            LossEstimator(alpha=1.5)

    def test_observe_block_bounds(self):
        estimator = LossEstimator()
        with pytest.raises(SimulationError):
            estimator.observe_block(3, 2)
        with pytest.raises(SimulationError):
            estimator.observe_block(-1, 2)


class TestRates:
    def test_empty_estimator_reads_zero(self):
        estimator = LossEstimator()
        assert estimator.lifetime_rate == 0.0
        assert estimator.window_rate == 0.0
        assert estimator.ewma_rate == 0.0

    def test_lifetime_rate_is_exact(self):
        estimator = LossEstimator()
        estimator.observe_block(lost=3, total=10)
        assert estimator.observed == 10
        assert estimator.lost == 3
        assert estimator.lifetime_rate == pytest.approx(0.3)

    def test_window_rate_forgets_old_observations(self):
        estimator = LossEstimator(window=4)
        for _ in range(4):
            estimator.observe(True)
        assert estimator.window_rate == 1.0
        for _ in range(4):
            estimator.observe(False)
        # The four losses slid out of the window; lifetime remembers.
        assert estimator.window_rate == 0.0
        assert estimator.lifetime_rate == pytest.approx(0.5)

    def test_partial_window_uses_actual_length(self):
        estimator = LossEstimator(window=100)
        estimator.observe(True)
        estimator.observe(False)
        assert estimator.window_rate == pytest.approx(0.5)

    def test_ewma_seeds_on_first_observation(self):
        estimator = LossEstimator(alpha=0.5)
        estimator.observe(True)
        assert estimator.ewma_rate == 1.0
        estimator.observe(False)
        assert estimator.ewma_rate == pytest.approx(0.5)
        estimator.observe(False)
        assert estimator.ewma_rate == pytest.approx(0.25)

    def test_observe_block_spreads_losses_evenly(self):
        aggregate = LossEstimator(window=8)
        manual = LossEstimator(window=8)
        aggregate.observe_block(lost=2, total=5)
        # Centered spread: losses land mid-stride, not at stride ends.
        for fate in (False, True, False, True, False):
            manual.observe(fate)
        assert aggregate.window_rate == manual.window_rate
        assert aggregate.ewma_rate == pytest.approx(manual.ewma_rate)

    def test_observe_block_single_loss_lands_mid_stride(self):
        # The end-of-stride bias this pins down: lost=1 must not fall
        # in the final slot, or windows straddling a membership change
        # systematically blame the newest samples.
        estimator = LossEstimator(window=4)
        estimator.observe_block(lost=1, total=2)
        assert list(estimator._recent) == [True, False]

    def test_observe_block_preserves_totals(self):
        estimator = LossEstimator(window=64)
        for lost, total in ((1, 3), (2, 7), (5, 5), (0, 4), (3, 8)):
            estimator.observe_block(lost, total)
        assert estimator.lost == 11
        assert estimator.observed == 27
        assert estimator.window_lost == 11

    def test_unaligned_window_sees_unbiased_rate(self):
        # Window (16) not a multiple of the aggregate size (10): the
        # even spread keeps the windowed estimate at the true rate.
        estimator = LossEstimator(window=16)
        for _ in range(5):
            estimator.observe_block(lost=2, total=10)
        assert estimator.window_rate == pytest.approx(0.2, abs=0.07)

    def test_reset_forgets_everything(self):
        estimator = LossEstimator()
        estimator.observe_block(lost=5, total=10)
        estimator.reset()
        assert estimator.observed == 0
        assert estimator.lifetime_rate == 0.0
        assert estimator.window_rate == 0.0
        assert estimator.ewma_rate == 0.0


class TestPooledLossEstimator:
    def test_per_member_windows_merge(self):
        pool = PooledLossEstimator(window=8)
        pool.observe_block("a", lost=2, total=4)
        pool.observe_block("b", lost=0, total=4)
        assert pool.members == ["a", "b"]
        assert pool.window_fill == 8
        assert pool.window_rate == pytest.approx(0.25)

    def test_retire_folds_member_out_immediately(self):
        pool = PooledLossEstimator(window=8)
        pool.observe_block("lossy", lost=4, total=4)
        pool.observe_block("clean", lost=0, total=4)
        assert pool.window_rate == pytest.approx(0.5)
        assert pool.retire("lossy") is True
        # No aging out: the leaver's samples are gone at once.
        assert pool.window_rate == 0.0
        assert pool.members == ["clean"]
        assert pool.retired == 1

    def test_retire_unknown_is_noop(self):
        pool = PooledLossEstimator()
        assert pool.retire("ghost") is False
        assert pool.retired == 0

    def test_ewma_is_fill_weighted(self):
        pool = PooledLossEstimator(window=8, alpha=0.5)
        pool.observe_block("a", lost=4, total=4)
        pool.observe_block("b", lost=0, total=4)
        a = pool.estimator_for("a").ewma_rate
        b = pool.estimator_for("b").ewma_rate
        assert pool.ewma_rate == pytest.approx((a + b) / 2)

    def test_empty_pool_reads_zero(self):
        pool = PooledLossEstimator()
        assert pool.window_rate == 0.0
        assert pool.ewma_rate == 0.0
        assert pool.window_fill == 0


class TestChannelIntegration:
    def test_channel_feeds_estimator(self):
        # The channel's counts agree with an estimator fed the same
        # slots: observed_loss_rate is the lifetime rate.
        channel = Channel(loss=BernoulliLoss(0.5, seed=11),
                          delay=ConstantDelay(0.0))
        delivered = channel.transmit(_packets(200))
        estimator = LossEstimator()
        estimator.observe_block(200 - len(delivered), 200)
        assert channel.sent == 200
        assert channel.dropped == estimator.lost
        assert channel.observed_loss_rate == estimator.lifetime_rate
        assert 0.3 < channel.observed_loss_rate < 0.7

    def test_channel_reset_clears_estimator(self):
        channel = Channel(loss=BernoulliLoss(0.5, seed=3),
                          delay=ConstantDelay(0.0))
        channel.transmit(_packets(50))
        channel.reset()
        assert channel.sent == 0
        assert channel.dropped == 0
        assert channel.observed_loss_rate == 0.0


class _SlotReference:
    """The per-slot estimator arithmetic, one observation at a time.

    Test-only reference for :meth:`LossEstimator.observe_many`, which
    must reach the very same state (floats compared exactly).
    """

    def __init__(self, window, alpha):
        self.window, self.alpha = window, alpha
        self.observed = self.lost = self.recent_lost = 0
        self.recent = []
        self.ewma = None

    def observe(self, lost):
        lost = bool(lost)
        self.observed += 1
        self.lost += lost
        if len(self.recent) == self.window and self.recent[0]:
            self.recent_lost -= 1
        self.recent = (self.recent + [lost])[-self.window:]
        self.recent_lost += lost
        value = 1.0 if lost else 0.0
        if self.ewma is None:
            self.ewma = value
        else:
            self.ewma += self.alpha * (value - self.ewma)

    def state(self):
        return (self.observed, self.lost, len(self.recent),
                self.recent_lost, self.ewma if self.ewma is not None else 0.0)


def _state(estimator):
    return (estimator.observed, estimator.lost, estimator.window_fill,
            estimator.window_lost, estimator.ewma_rate)


class TestOnePass:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40), st.floats(0.01, 1.0),
           st.lists(st.lists(st.booleans(), max_size=30), max_size=8))
    def test_observe_many_matches_slot_by_slot(self, window, alpha, runs):
        estimator = LossEstimator(window=window, alpha=alpha)
        reference = _SlotReference(window, alpha)
        for run in runs:
            estimator.observe_many(run)
            for lost in run:
                reference.observe(lost)
            assert _state(estimator) == reference.state()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 300), st.data())
    def test_observe_block_matches_the_stride_formula(self, window, data):
        estimator = LossEstimator(window=window)
        reference = _SlotReference(window, estimator.alpha)
        for _ in range(data.draw(st.integers(1, 4))):
            total = data.draw(st.integers(0, 140))
            lost = data.draw(st.integers(0, total))
            estimator.observe_block(lost, total)
            for index in range(total):
                before = (2 * index * lost + total) // (2 * total)
                after = (2 * (index + 1) * lost + total) // (2 * total)
                reference.observe(after > before)
            assert _state(estimator) == reference.state()

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.0, 1.0), st.integers(0, 2 ** 32), st.integers(0, 60))
    def test_bernoulli_sample_draws_as_is_lost(self, p, seed, count):
        model = BernoulliLoss(p, seed=seed)
        expected = [model.is_lost() for _ in range(count)]
        assert BernoulliLoss(p, seed=seed).sample(count) == expected
