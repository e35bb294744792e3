"""Packet-loss models.

The paper's analysis assumes independent random loss with rate ``p``
(Sec. 4.1) and names the "m-state Markov model" as future work; both
are implemented here, plus a trace-driven model for replaying recorded
loss patterns.  All models share a tiny interface — :meth:`is_lost`
consumes one packet slot — and own a private RNG so concurrent
simulations never share state.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections import deque
from functools import lru_cache
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import SimulationError

__all__ = [
    "LossModel",
    "BernoulliLoss",
    "GilbertElliottLoss",
    "MarkovLoss",
    "TraceLoss",
    "NoLoss",
    "LossEstimator",
    "PooledLossEstimator",
]


class LossModel(ABC):
    """One packet-loss decision per call, in send order."""

    @abstractmethod
    def is_lost(self) -> bool:
        """Consume one packet slot; ``True`` means the packet is dropped."""

    @abstractmethod
    def reset(self) -> None:
        """Return to the initial state (new trial)."""

    def reseed(self, seed: Optional[int]) -> None:
        """Re-key the model's private RNG, then :meth:`reset`.

        Models without randomness (traces, lossless channels) simply
        reset.  This is how the reproducible estimators pin down models
        that were constructed without a seed of their own.
        """
        if hasattr(self, "_seed"):
            self._seed = seed
        self.reset()

    def sample(self, count: int) -> List[bool]:
        """Loss decisions for ``count`` consecutive packets."""
        if count < 0:
            raise SimulationError(f"count must be >= 0, got {count}")
        return [self.is_lost() for _ in range(count)]

    @property
    @abstractmethod
    def mean_loss_rate(self) -> float:
        """Long-run fraction of packets lost."""

    @property
    def chain(self) -> Optional[Tuple[List[List[float]], List[float]]]:
        """The Markov chain behind the losses, if there is one.

        The row-stochastic transition matrix and each state's loss
        rate; a packet's loss is drawn in the current state, then the
        state moves.  ``None`` when the model is no such chain.
        """
        return None


class NoLoss(LossModel):
    """Lossless channel (sanity baselines)."""

    def is_lost(self) -> bool:
        return False

    def reset(self) -> None:
        return None

    @property
    def mean_loss_rate(self) -> float:
        return 0.0


class BernoulliLoss(LossModel):
    """Independent loss with probability ``p`` (the paper's model).

    Parameters
    ----------
    p:
        Per-packet loss probability.
    seed:
        Private RNG seed for reproducible trials.
    """

    def __init__(self, p: float, seed: Optional[int] = None) -> None:
        if not 0.0 <= p <= 1.0:
            raise SimulationError(f"loss rate must be in [0, 1], got {p}")
        self.p = p
        self._seed = seed
        self._rng = random.Random(seed)

    def is_lost(self) -> bool:
        return self._rng.random() < self.p

    def sample(self, count: int) -> List[bool]:
        """``count`` draws in :meth:`is_lost` order, the RNG bound once."""
        if count < 0:
            raise SimulationError(f"count must be >= 0, got {count}")
        draw, p = self._rng.random, self.p
        return [draw() < p for _ in range(count)]

    def reset(self) -> None:
        self._rng = random.Random(self._seed)

    @property
    def mean_loss_rate(self) -> float:
        return self.p


class GilbertElliottLoss(LossModel):
    """Two-state Markov (bursty) loss — the paper's named extension.

    The channel alternates between a GOOD and a BAD state.  Each packet
    first samples a loss from the current state's loss rate, then the
    state transitions.

    Parameters
    ----------
    p_good_to_bad:
        Transition probability GOOD→BAD per packet.
    p_bad_to_good:
        Transition probability BAD→GOOD per packet; the mean burst
        length is ``1 / p_bad_to_good``.
    loss_in_bad:
        Loss rate while BAD (1.0 = classic Gilbert model).
    loss_in_good:
        Loss rate while GOOD (usually 0).
    seed:
        Private RNG seed.
    """

    def __init__(self, p_good_to_bad: float, p_bad_to_good: float,
                 loss_in_bad: float = 1.0, loss_in_good: float = 0.0,
                 seed: Optional[int] = None) -> None:
        for name, value in [("p_good_to_bad", p_good_to_bad),
                            ("p_bad_to_good", p_bad_to_good),
                            ("loss_in_bad", loss_in_bad),
                            ("loss_in_good", loss_in_good)]:
            if not 0.0 <= value <= 1.0:
                raise SimulationError(f"{name} must be in [0, 1], got {value}")
        if p_bad_to_good == 0.0 and p_good_to_bad > 0.0:
            raise SimulationError("BAD state would be absorbing")
        self.p_good_to_bad = p_good_to_bad
        self.p_bad_to_good = p_bad_to_good
        self.loss_in_bad = loss_in_bad
        self.loss_in_good = loss_in_good
        self._seed = seed
        self._rng = random.Random(seed)
        self._bad = False

    @classmethod
    def from_rate_and_burst(cls, loss_rate: float, mean_burst: float,
                            seed: Optional[int] = None) -> "GilbertElliottLoss":
        """Construct from target mean loss rate and mean burst length.

        With ``loss_in_bad = 1`` and ``loss_in_good = 0`` the stationary
        loss rate is ``π_bad = g2b / (g2b + b2g)``; solving with
        ``b2g = 1 / mean_burst`` gives ``g2b``.
        """
        if not 0.0 < loss_rate < 1.0:
            raise SimulationError(f"loss rate must be in (0, 1), got {loss_rate}")
        if mean_burst < 1.0:
            raise SimulationError(f"mean burst must be >= 1, got {mean_burst}")
        b2g = 1.0 / mean_burst
        g2b = loss_rate * b2g / (1.0 - loss_rate)
        if g2b > 1.0:
            raise SimulationError(
                f"infeasible pair (rate={loss_rate}, burst={mean_burst})"
            )
        return cls(p_good_to_bad=g2b, p_bad_to_good=b2g, seed=seed)

    def is_lost(self) -> bool:
        rate = self.loss_in_bad if self._bad else self.loss_in_good
        lost = self._rng.random() < rate
        flip = self.p_bad_to_good if self._bad else self.p_good_to_bad
        if self._rng.random() < flip:
            self._bad = not self._bad
        return lost

    def reset(self) -> None:
        self._rng = random.Random(self._seed)
        self._bad = False

    @property
    def mean_loss_rate(self) -> float:
        total = self.p_good_to_bad + self.p_bad_to_good
        if total == 0.0:
            return self.loss_in_good
        pi_bad = self.p_good_to_bad / total
        return pi_bad * self.loss_in_bad + (1.0 - pi_bad) * self.loss_in_good

    @property
    def chain(self) -> Tuple[List[List[float]], List[float]]:
        """States GOOD, BAD."""
        g2b, b2g = self.p_good_to_bad, self.p_bad_to_good
        return ([[1.0 - g2b, g2b], [b2g, 1.0 - b2g]],
                [self.loss_in_good, self.loss_in_bad])


class MarkovLoss(LossModel):
    """General m-state Markov loss — the paper's named future work.

    Each state carries a loss probability; after every packet the
    state transitions according to a row-stochastic matrix.
    :class:`GilbertElliottLoss` is the 2-state instance; more states
    model e.g. GOOD / CONGESTED / OUTAGE channels with distinct
    dynamics.

    Parameters
    ----------
    transition:
        Row-stochastic ``m x m`` matrix (list of rows).
    loss_rates:
        Per-state loss probabilities, length ``m``.
    initial_state:
        Starting state index.
    seed:
        Private RNG seed.
    """

    def __init__(self, transition: Sequence[Sequence[float]],
                 loss_rates: Sequence[float], initial_state: int = 0,
                 seed: Optional[int] = None) -> None:
        m = len(loss_rates)
        if m < 1:
            raise SimulationError("need >= 1 state")
        if len(transition) != m or any(len(row) != m for row in transition):
            raise SimulationError(f"transition matrix must be {m}x{m}")
        for row in transition:
            if any(not 0.0 <= x <= 1.0 for x in row):
                raise SimulationError("transition probabilities in [0, 1]")
            if abs(sum(row) - 1.0) > 1e-9:
                raise SimulationError(f"rows must sum to 1, got {sum(row)}")
        for rate in loss_rates:
            if not 0.0 <= rate <= 1.0:
                raise SimulationError(f"loss rate {rate} outside [0, 1]")
        if not 0 <= initial_state < m:
            raise SimulationError(f"initial state {initial_state} invalid")
        self._transition = [list(row) for row in transition]
        self._loss_rates = list(loss_rates)
        self._initial_state = initial_state
        self._seed = seed
        self._rng = random.Random(seed)
        self._state = initial_state

    def is_lost(self) -> bool:
        lost = self._rng.random() < self._loss_rates[self._state]
        roll = self._rng.random()
        cumulative = 0.0
        row = self._transition[self._state]
        for next_state, probability in enumerate(row):
            cumulative += probability
            if roll < cumulative:
                self._state = next_state
                break
        else:  # numerical slack: stay put
            self._state = len(row) - 1
        return lost

    def reset(self) -> None:
        self._rng = random.Random(self._seed)
        self._state = self._initial_state

    @property
    def mean_loss_rate(self) -> float:
        """Stationary loss rate, from the chain's stationary vector."""
        matrix = np.array(self._transition)
        m = matrix.shape[0]
        # Solve pi (P - I) = 0 with sum(pi) = 1.
        a = np.vstack([(matrix.T - np.eye(m)), np.ones(m)])
        b = np.zeros(m + 1)
        b[-1] = 1.0
        pi, *_ = np.linalg.lstsq(a, b, rcond=None)
        return float(pi @ np.array(self._loss_rates))

    @property
    def chain(self) -> Tuple[List[List[float]], List[float]]:
        return [list(row) for row in self._transition], list(self._loss_rates)


class TraceLoss(LossModel):
    """Replay a recorded loss pattern (cycled when exhausted)."""

    def __init__(self, trace: Sequence[bool]) -> None:
        if not trace:
            raise SimulationError("loss trace must be non-empty")
        self._trace = [bool(x) for x in trace]
        self._cursor = 0

    def is_lost(self) -> bool:
        lost = self._trace[self._cursor]
        self._cursor = (self._cursor + 1) % len(self._trace)
        return lost

    def reset(self) -> None:
        self._cursor = 0

    @property
    def mean_loss_rate(self) -> float:
        return sum(self._trace) / len(self._trace)


@lru_cache(maxsize=256)
def _spread(lost: int, total: int) -> Tuple[bool, ...]:
    """``lost`` losses centered in their strides over ``total`` slots.

    Slot ``i`` is lost iff ``(2*i*lost + total) // (2*total)`` advances
    at ``i + 1`` (see :meth:`LossEstimator.observe_block`).
    """
    if not total:
        return ()
    marks = [(2 * index * lost + total) // (2 * total)
             for index in range(total + 1)]
    return tuple(after > before for before, after in zip(marks, marks[1:]))


class LossEstimator:
    """Windowed loss-rate estimation from observed packet fates.

    The dual of a :class:`LossModel`: instead of *deciding* loss it
    *measures* it, one observation per packet slot.  Three views of
    the same stream are maintained, each answering a different
    question the adaptive layer asks:

    * :attr:`lifetime_rate` — dropped/observed since construction,
      the :attr:`~repro.network.channel.Channel.observed_loss_rate`
      semantics;
    * :attr:`window_rate` — the exact rate over the most recent
      ``window`` observations, the "what is the channel doing *now*"
      estimate loss reports feed back to the sender;
    * :attr:`ewma_rate` — an exponentially weighted moving average
      (weight ``alpha`` on the newest observation), the smoothed
      signal a controller can act on without chasing per-block noise.

    Purely arithmetic — no RNG, no clock — so an estimator is exactly
    as deterministic as the observation stream it is fed.

    Parameters
    ----------
    window:
        Exact sliding-window length in observations.
    alpha:
        EWMA weight of the newest observation, in ``(0, 1]``.
    """

    def __init__(self, window: int = 256, alpha: float = 0.125) -> None:
        if window < 1:
            raise SimulationError(f"window must be >= 1, got {window}")
        if not 0.0 < alpha <= 1.0:
            raise SimulationError(f"alpha must be in (0, 1], got {alpha}")
        self.window = window
        self.alpha = alpha
        self.observed = 0
        self.lost = 0
        self._recent: Deque[bool] = deque(maxlen=window)
        self._recent_lost = 0
        self._ewma: Optional[float] = None

    def observe(self, lost: bool) -> None:
        """Record one packet slot's fate (``True`` = the packet was lost)."""
        self.observe_many((lost,))

    def observe_many(self, flags: Sequence[bool]) -> None:
        """Record a run of packet slots' fates, in order, in one pass.

        Slot by slot: the counts and the window move by one slot, and
        the EWMA steps ``ewma += alpha * (value - ewma)`` (seeded by
        the first value), so a run gives exactly the state that
        observing its slots one at a time does.
        """
        recent = self._recent
        window = self.window
        alpha = self.alpha
        ewma = self._ewma
        recent_lost = self._recent_lost
        lost_count = 0
        for lost in flags:
            lost = bool(lost)
            if len(recent) == window and recent[0]:
                recent_lost -= 1
            recent.append(lost)
            value = 1.0 if lost else 0.0
            if lost:
                recent_lost += 1
                lost_count += 1
            if ewma is None:
                ewma = value
            else:
                ewma += alpha * (value - ewma)
        self.observed += len(flags)
        self.lost += lost_count
        self._recent_lost = recent_lost
        self._ewma = ewma

    def observe_block(self, lost: int, total: int) -> None:
        """Fold an aggregate report: ``lost`` of ``total`` packets lost.

        The aggregate erases ordering, so a deterministic one is
        chosen: losses are spread evenly across the ``total`` slots,
        *centered* within their strides (slot ``i`` is lost iff the
        rounded cumulative count ``(2*i*lost + total) // (2*total)``
        advances at ``i + 1``).  A clustered order would bias every
        sliding window that truncates an aggregate mid-way — an
        end-of-stride placement puts a ``lost=1`` aggregate's loss in
        the final slot, so a window cut at a membership change reads
        either a clean or a doubly-lossy tail the channel never had.
        """
        if total < 0 or not 0 <= lost <= total:
            raise SimulationError(
                f"need 0 <= lost <= total, got lost={lost}, total={total}")
        self.observe_many(_spread(lost, total))

    def reset(self) -> None:
        """Forget everything (new trial)."""
        self.observed = 0
        self.lost = 0
        self._recent.clear()
        self._recent_lost = 0
        self._ewma = None

    @property
    def lifetime_rate(self) -> float:
        """Lost/observed since construction (0.0 before any observation)."""
        if self.observed == 0:
            return 0.0
        return self.lost / self.observed

    @property
    def window_rate(self) -> float:
        """Exact loss rate over the last ``window`` observations."""
        if not self._recent:
            return 0.0
        return self._recent_lost / len(self._recent)

    @property
    def window_fill(self) -> int:
        """Observations currently inside the window (≤ ``window``)."""
        return len(self._recent)

    @property
    def window_lost(self) -> int:
        """Losses currently inside the window (exact integer count)."""
        return self._recent_lost

    @property
    def ewma_rate(self) -> float:
        """EWMA loss rate (0.0 before any observation)."""
        return self._ewma if self._ewma is not None else 0.0

    def __repr__(self) -> str:
        return (f"<LossEstimator observed={self.observed} "
                f"lifetime={self.lifetime_rate:.3f} "
                f"window={self.window_rate:.3f} ewma={self.ewma_rate:.3f}>")


class PooledLossEstimator:
    """Membership-aware pooling: one private window per report source.

    A single shared :class:`LossEstimator` cannot forget a departed
    receiver — its samples sit in the window until displaced, biasing
    every pooled rate toward a channel that no longer exists.  This
    estimator keys one private window per source and derives the
    pooled views from the *current* membership only, so
    :meth:`retire` folds a leaver (and its stale samples) out of the
    estimate in O(1), exactly at the membership boundary.

    The pooled surface mirrors the :class:`LossEstimator` attributes
    the adaptive layer reads (``window_rate`` / ``window_fill`` /
    ``ewma_rate``), and stays purely arithmetic — as deterministic as
    the report stream.
    """

    def __init__(self, window: int = 256, alpha: float = 0.125) -> None:
        if window < 1:
            raise SimulationError(f"window must be >= 1, got {window}")
        if not 0.0 < alpha <= 1.0:
            raise SimulationError(f"alpha must be in (0, 1], got {alpha}")
        self.window = window
        self.alpha = alpha
        self._members: Dict[str, LossEstimator] = {}
        self.retired = 0

    def estimator_for(self, source: str) -> LossEstimator:
        """The named source's private estimator (created on first use)."""
        estimator = self._members.get(source)
        if estimator is None:
            estimator = LossEstimator(window=self.window, alpha=self.alpha)
            self._members[source] = estimator
        return estimator

    def observe_block(self, source: str, lost: int, total: int) -> None:
        """Fold one source's aggregate report into its private window."""
        self.estimator_for(source).observe_block(lost, total)

    def retire(self, source: str) -> bool:
        """Drop a source and every sample it ever contributed.

        Returns whether the source had a window to drop; retiring an
        unknown source is a no-op (a receiver may depart before its
        first report).
        """
        if self._members.pop(source, None) is None:
            return False
        self.retired += 1
        return True

    @property
    def members(self) -> List[str]:
        """Currently pooled sources, sorted."""
        return sorted(self._members)

    @property
    def window_fill(self) -> int:
        """Observations inside all current members' windows."""
        return sum(e.window_fill for e in self._members.values())

    @property
    def window_lost(self) -> int:
        """Losses inside all current members' windows (exact integer)."""
        return sum(e.window_lost for e in self._members.values())

    @property
    def window_rate(self) -> float:
        """Exact pooled loss rate over current members' windows."""
        fill = self.window_fill
        if fill == 0:
            return 0.0
        return self.window_lost / fill

    @property
    def ewma_rate(self) -> float:
        """Fill-weighted mean of current members' EWMA rates.

        Weighting by window fill keeps a just-joined receiver's short
        history from swinging the pooled smoothed signal; summation
        runs in sorted member order so the float fold is independent
        of join order.
        """
        fill = self.window_fill
        if fill == 0:
            return 0.0
        weighted = sum(self._members[name].ewma_rate
                       * self._members[name].window_fill
                       for name in sorted(self._members))
        return weighted / fill

    def __repr__(self) -> str:
        return (f"<PooledLossEstimator members={len(self._members)} "
                f"retired={self.retired} window={self.window_rate:.3f}>")
