"""Aggregation of simulation outcomes into the paper's metrics.

Empirical counterparts of the analytic quantities: per-position
authentication probability ``q_i`` (verified given received), its
minimum ``q_min``, verification delays and buffer peaks.  Positions
are per-block vertex indices (1-based send order within a block), so
results from many blocks and trials aggregate position-wise — exactly
how the paper's per-packet probabilities are indexed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.exceptions import SimulationError

__all__ = ["PositionTally", "SimulationStats"]

#: One packet's fate for :meth:`SimulationStats.record_block`:
#: ``(position, received, verified, delay)``.
Fate = Tuple[int, bool, bool, Optional[float]]


@dataclass
class PositionTally:
    """Received/verified counts for one block position."""

    received: int = 0
    verified: int = 0

    @property
    def q(self) -> Optional[float]:
        """Empirical ``q_i``; ``None`` until the position was ever received."""
        if self.received == 0:
            return None
        return self.verified / self.received


@dataclass
class SimulationStats:
    """Accumulator across blocks and trials."""

    tallies: Dict[int, PositionTally] = field(default_factory=dict)
    delays: List[float] = field(default_factory=list)
    message_buffer_peak: int = 0
    hash_buffer_peak: int = 0
    sent: int = 0
    dropped: int = 0
    forged: int = 0
    # Adversarial accounting (all zero in passive loss-only runs).
    corrupted: int = 0       # deliveries tampered on the wire
    injected: int = 0        # forged packets the attacker added
    replayed: int = 0        # duplicate deliveries the attacker added
    undecodable: int = 0     # buffers rejected by the strict decoder
    forged_rejected: int = 0  # decodable packets rejected by auth checks
    replays_dropped: int = 0  # duplicates dropped by replay detection
    forged_accepted: int = 0  # attacker content verified — MUST stay 0

    def record(self, position: int, received: bool, verified: bool,
               delay: Optional[float] = None) -> None:
        """Record one packet's fate at block position ``position``."""
        if position < 1:
            raise SimulationError(f"positions are 1-based, got {position}")
        if verified and not received:
            raise SimulationError("verified packets must have been received")
        tally = self.tallies.setdefault(position, PositionTally())
        if received:
            tally.received += 1
        if verified:
            tally.verified += 1
            if delay is not None:
                self.delays.append(delay)

    def record_block(self, fates: Iterable[Fate]) -> None:
        """:meth:`record` each ``(position, received, verified, delay)``.

        One call per block; the checks, tallies and ``delays`` order
        are exactly those of calling :meth:`record` on each fate in
        turn.
        """
        tallies = self.tallies
        delays = self.delays
        for position, received, verified, delay in fates:
            if position < 1:
                raise SimulationError(
                    f"positions are 1-based, got {position}")
            if verified and not received:
                raise SimulationError(
                    "verified packets must have been received")
            tally = tallies.get(position)
            if tally is None:
                tally = tallies[position] = PositionTally()
            if received:
                tally.received += 1
            if verified:
                tally.verified += 1
                if delay is not None:
                    delays.append(delay)

    # ------------------------------------------------------------------

    def q_profile(self) -> Dict[int, float]:
        """Per-position empirical ``q_i`` (positions ever received)."""
        return {
            position: tally.q
            for position, tally in sorted(self.tallies.items())
            if tally.q is not None
        }

    @property
    def q_min(self) -> float:
        """Minimum empirical ``q_i`` across positions."""
        profile = self.q_profile()
        if not profile:
            raise SimulationError("no received packets recorded")
        return min(profile.values())

    @property
    def overall_q(self) -> float:
        """Verified/received over all positions pooled."""
        received = sum(t.received for t in self.tallies.values())
        verified = sum(t.verified for t in self.tallies.values())
        if received == 0:
            raise SimulationError("no received packets recorded")
        return verified / received

    @property
    def mean_delay(self) -> float:
        """Mean verification delay among verified packets."""
        if not self.delays:
            return 0.0
        return sum(self.delays) / len(self.delays)

    @property
    def max_delay(self) -> float:
        """Worst verification delay observed."""
        if not self.delays:
            return 0.0
        return max(self.delays)

    @property
    def observed_loss_rate(self) -> float:
        """Channel loss rate realized across the run."""
        if self.sent == 0:
            return 0.0
        return self.dropped / self.sent

    def merge_buffer_peaks(self, message_peak: int, hash_peak: int) -> None:
        """Fold one trial's buffer peaks into the run maxima."""
        self.message_buffer_peak = max(self.message_buffer_peak, message_peak)
        self.hash_buffer_peak = max(self.hash_buffer_peak, hash_peak)

    def merge(self, other: "SimulationStats") -> "SimulationStats":
        """Exact merge of two shards into a new accumulator.

        Counts sum per position, delays concatenate in merge order
        (shards ordered by trial index reproduce the serial delay
        sequence exactly), buffer peaks take the max.  Both inputs are
        left untouched, so merging is safe inside a process pool that
        still holds references to the shard results.
        """
        merged = SimulationStats()
        for source in (self, other):
            for position, tally in source.tallies.items():
                total = merged.tallies.setdefault(position, PositionTally())
                total.received += tally.received
                total.verified += tally.verified
            merged.delays.extend(source.delays)
            merged.merge_buffer_peaks(source.message_buffer_peak,
                                      source.hash_buffer_peak)
            merged.sent += source.sent
            merged.dropped += source.dropped
            merged.forged += source.forged
            merged.corrupted += source.corrupted
            merged.injected += source.injected
            merged.replayed += source.replayed
            merged.undecodable += source.undecodable
            merged.forged_rejected += source.forged_rejected
            merged.replays_dropped += source.replays_dropped
            merged.forged_accepted += source.forged_accepted
        return merged

    @staticmethod
    def merge_all(shards: "List[SimulationStats]") -> "SimulationStats":
        """Fold :meth:`merge` over shard results in order."""
        merged = SimulationStats()
        for shard in shards:
            merged = merged.merge(shard)
        return merged
