"""Fixed-interval gauge sampling on the session's virtual clock.

Block-level aggregates answer "how did the run go"; operators of a
live stream want "how is it going *now*": buffered packets per
receiver, the loss estimate the controller is about to act on, the
scheme parameters currently in force.  :class:`TimeseriesSampler`
records those gauges on a fixed **virtual-time** grid — tick ``k``
fires the first time the clock reaches ``k * interval_s`` — so the
sample schedule, like everything else in a serve session, is a pure
function of the config and the emitted file is byte-identical across
runs.

Rows are plain dicts written as sorted-key JSON lines (one line per
receiver per tick, plus one ``_controller`` row carrying the adaptive
state).  The sampler is a :class:`~repro.obs.sinks.CanonicalLog` keyed
by tick, so it buffers in memory and flushes on ``close`` — the same
crash-safe discipline as the lifecycle tracer.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.exceptions import AnalysisError
from repro.obs.sinks import CanonicalLog, LogTarget

__all__ = ["TimeseriesSampler", "CONTROLLER_ROW", "HEALTH_ROW"]

#: Reserved "receiver" id for the controller-state row of each tick.
CONTROLLER_ROW = "_controller"

#: Reserved "receiver" id for the health-monitor row of each tick
#: (present only when a session runs with the health plane enabled).
HEALTH_ROW = "_health"


class TimeseriesSampler(CanonicalLog):
    """Per-receiver gauges on a fixed virtual-time grid.

    Parameters
    ----------
    interval_s:
        Virtual seconds between ticks; the serving loop asks
        :meth:`due` after each block barrier and records one row-set
        when a tick boundary has been crossed (stamped with the last
        crossed tick, so the grid stays exact even when a single
        block spans several intervals).
    sink:
        A path, text stream or :class:`~repro.obs.sinks.TraceSink` the
        rows are written to on :meth:`flush`/:meth:`close`; ``None``
        keeps them in memory only.
    """

    def __init__(self, interval_s: float = 0.05,
                 sink: LogTarget = None) -> None:
        if interval_s <= 0:
            raise AnalysisError(
                f"timeseries interval must be > 0, got {interval_s}")
        super().__init__(sink)
        self.interval_s = float(interval_s)
        self._tick = 1  # next grid index to fire
        self.samples: List[dict] = []

    def due(self, now: float) -> bool:
        """Whether the clock has crossed the next tick boundary."""
        return now >= self._tick * self.interval_s

    def record(self, now: float, rows: Sequence[Dict[str, object]]) -> bool:
        """Record ``rows`` if a tick is due; returns whether it fired.

        Each row must carry an ``"r"`` receiver id; the sampler stamps
        the quantized tick time as ``"t"`` (grid index times interval,
        never the raw clock reading — byte-stable across runs).
        """
        if not self.due(now):
            return False
        while (self._tick + 1) * self.interval_s <= now:
            self._tick += 1
        tick_time = self._tick * self.interval_s
        self._tick += 1
        for row in rows:
            if "r" not in row:
                raise AnalysisError("timeseries row missing receiver id 'r'")
            stamped = {"t": tick_time}
            stamped.update(row)
            self.append((tick_time, len(self.samples)), stamped)
            self.samples.append(stamped)
        return True

    def last_gauges(self) -> Dict[str, Dict[str, object]]:
        """Latest row per receiver id (for end-of-run snapshots)."""
        latest: Dict[str, Dict[str, object]] = {}
        for row in self.samples:
            latest[str(row["r"])] = row
        return latest
