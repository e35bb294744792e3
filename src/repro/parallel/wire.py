"""Sharded trial kernel.

Every offline byte-level driver is one call to
:func:`~repro.simulation.trials.run_trials`, whose channels key each
trial's randomness off the trial's *global* index.  Sharding is
therefore a partition of ``range(trials)`` into contiguous ranges, and
merging each receiver's per-range
:class:`~repro.simulation.stats.SimulationStats` in range order
reproduces the serial result exactly — same tallies, same delay
sequence, same buffer peaks and counters.
"""

from __future__ import annotations

from typing import List, Optional

from repro.exceptions import SimulationError
from repro.parallel.pool import run_tasks
from repro.parallel.seeds import chunk_sizes, resolve_chunks
from repro.schemes.base import Scheme
from repro.simulation.stats import SimulationStats
from repro.simulation.trials import run_trials

__all__ = ["parallel_trials"]


def _trial_chunk(task) -> List[SimulationStats]:
    scheme, block_size, first_trial, trial_count, channels, options = task
    return run_trials(scheme, block_size, first_trial, trial_count,
                      channels, **options)


def parallel_trials(scheme: Scheme, block_size: int, trials: int, channels,
                    *, workers: Optional[int] = None,
                    chunks: Optional[int] = None,
                    **options) -> List[SimulationStats]:
    """Sharded :func:`~repro.simulation.trials.run_trials` over all trials.

    The chunk layout depends only on ``trials``, so the output equals
    the serial kernel's for any worker count.  ``options`` are the
    kernel's keywords.  Everything is pickled to the workers: a custom
    ``signer`` must be a pure function of its inputs (e.g.
    :class:`~repro.crypto.batch.StreamBatchSigner`).
    """
    if trials < 1:
        raise SimulationError(f"need >= 1 trial, got {trials}")
    tasks = []
    first_trial = 0
    for size in chunk_sizes(trials, resolve_chunks(trials, chunks)):
        tasks.append((scheme, block_size, first_trial, size, channels,
                      options))
        first_trial += size
    shards = run_tasks(_trial_chunk, tasks, workers)
    return [SimulationStats.merge_all(list(receiver))
            for receiver in zip(*shards)]
