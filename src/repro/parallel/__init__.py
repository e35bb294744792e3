"""Process-pool execution engine with deterministic seed trees.

Monte-Carlo estimation dominates every figure reproduction and
parameter sweep in this repository; this package shards those trials
(and whole experiment grids) across worker processes without giving up
reproducibility: a run's chunk layout depends only on its trial count,
each chunk draws from its own ``SeedSequence.spawn`` child, and shard
results merge through exact integer-count folds — so the answer is
bit-for-bit identical whether it ran on 1 worker or 64.

Entry points
------------
* :func:`parallel_graph_monte_carlo` — sharded vectorized graph
  estimator (the fast path for large sweeps).
* :func:`parallel_trials` — the sharded trial kernel behind every
  byte-level driver (passive, attacked, TESLA, topology, multi-receiver
  trials), identical to the serial kernel down to the soundness
  counters.
* :func:`sweep` — map any picklable function over a parameter grid.
* :func:`set_default_workers` — process-wide pool size (the CLI's
  ``--workers`` flag; ``REPRO_WORKERS`` in the environment also works).
"""

from repro.parallel.montecarlo import parallel_graph_monte_carlo
from repro.parallel.pool import (
    get_default_workers,
    resolve_workers,
    run_tasks,
    set_default_workers,
    sweep,
)
from repro.parallel.seeds import (
    DEFAULT_CHUNKS,
    chunk_sizes,
    resolve_chunks,
    spawn_seed_tree,
)
from repro.parallel.wire import parallel_trials

__all__ = [
    "parallel_graph_monte_carlo",
    "parallel_trials",
    "sweep",
    "run_tasks",
    "set_default_workers",
    "get_default_workers",
    "resolve_workers",
    "spawn_seed_tree",
    "chunk_sizes",
    "resolve_chunks",
    "DEFAULT_CHUNKS",
]
