"""Vectorized Monte Carlo estimation of ``q_i`` on arbitrary graphs.

The paper's recurrences assume path-failure independence; this module
computes the *exact* (up to sampling error) probabilities by simulating
loss directly on the dependence-graph: sample which packets arrive,
then propagate verifiability from the root through the received
subgraph.  All trials are evaluated simultaneously as numpy boolean
matrices, one topological sweep per graph, so blocks of 1000 packets
with tens of thousands of trials run in well under a second.

Results are :class:`McResult` objects that carry the raw received /
verified counts, so estimates from independent shards merge *exactly*
(:meth:`McResult.merge`) — the contract the process-pool engine in
:mod:`repro.parallel` builds on.

For TESLA's extended graph an analytic shortcut exists
(:func:`tesla_lambda_monte_carlo`) since only the key-disclosure
packets matter for ``λ``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

import numpy as np

from repro.core.graph import DependenceGraph
from repro.exceptions import AnalysisError
from repro.obs.registry import get_registry
from repro.obs.spans import span

__all__ = [
    "McResult",
    "graph_monte_carlo",
    "graph_monte_carlo_model",
    "tesla_lambda_monte_carlo",
]


@dataclass(frozen=True)
class McResult:
    """Monte Carlo estimate of the per-packet ``q_i`` profile.

    Attributes
    ----------
    q:
        Estimated ``q_i`` per vertex (vertices never received in any
        trial are absent).
    received_counts:
        Number of trials in which each vertex was received (the
        denominator of each estimate — drives the standard error).
    trials:
        Trial count.
    verified_counts:
        Number of trials in which each vertex was received *and*
        verified (the numerator of each estimate).  Kept as integers so
        shard results merge exactly; reconstructed from ``q`` when a
        result predating this field is merged.
    """

    q: Dict[int, float]
    received_counts: Dict[int, int]
    trials: int
    verified_counts: Dict[int, int] = field(default_factory=dict)

    @property
    def q_min(self) -> float:
        """Minimum estimated ``q_i``."""
        if not self.q:
            raise AnalysisError("no vertex was ever received")
        return min(self.q.values())

    def standard_error(self, vertex: int) -> float:
        """Binomial standard error of the estimate at ``vertex``."""
        count = self.received_counts.get(vertex, 0)
        if count == 0:
            raise AnalysisError(f"vertex {vertex} never received")
        q = self.q[vertex]
        return float(np.sqrt(max(q * (1.0 - q), 0.0) / count))

    def _verified(self, vertex: int) -> int:
        """Integer verified count at ``vertex`` (reconstructed if absent)."""
        if vertex in self.verified_counts:
            return self.verified_counts[vertex]
        # q = verified / count is exact in double precision for any
        # realistic trial count, so rounding recovers the integer.
        return int(round(self.q[vertex] * self.received_counts[vertex]))

    def merge(self, other: "McResult") -> "McResult":
        """Exact merge of two independent shards.

        Received and verified counts sum per vertex; each merged ``q_i``
        is the exact ratio of the summed integers, so merging is
        associative and commutative bit-for-bit — the property the
        deterministic parallel engine relies on.
        """
        if not isinstance(other, McResult):
            raise AnalysisError(f"cannot merge McResult with {type(other)!r}")
        counts: Dict[int, int] = dict(self.received_counts)
        verified: Dict[int, int] = {
            vertex: self._verified(vertex) for vertex in self.received_counts
        }
        for vertex, count in other.received_counts.items():
            counts[vertex] = counts.get(vertex, 0) + count
            verified[vertex] = verified.get(vertex, 0) + other._verified(vertex)
        q = {vertex: verified[vertex] / counts[vertex]
             for vertex in sorted(counts)}
        return McResult(
            q=q,
            received_counts={vertex: counts[vertex] for vertex in sorted(counts)},
            trials=self.trials + other.trials,
            verified_counts={vertex: verified[vertex]
                             for vertex in sorted(counts)},
        )

    @staticmethod
    def merge_all(results: Iterable["McResult"]) -> "McResult":
        """Fold :meth:`merge` over an iterable of shard results."""
        merged: Optional[McResult] = None
        for result in results:
            merged = result if merged is None else merged.merge(result)
        if merged is None:
            raise AnalysisError("nothing to merge")
        return merged


def _tally(graph: DependenceGraph, received: np.ndarray,
           verifiable: np.ndarray, trials: int) -> McResult:
    """Fold the per-trial boolean matrices into an :class:`McResult`."""
    q: Dict[int, float] = {}
    counts: Dict[int, int] = {}
    verified: Dict[int, int] = {}
    for vertex in graph.vertices:
        count = int(received[:, vertex].sum())
        if count == 0:
            continue
        counts[vertex] = count
        verified[vertex] = int(verifiable[:, vertex].sum())
        q[vertex] = verified[vertex] / count
    return McResult(q=q, received_counts=counts, trials=trials,
                    verified_counts=verified)


def _propagate(graph: DependenceGraph, received: np.ndarray) -> np.ndarray:
    """Vectorized verifiability sweep: one column gather per vertex.

    Gathers every predecessor column at once and reduces with
    ``np.logical_or.reduce`` — no Python-level loop over predecessors.
    """
    trials = received.shape[0]
    verifiable = np.zeros((trials, graph.n + 1), dtype=bool)
    verifiable[:, graph.root] = received[:, graph.root]
    for vertex in graph.topological_order():
        if vertex == graph.root:
            continue
        predecessors = graph.predecessors(vertex)
        if not predecessors:
            continue  # unreachable vertices rejected by validate()
        support = np.logical_or.reduce(verifiable[:, predecessors], axis=1)
        verifiable[:, vertex] = received[:, vertex] & support
    return verifiable


def graph_monte_carlo(graph: DependenceGraph, p: float, trials: int = 10_000,
                      seed=None,
                      root_always_received: bool = True) -> McResult:
    """Estimate ``q_i = P{verifiable | received}`` for every vertex.

    Parameters
    ----------
    graph:
        Any valid dependence-graph.
    p:
        iid loss rate.
    trials:
        Independent loss patterns to sample.
    seed:
        RNG seed — anything :func:`numpy.random.default_rng` accepts,
        including a :class:`numpy.random.SeedSequence` from a spawned
        seed tree.
    root_always_received:
        The paper's standing assumption about ``P_sign``; set ``False``
        to study what happens without signature protection.
    """
    if not 0.0 <= p <= 1.0:
        raise AnalysisError(f"loss rate must be in [0, 1], got {p}")
    if trials < 1:
        raise AnalysisError(f"need >= 1 trial, got {trials}")
    registry = get_registry()
    if registry.enabled:
        registry.count("mc.graph.runs")
        registry.count("mc.graph.trials", trials)
    with span("mc.graph_monte_carlo"):
        graph.validate()
        n = graph.n
        rng = np.random.default_rng(seed)
        received = rng.random((trials, n + 1)) >= p  # column 0 unused
        received[:, 0] = False
        if root_always_received:
            received[:, graph.root] = True
        verifiable = _propagate(graph, received)
        return _tally(graph, received, verifiable, trials)


def graph_monte_carlo_model(graph: DependenceGraph, loss_model,
                            trials: int = 1000,
                            root_always_received: bool = True,
                            seed: Optional[int] = None) -> McResult:
    """Monte Carlo ``q_i`` under an arbitrary :class:`LossModel`.

    Unlike :func:`graph_monte_carlo` (iid, fully vectorized), this
    variant draws each trial's loss pattern from the model —
    Gilbert–Elliott burst loss, trace replay, anything with the
    ``is_lost``/``reset`` interface — enabling the paper's named
    future-work extension to Markov loss.

    The model is restarted once up front, not per trial, so consecutive
    trials see fresh randomness from the same stream.  Pass ``seed`` to
    :meth:`LossModel.reseed` the model first, making runs reproducible
    even when the model was constructed without a seed of its own; with
    ``seed=None`` the model is only ``reset()``, preserving the old
    behavior.
    """
    if trials < 1:
        raise AnalysisError(f"need >= 1 trial, got {trials}")
    registry = get_registry()
    if registry.enabled:
        registry.count("mc.model.runs")
        registry.count("mc.model.trials", trials)
    with span("mc.graph_monte_carlo_model"):
        graph.validate()
        n = graph.n
        if seed is not None:
            loss_model.reseed(seed)
        else:
            loss_model.reset()
        # One bulk draw per trial instead of O(n) Python calls per packet.
        received = np.empty((trials, n + 1), dtype=bool)
        received[:, 0] = False
        for trial in range(trials):
            received[trial, 1:] = np.logical_not(loss_model.sample(n))
        if root_always_received:
            received[:, graph.root] = True
        verifiable = _propagate(graph, received)
        return _tally(graph, received, verifiable, trials)


def tesla_lambda_monte_carlo(n: int, p: float, trials: int = 10_000,
                             seed=None) -> McResult:
    """Monte Carlo for TESLA's ``λ_i`` (cross-checks ``1 - p^{n+1-i}``).

    Samples loss of the ``n`` key-disclosure opportunities; ``λ_i``
    holds when any disclosure ``j >= i`` arrives.  Message-packet loss
    is irrelevant to ``λ`` (it conditions on receipt), so only key
    carriers are sampled.
    """
    if n < 1:
        raise AnalysisError(f"need n >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise AnalysisError(f"loss rate must be in [0, 1], got {p}")
    registry = get_registry()
    if registry.enabled:
        registry.count("mc.tesla_lambda.runs")
        registry.count("mc.tesla_lambda.trials", trials)
    rng = np.random.default_rng(seed)
    key_received = rng.random((trials, n)) >= p
    # suffix_any[:, i] == any disclosure with index >= i+1 arrived.
    suffix_any = np.zeros((trials, n), dtype=bool)
    suffix_any[:, n - 1] = key_received[:, n - 1]
    for i in range(n - 2, -1, -1):
        suffix_any[:, i] = key_received[:, i] | suffix_any[:, i + 1]
    q = {i + 1: float(suffix_any[:, i].mean()) for i in range(n)}
    counts = {i + 1: trials for i in range(n)}
    verified = {i + 1: int(suffix_any[:, i].sum()) for i in range(n)}
    return McResult(q=q, received_counts=counts, trials=trials,
                    verified_counts=verified)
