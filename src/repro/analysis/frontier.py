"""Exact ``q_i`` over any compiled dependence-graph with a narrow frontier.

``P_i`` verifies iff it is received and some packet carrying its hash
verifies; ``P_sign`` always does.  The engine walks the graph from
``P_sign`` in topological order.  The *frontier* is the set of processed
non-root vertices that some unprocessed vertex still relies on.  The
walk keeps the joint distribution of the loss channel's state and the
frontier's verifiability bits, ``s · 2^w`` states, and each vertex
updates it with at most two ``np.bincount`` scatters, so the cost is
``O(n · s · 2^w)``.  The width ``w`` depends on the scheme's shape, not
on ``n`` (Rohatgi 1, ``E_{2,1}`` 2, ``C_{3,3}`` 10); random graphs
outgrow :data:`_MAX_WIDTH` and stay Monte Carlo.

Without ``P_sign`` many graphs fall apart (``E_{m,d}`` into ``d``
chains); each component is walked on its own, so ``w`` is the largest
component's width.  iid loss is the one-state channel.  A Markov
channel (Gilbert–Elliott, or any :class:`~repro.network.loss.MarkovLoss`)
starts at its stationary distribution in ``P_sign``'s slot and steps
``K^gap`` between the slots a walk visits — the time-reversed ``K``
when the walk runs against send order, as it does for EMSS and AC,
which send ``P_sign`` last.  That needs each walk to be monotone in send
order; with more than one channel state a plan whose walk is not (AC's)
is refused.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Dict, List, Tuple, Union

import numpy as np

from repro.exceptions import AnalysisError
from repro.network.loss import LossModel

if TYPE_CHECKING:
    from repro.schemes.base import BlockPlan

__all__ = ["frontier_q_profile", "frontier_width"]

#: Widest frontier evaluated exactly: 2^16 states.
_MAX_WIDTH = 16

# (vertex, a carrier is the root, bits of its carriers, bits to clear,
# the vertex's own bit or 0 when no later vertex relies on it)
_Step = Tuple[int, bool, int, int, int]


def _schedule(plan: BlockPlan) -> Tuple[List[List[_Step]], int]:
    """One walk per component of the graph without ``P_sign``, and the
    widest component's width.

    A vertex takes the lowest bit its component has free once processed
    and frees it at its last successor, so a component's width is the
    largest frontier it holds.
    """
    walk = plan.order[::-1]  # P_sign first, carriers before carried
    step_of = {vertex: index for index, vertex in enumerate(walk)}
    carriers: List[List[int]] = [[] for _ in range(plan.n + 1)]
    last_use = [0] * (plan.n + 1)
    component = list(range(plan.n + 1))  # union-find parents

    def find(vertex: int) -> int:
        while component[vertex] != vertex:
            component[vertex] = component[component[vertex]]
            vertex = component[vertex]
        return vertex

    for vertex in walk:
        for target in plan.successors[vertex - 1]:
            carriers[target].append(vertex)
            last_use[vertex] = max(last_use[vertex], step_of[target])
            if vertex != plan.root:
                component[find(vertex)] = find(target)
    slot: Dict[int, int] = {}
    free: Dict[int, List[int]] = {}
    widths: Dict[int, int] = {}
    walks: Dict[int, List[_Step]] = {}
    for index, vertex in enumerate(walk[1:], start=1):
        part = find(vertex)
        pool = free.setdefault(part, [])
        rooted = plan.root in carriers[vertex]
        need = cleared = own = 0
        for carrier in carriers[vertex]:
            if carrier == plan.root:
                continue
            need |= 1 << slot[carrier]
            if last_use[carrier] == index:
                cleared |= 1 << slot[carrier]
                heapq.heappush(pool, slot.pop(carrier))
        width = widths.setdefault(part, 0)
        if plan.successors[vertex - 1]:
            slot[vertex] = heapq.heappop(pool) if pool else width
            widths[part] = max(width, slot[vertex] + 1)
            own = 1 << slot[vertex]
        walks.setdefault(part, []).append(
            (vertex, rooted, need, cleared | own, own))
    return list(walks.values()), max(widths.values(), default=0)


def frontier_width(plan: BlockPlan) -> int:
    """Frontier bits the exact walk over ``plan`` needs."""
    return _schedule(plan)[1]


def _channel(loss: Union[float, LossModel]) -> Tuple[np.ndarray, np.ndarray]:
    """The transition matrix and per-state loss rates of ``loss``."""
    if isinstance(loss, LossModel):
        chain = loss.chain
        if chain is None:
            raise AnalysisError(
                f"{type(loss).__name__} is not a Markov channel")
        transition, rates = chain
    else:
        if not 0.0 <= loss <= 1.0:
            raise AnalysisError(f"loss rate must be in [0, 1], got {loss}")
        transition, rates = [[1.0]], [loss]
    return np.asarray(transition, dtype=float), np.asarray(rates, dtype=float)


def _stationary(transition: np.ndarray) -> np.ndarray:
    states = transition.shape[0]
    a = np.vstack([transition.T - np.eye(states), np.ones(states)])
    b = np.zeros(states + 1)
    b[-1] = 1.0
    pi = np.clip(np.linalg.lstsq(a, b, rcond=None)[0], 0.0, None)
    return pi / pi.sum()


def _given_receipt(receipt: np.ndarray, supported: np.ndarray,
                   weights: np.ndarray) -> float:
    """``P{supported | received}``: channel state ``s`` weighs ``r_s``.

    With one state receipt is independent of the frontier, and so it is
    when no state delivers: both give the support probability.
    """
    count = len(receipt)
    if count > 1:
        arrived = float(receipt @ weights.reshape(count, -1).sum(axis=1))
        if arrived > 0.0:
            return float(receipt @ supported.reshape(count, -1).sum(axis=1)
                         ) / arrived
    return float(supported.sum())


def frontier_q_profile(plan: BlockPlan,
                       loss: Union[float, LossModel]) -> Dict[int, float]:
    """Exact ``q_i = P{P_i verifiable | P_i received}`` by vertex ``1..n``.

    ``loss`` is the iid loss rate or a loss model with a Markov
    ``chain``; ``P_sign`` is always received.  Raises
    :class:`AnalysisError` when the frontier exceeds :data:`_MAX_WIDTH`,
    or when a channel with more than one state meets a walk that is not
    monotone in send order.
    """
    transition, rates = _channel(loss)
    walks, width = _schedule(plan)
    if width > _MAX_WIDTH:
        raise AnalysisError(
            f"frontier width {width} exceeds the exact-evaluation cap "
            f"{_MAX_WIDTH}; use Monte Carlo")
    count = len(rates)
    if count > 1:
        for walk in walks:
            times = [plan.root] + [step[0] for step in walk]
            gaps = np.diff(times)
            if not (np.all(gaps > 0) or np.all(gaps < 0)):
                raise AnalysisError(
                    f"exact q_i under a {count}-state channel needs a walk "
                    f"monotone in send order; this one visits {times[:8]}")
    stationary = _stationary(transition)
    receipt = 1.0 - rates
    # reverse[s, u] = P{state u one slot earlier | state s now}
    reverse = (transition.T * stationary
               / np.where(stationary > 0, stationary, 1.0)[:, None])
    kernels: Dict[int, np.ndarray] = {}  # gap -> K^gap, transposed
    size = 1 << width
    # Channel state s and frontier bits b sit at flat index s * size + b.
    states = np.arange(count * size, dtype=np.int64)
    survive = np.repeat(receipt, size)
    q = [1.0] * (plan.n + 1)
    for walk in walks:
        weights = np.zeros(count * size)
        weights[::size] = stationary
        time = plan.root
        for vertex, rooted, need, cleared, own in walk:
            if count > 1:  # one state is iid: nothing to step
                gap = vertex - time
                if gap not in kernels:
                    step = transition if gap > 0 else reverse
                    kernels[gap] = np.linalg.matrix_power(step, abs(gap)).T
                weights = (kernels[gap] @ weights.reshape(count, size)).ravel()
                time = vertex
            supported = weights
            if not rooted:
                supported = np.where(states & need, weights, 0.0)
                q[vertex] = _given_receipt(receipt, supported, weights)
            if not cleared:  # a leaf nothing relies on, no carrier retires
                continue
            kept = states & ~cleared
            if own:
                verified = supported * survive
                weights = (np.bincount(kept | own, verified, count * size)
                           + np.bincount(kept, weights - verified,
                                         count * size))
            else:
                weights = np.bincount(kept, weights, count * size)
    return {vertex: q[vertex] for vertex in range(1, plan.n + 1)}
