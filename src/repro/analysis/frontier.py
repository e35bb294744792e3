"""Exact ``q_i`` over any compiled dependence-graph with a narrow frontier.

``P_i`` verifies iff it is received and some packet carrying its hash
verifies; ``P_sign`` always does.  The engine walks the graph from
``P_sign`` in topological order.  The *frontier* is the set of processed
non-root vertices that some unprocessed vertex still relies on.  The
walk keeps the joint distribution of their verifiability bits, ``2^w``
states, and each vertex updates it with at most two ``np.bincount``
scatters, so the cost is ``O(n · 2^w)``.  The width ``w`` depends on the
scheme's shape, not on ``n`` (Rohatgi 1, ``E_{2,1}`` 2, ``C_{3,3}`` 11);
random graphs outgrow :data:`_MAX_WIDTH` and stay Monte Carlo.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

from repro.exceptions import AnalysisError

if TYPE_CHECKING:
    from repro.schemes.base import BlockPlan

__all__ = ["frontier_q_profile", "frontier_width"]

#: Widest frontier evaluated exactly: 2^16 states.
_MAX_WIDTH = 16

# (vertex, a carrier is the root, bits of its carriers, bits to clear,
# the vertex's own bit or 0 when no later vertex relies on it)
_Step = Tuple[int, bool, int, int, int]


def _schedule(plan: BlockPlan) -> Tuple[List[_Step], int]:
    """The walk's steps and its width.

    A vertex takes the lowest free bit once processed and frees it at
    its last successor, so the width is the largest frontier held.
    """
    walk = plan.order[::-1]  # P_sign first, carriers before carried
    step_of = {vertex: index for index, vertex in enumerate(walk)}
    carriers: List[List[int]] = [[] for _ in range(plan.n + 1)]
    last_use = [0] * (plan.n + 1)
    for vertex in walk:
        for target in plan.successors[vertex - 1]:
            carriers[target].append(vertex)
            last_use[vertex] = max(last_use[vertex], step_of[target])
    slot: Dict[int, int] = {}
    free: List[int] = []
    width = 0
    steps: List[_Step] = []
    for index, vertex in enumerate(walk[1:], start=1):
        rooted = plan.root in carriers[vertex]
        need = cleared = own = 0
        for carrier in carriers[vertex]:
            if carrier == plan.root:
                continue
            need |= 1 << slot[carrier]
            if last_use[carrier] == index:
                cleared |= 1 << slot[carrier]
                heapq.heappush(free, slot.pop(carrier))
        if plan.successors[vertex - 1]:
            slot[vertex] = heapq.heappop(free) if free else width
            width = max(width, slot[vertex] + 1)
            own = 1 << slot[vertex]
        steps.append((vertex, rooted, need, cleared | own, own))
    return steps, width


def frontier_width(plan: BlockPlan) -> int:
    """Frontier bits the exact walk over ``plan`` needs."""
    return _schedule(plan)[1]


def frontier_q_profile(plan: BlockPlan, p: float) -> Dict[int, float]:
    """Exact ``q_i = P{P_i verifiable | P_i received}`` by vertex ``1..n``.

    ``p`` is the iid loss rate; ``P_sign`` is always received.  Raises
    :class:`AnalysisError` when the frontier exceeds :data:`_MAX_WIDTH`.
    """
    if not 0.0 <= p <= 1.0:
        raise AnalysisError(f"loss rate must be in [0, 1], got {p}")
    steps, width = _schedule(plan)
    if width > _MAX_WIDTH:
        raise AnalysisError(
            f"frontier width {width} exceeds the exact-evaluation cap "
            f"{_MAX_WIDTH}; use Monte Carlo")
    size = 1 << width
    states = np.arange(size, dtype=np.int64)
    weights = np.zeros(size)
    weights[0] = 1.0
    q = [1.0] * (plan.n + 1)
    for vertex, rooted, need, cleared, own in steps:
        supported = weights
        if not rooted:
            supported = np.where(states & need, weights, 0.0)
            q[vertex] = float(supported.sum())
        if not cleared:  # a leaf nothing relies on, no carrier retires
            continue
        kept = states & ~cleared
        if own:
            verified = supported * (1.0 - p)
            weights = (np.bincount(kept | own, verified, size)
                       + np.bincount(kept, weights - verified, size))
        else:
            weights = np.bincount(kept, weights, size)
    return {vertex: q[vertex] for vertex in range(1, plan.n + 1)}
