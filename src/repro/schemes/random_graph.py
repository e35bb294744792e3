"""Probabilistic dependence-graph construction (paper Sec. 5).

"A simple method is that for each of the vertices, we construct an
edge to each of the earlier vertices with a probability p_x."  With the
signature at the end of the block, "earlier" means closer to the
signature in verification order, i.e. *later* in send order: each data
packet's hash is stored in each later packet independently with
probability ``p_x``.

The paper notes that probabilistic placement may leave a "negligibly
small" set of vertices unreachable from the root; this builder
optionally repairs them with a direct root edge so the graph satisfies
Definition 1 (repairs are counted so experiments can report how rare
they are).
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.graph import DependenceGraph
from repro.exceptions import SchemeParameterError
from repro.schemes.base import BlockPlan, Scheme

__all__ = ["RandomGraphScheme"]


class RandomGraphScheme(Scheme):
    """Random edge placement with per-pair probability ``p_x``.

    Parameters
    ----------
    edge_probability:
        ``p_x`` — probability that packet ``s``'s hash is stored in any
        given later packet.
    seed:
        Seed for the private RNG (reproducible graphs).
    repair_unreachable:
        When ``True`` (default) attach unreachable vertices directly to
        the root; when ``False`` leave them (the graph then fails
        :meth:`DependenceGraph.validate`, matching the paper's caveat).
    max_span:
        Optional cap on the distance between a packet and the packets
        carrying its hash, bounding buffer sizes as a designer would.
    """

    def __init__(self, edge_probability: float, seed: Optional[int] = None,
                 repair_unreachable: bool = True,
                 max_span: Optional[int] = None) -> None:
        if not 0.0 < edge_probability <= 1.0:
            raise SchemeParameterError(
                f"edge probability must be in (0, 1], got {edge_probability}"
            )
        if max_span is not None and max_span < 1:
            raise SchemeParameterError(f"max span must be >= 1, got {max_span}")
        self.edge_probability = edge_probability
        self.seed = seed
        self.repair_unreachable = repair_unreachable
        self.max_span = max_span
        self.last_repairs = 0

    @property
    def name(self) -> str:
        return f"random(p={self.edge_probability:g})"

    def build_graph(self, n: int) -> DependenceGraph:
        """Sample a graph over ``n`` packets; vertex ``n`` signs."""
        if n < 2:
            raise SchemeParameterError(f"block needs >= 2 packets, got {n}")
        rng = random.Random(self.seed)
        graph = DependenceGraph(n, root=n)
        for s in range(1, n):
            upper = n if self.max_span is None else min(s + self.max_span, n)
            for carrier in range(s + 1, upper + 1):
                if rng.random() < self.edge_probability:
                    graph.add_edge(carrier, s)
        self.last_repairs = 0
        if self.repair_unreachable:
            for vertex in sorted(graph.unreachable_vertices(), reverse=True):
                if not graph.has_edge(n, vertex):
                    graph.add_edge(n, vertex)
                    self.last_repairs += 1
        return graph

    def block_plan(self, n: int) -> BlockPlan:
        """Compile a freshly sampled graph for every block.

        An unseeded scheme draws new randomness on each
        :meth:`build_graph` call, and every call records
        :attr:`last_repairs`, so no plan is kept between blocks.
        """
        return BlockPlan.compile(self.build_graph(n))
