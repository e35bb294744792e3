"""The Gennaro–Rohatgi hash chain (paper Sec. 2.2, "Rohatgi's").

The first hash-chained stream authentication scheme: the stream is
processed off-line, each packet carries the hash of the *next* packet,
and the first packet is signed.  Verification is immediate (zero
receiver delay, one-hash buffer) but a single lost packet breaks the
chain for everything after it — the paper's Sec. 3 worked example,
``q_i = (1-p)^{i-2}`` and ``q_min = (1-p)^{n-2}``.
"""

from __future__ import annotations

from typing import Dict

from repro.core.graph import DependenceGraph
from repro.exceptions import SchemeParameterError
from repro.schemes.base import Scheme

__all__ = ["RohatgiScheme"]


class RohatgiScheme(Scheme):
    """Forward hash chain signed at the head.

    Dependence-graph: root ``P_1``; edges ``P_i -> P_{i+1}`` for
    ``i = 1 .. n-1`` (each packet carries the hash of its successor).
    """

    @property
    def name(self) -> str:
        return "rohatgi"

    def build_graph(self, n: int) -> DependenceGraph:
        if n < 1:
            raise SchemeParameterError(f"block size must be >= 1, got {n}")
        graph = DependenceGraph(n, root=1)
        for i in range(1, n):
            graph.add_edge(i, i + 1)
        return graph

    def q_profile(self, n: int, p: float, **delay: float) -> Dict[int, float]:
        """Eq. 8's closed form ``(1-p)^{i-2}``: each packet has one path."""
        # The analysis layer builds on schemes: imported at call time.
        from repro.analysis import rohatgi as analysis

        return dict(enumerate(analysis.q_profile(n, p), start=1))
