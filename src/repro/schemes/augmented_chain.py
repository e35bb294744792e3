"""The Augmented Chain ``C_{a,b}`` of Golle and Modadugu.

Designed to survive a single burst of loss: a sparse first-level chain
where each chain packet's hash is stored in the next chain packet and
in the ``a``-th next, *augmented* by inserting ``b`` second-level
packets between consecutive chain packets, each linked to two other
packets.

Indexing follows the paper's Eq. 10 exactly.  In signature-rooted
("reversed") indexing — index 1 nearest the signature, the signature
packet itself kept as a separate root vertex — packet ``i`` maps to
``(x, y)`` with ``x = (i-1) // (b+1)`` and ``y = i mod (b+1)``:

* ``y == 0`` — a first-level chain packet (the ``x``-th), relying on
  chain packets ``x-1`` and ``x-a``; chain packets with ``x <= a``
  attach directly to the signature (the Eq. 10 boundary
  ``q(x,0) = 1 for x <= a``);
* ``y in 1..b-1`` — a second-level packet relying on ``(x, y+1)`` and
  the chain packet ``(x, 0)``;
* ``y == b`` — the last inserted packet of its group, relying on the
  two chain packets ``(x, 0)`` and ``(x+1, 0)``.

Dependences that point beyond the block (near the early-transmission
boundary) are dropped; a vertex left with no support attaches directly
to the root, mirroring the paper's unit boundary conditions.  Note
some second-level dependences are *anti-causal* in send order (a
packet's hash carried by an earlier-sent packet) — the paper
explicitly allows negative offsets, and the offline block builder
realizes them without difficulty.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.graph import DependenceGraph
from repro.exceptions import SchemeParameterError
from repro.schemes.base import Scheme

__all__ = ["AugmentedChainScheme", "ac_vertex_coordinates"]


def ac_vertex_coordinates(i: int, b: int) -> Tuple[int, int]:
    """Map reversed index ``i`` (1-based) to Eq. 10 coordinates ``(x, y)``."""
    if i < 1:
        raise SchemeParameterError(f"reversed index must be >= 1, got {i}")
    return (i - 1) // (b + 1), i % (b + 1)


class AugmentedChainScheme(Scheme):
    """``C_{a,b}``: two-level augmented chain, signed at the block end.

    Parameters
    ----------
    a:
        First-level skip distance (``a >= 2``; ``a = 1`` would make the
        skip edge coincide with the chain edge).
    b:
        Second-level group size: ``b`` packets inserted per chain gap
        (Eq. 10's period is ``b + 1``).
    """

    def __init__(self, a: int = 3, b: int = 3) -> None:
        if a < 2:
            raise SchemeParameterError(f"augmented chain needs a >= 2, got {a}")
        if b < 1:
            raise SchemeParameterError(f"augmented chain needs b >= 1, got {b}")
        self.a = a
        self.b = b

    @property
    def name(self) -> str:
        return f"ac({self.a},{self.b})"

    def _dependencies(self, i: int, n_data: int) -> List[int]:
        """Reversed indices that packet ``i`` relies on.

        ``0`` denotes the signed root: dependences falling outside the
        block (the unit boundary conditions of Eq. 10 on both ends) are
        realized as direct links from the signature packet — see the
        boundary discussion in :mod:`repro.analysis.augmented_chain`.
        """
        a, b = self.a, self.b
        chains = n_data // (b + 1)
        x, y = ac_vertex_coordinates(i, b)

        def chain_ref(chain_x: int) -> int:
            if chain_x >= chains:
                return 0  # unit boundary: the root itself
            return (chain_x + 1) * (b + 1)

        if y == 0:
            if x <= a:
                return [0]  # boundary: directly signed region
            deps = [i - (b + 1), i - a * (b + 1)]
        elif y == b:
            deps = [chain_ref(x + 1), chain_ref(x)]
        else:
            upper = i + 1 if i + 1 <= n_data else 0
            deps = [upper, chain_ref(x)]
        return sorted({j for j in deps if 0 <= j <= n_data})

    def build_graph(self, n: int) -> DependenceGraph:
        """Graph over ``n`` packets; vertex ``n`` is the signature packet.

        Reversed index ``i`` corresponds to send-order vertex
        ``n - i``; the signature is sent last.
        """
        if n < 2:
            raise SchemeParameterError(f"block needs >= 2 packets, got {n}")
        n_data = n - 1
        graph = DependenceGraph(n, root=n)
        for i in range(1, n_data + 1):
            vertex = n - i
            for j in self._dependencies(i, n_data):
                carrier = n - j  # j == 0 maps to the root, vertex n
                if not graph.has_edge(carrier, vertex):
                    graph.add_edge(carrier, vertex)
        return graph

    def recurrence_q_profile(self, n: int, p: float) -> Dict[int, float]:
        """Eq. 10 by send position (reversed index ``i`` is vertex ``n - i``)."""
        # The analysis layer builds on schemes: imported at call time.
        from repro.analysis import augmented_chain as analysis

        solved = analysis.q_profile(n, self.a, self.b, p)
        return {s: solved.q_of_reversed_index(n - s) if s < n else 1.0
                for s in range(1, n + 1)}

    def chain_packet_count(self, n: int) -> int:
        """Number of first-level chain packets in a block of size ``n``."""
        if n < 2:
            return 0
        return (n - 1) // (self.b + 1)

    @staticmethod
    def block_size_for_chain(chain_packets: int, b: int) -> int:
        """Block size ``n`` giving exactly ``chain_packets`` level-1 packets.

        Used by the Fig. 6 experiment, which holds the first level fixed
        while varying ``b`` (so ``n`` grows with ``b``).
        """
        if chain_packets < 1:
            raise SchemeParameterError("need >= 1 chain packet")
        return chain_packets * (b + 1) + 1
