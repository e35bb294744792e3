"""EMSS — Efficient Multi-chained Stream Signature (Perrig et al.).

``E_{m,d}`` in the paper's notation: each data packet stores its hash
in ``m`` later packets spaced ``d`` apart, and a signature packet sent
at the end of the block carries the hashes of the final packets plus
the block signature.  Loss tolerance comes from hash redundancy; the
price is receiver delay (verification waits for the signature packet)
and message buffering.

Send-order construction used here (block of ``n`` packets, the last
being the signature packet): data packet ``s`` (``1 <= s <= n-1``)
stores its hash in packets ``s + d, s + 2d, ..., s + m·d``; any target
beyond the last data packet is clamped to the signature packet, which
is how "the signature packet contains the hashes of the final few
packets".  In the paper's signature-rooted reversed indexing this is
exactly the offset set ``A = {d, 2d, ..., m·d}`` fed to Eq. 9.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.graph import DependenceGraph
from repro.core.recurrence import solve_recurrence
from repro.exceptions import SchemeParameterError
from repro.schemes.base import Scheme

__all__ = ["EmssScheme", "GenericOffsetScheme"]


class _OffsetScheme(Scheme):
    """A periodic scheme: packet ``s``'s hash rides in ``s + a``, ``a ∈ A``.

    ``offsets`` is ``A``, equal to the reversed-index offset set of
    Eq. 9; targets beyond the last data packet clamp to the signature
    packet.
    """

    offsets: Sequence[int]

    def build_graph(self, n: int) -> DependenceGraph:
        """Graph over ``n`` packets, vertex ``n`` the signature packet."""
        if n < 2:
            raise SchemeParameterError(
                f"block needs >= 2 packets (data + signature), got {n}"
            )
        graph = DependenceGraph(n, root=n)
        for s in range(1, n):
            for carrier in {min(s + a, n) for a in self.offsets}:
                graph.add_edge(carrier, s)
        return graph

    def recurrence_q_profile(self, n: int, p: float) -> Dict[int, float]:
        """Eq. 9 over ``A``; send position ``s`` is index ``n + 1 - s``."""
        q = solve_recurrence(n, list(self.offsets), p).q
        return {s: q[n - s] for s in range(1, n + 1)}


class EmssScheme(_OffsetScheme):
    """``E_{m,d}``: hash stored in ``m`` later packets spaced ``d`` apart.

    Parameters
    ----------
    m:
        Number of copies of each packet's hash (out-redundancy).
    d:
        Spacing between consecutive copies; ``E_{2,1}`` is the
        canonical instance analyzed in the paper's Fig. 8/9.
    """

    def __init__(self, m: int = 2, d: int = 1) -> None:
        if m < 1:
            raise SchemeParameterError(f"EMSS needs m >= 1, got {m}")
        if d < 1:
            raise SchemeParameterError(f"EMSS needs d >= 1, got {d}")
        self.m = m
        self.d = d

    @property
    def name(self) -> str:
        return f"emss({self.m},{self.d})"

    @property
    def offsets(self) -> List[int]:
        """The reversed-index offset set ``A = {d, 2d, ..., m·d}``."""
        return [k * self.d for k in range(1, self.m + 1)]


class GenericOffsetScheme(_OffsetScheme):
    """An arbitrary-offset periodic scheme (the general form of Eq. 9).

    Each data packet stores its hash in the packets at the given
    positive send-order distances; this subsumes EMSS and lets the
    design toolkit (Sec. 5) realize arbitrary offset sets ``A``.

    Parameters
    ----------
    offsets:
        Positive distances from a packet to the packets carrying its
        hash (equal to the reversed-index offset set ``A`` of Eq. 9).
    """

    def __init__(self, offsets: Tuple[int, ...]) -> None:
        cleaned = tuple(sorted(set(offsets)))
        if not cleaned:
            raise SchemeParameterError("offset set must be non-empty")
        if any(a < 1 for a in cleaned):
            raise SchemeParameterError(f"offsets must be positive: {offsets}")
        self.offsets = cleaned

    @property
    def name(self) -> str:
        inner = ",".join(str(a) for a in self.offsets)
        return f"offsets({inner})"
