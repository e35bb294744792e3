"""One wire buffer through a verifier's one wire entry.

A single buffer is a run of one delivery through
:meth:`~repro.schemes.base.Verifier.ingest_run`, so a test that feeds
frames one at a time takes the decode path every production caller
takes: the decode memo, the strict decoder and the content digest
handed to ``receive``.  Read the result with ``verdict(seq)``.
"""

from __future__ import annotations

from repro.faults import WireDelivery
from repro.schemes.base import Verifier

__all__ = ["ingest_one"]


def ingest_one(verifier: Verifier, data: bytes, arrival_time: float = 0.0,
               kind: str = "unknown") -> None:
    """Ingest the wire buffer ``data`` as a one-delivery run."""
    verifier.ingest_run((WireDelivery(arrival_time, data, kind),))
