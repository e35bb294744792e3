"""Deterministic per-packet lifecycle tracing for the serving stack.

The paper's metrics — authentication probability ``q_i``, overhead
``d`` and receiver delay ``t_d`` — are *per-packet* quantities, but
the serving layer only reported block-level aggregates.  This module
gives every packet a causal trace through the canonical stages

    ``sign -> frame -> enqueue -> transport -> ingest -> verify``

with IDs derived **deterministically** from ``(run_seed, receiver,
block, seq)`` — no UUIDs, no wall clock — and timestamps taken from
the session's virtual clock.  Two runs of the same config therefore
emit byte-identical trace files at any receiver count, which turns the
observability output itself into a conformance artifact: CI diffs the
files instead of trusting them.

Sampling is by trace-ID hash (``keep iff hash % sample == 0``), so a
``1/N`` sample selects the *same* traces every run and the sampled
file is a byte-exact subset of the full one.

The tracer is a :class:`~repro.obs.sinks.CanonicalLog`: events
buffer in memory and are written on :meth:`~LifecycleTracer.flush` /
:meth:`~LifecycleTracer.close`, sorted by the canonical ``(block,
receiver, seq, time, stage)`` key — asyncio task interleaving can
never leak into the file, and each trace's events appear in monotone
time order.  Flushing happens even when the instrumented run raises
(context-manager close and the serving layer's error path), so a
crashed run still yields a parseable JSON-lines prefix of its story.

Like the metrics registry, a process-wide *current tracer* defaults to
a null singleton whose ``enabled`` attribute lets hot paths skip event
construction entirely.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional, Tuple

from repro.exceptions import AnalysisError
from repro.obs.sinks import CanonicalLog, LogTarget

__all__ = [
    "LIFECYCLE_STAGES",
    "LIFECYCLE_STATUSES",
    "NOISE_SEQ",
    "LifecycleTracer",
    "NullLifecycleTracer",
    "NULL_LIFECYCLE",
    "get_lifecycle",
    "set_lifecycle",
    "use_lifecycle",
    "lifecycle_trace_id",
    "lifecycle_sampled",
]

#: Canonical stage order; the sort key and the exporters lean on it.
LIFECYCLE_STAGES: Tuple[str, ...] = (
    "sign", "frame", "enqueue", "transport", "ingest", "verify")

_STAGE_INDEX = {name: index for index, name in enumerate(LIFECYCLE_STAGES)}

#: Statuses each stage may legally emit (the artifact validator checks).
LIFECYCLE_STATUSES: Dict[str, Tuple[str, ...]] = {
    "sign": ("signed",),
    "frame": ("framed",),
    "enqueue": ("queued", "queue-drop"),
    "transport": ("deliver", "drop"),
    "ingest": ("decode", "buffer", "reject", "replay", "undecodable"),
    "verify": ("verified", "arrived", "lost"),
}

#: Sequence slot used for events that cannot be attributed to a real
#: packet (undecodable buffers, fresh forged injections).  Real wire
#: sequences start at 1, so 0 can never collide.
NOISE_SEQ = 0

#: ``LifecycleTracer._traces`` miss marker (``None`` is a sampled-out
#: trace).
_UNSEEN = object()


def lifecycle_trace_id(run_seed: int, receiver: str, block: int,
                       seq: int) -> str:
    """Deterministic 16-hex-char trace ID for one packet lifecycle.

    Derived by hashing the canonical identity tuple — never a UUID or
    a clock — so the same ``(run_seed, receiver, block, seq)`` cell
    maps to the same ID in every run, worker and process.
    """
    key = f"{run_seed}:{receiver}:{block}:{seq}".encode("ascii")
    return hashlib.blake2b(key, digest_size=8).hexdigest()


def lifecycle_sampled(trace_id: str, sample: int) -> bool:
    """Deterministic 1/``sample`` keep decision by trace-ID hash."""
    if sample <= 1:
        return True
    return int(trace_id, 16) % sample == 0


class LifecycleTracer(CanonicalLog):
    """Records packet lifecycle events; writes them sorted and stable.

    Parameters
    ----------
    run_seed:
        Root seed of the traced run; part of every trace ID.
    sample:
        Keep ``1/sample`` of the traces, selected by trace-ID hash
        (``1`` keeps everything).  Sampling is per *trace*, never per
        event, so kept traces are always complete.
    sink:
        Where :meth:`flush` writes: a path, a text stream, or an
        existing :class:`~repro.obs.sinks.TraceSink`.  ``None`` keeps
        events in memory only (exporters can still read them).
    """

    enabled = True

    def __init__(self, run_seed: int, sample: int = 1,
                 sink: LogTarget = None) -> None:
        if sample < 1:
            raise AnalysisError(f"trace sample must be >= 1, got {sample}")
        super().__init__(sink)
        self.run_seed = int(run_seed)
        self.sample = int(sample)
        # (receiver, block, seq) -> trace ID, or None when sampled out.
        self._traces: Dict[Tuple[str, int, int], Optional[str]] = {}
        self._birth = 0
        self.events_recorded = 0
        self.events_dropped = 0  # sampled-out events

    # -- identity ------------------------------------------------------

    def trace_id(self, receiver: str, block: int, seq: int) -> str:
        """:func:`lifecycle_trace_id` for this run's seed."""
        return lifecycle_trace_id(self.run_seed, receiver, block, seq)

    def sampled(self, receiver: str, block: int, seq: int) -> bool:
        """Whether this packet's trace is kept under the sampling knob."""
        return lifecycle_sampled(self.trace_id(receiver, block, seq),
                                 self.sample)

    # -- recording -----------------------------------------------------

    def record(self, receiver: str, block: int, seq: int, stage: str,
               status: str, t: float, **attrs) -> None:
        """Append one lifecycle event (dropped if its trace is sampled out).

        ``attrs`` ride along verbatim (ground-truth ``kind`` tags,
        verification delays, byte sizes); values must be JSON-ready.
        """
        key = (receiver, block, seq)
        trace = self._traces.get(key, _UNSEEN)
        if trace is _UNSEEN:
            trace = self.trace_id(receiver, block, seq)
            if not lifecycle_sampled(trace, self.sample):
                trace = None
            self._traces[key] = trace
        if trace is None:
            self.events_dropped += 1
            return
        record = {"trace": trace, "r": receiver, "b": block, "seq": seq,
                  "stage": stage, "status": status, "t": t}
        if attrs:
            record.update(attrs)
        with self._lock:
            # Time-major within a trace: a trace with replayed or
            # forged copies visits enqueue/ingest more than once, so
            # time order — with stage order breaking exact-time ties —
            # is the only ordering that keeps timestamps monotone
            # while staying truthful.
            key = (block, receiver, seq, t, _STAGE_INDEX.get(stage, 99),
                   self._birth)
            self._birth += 1
            self._pending.append((key, record))
            self.events_recorded += 1

    #: Buffered (unflushed) events in canonical sorted order.
    events = CanonicalLog.sorted_records


class NullLifecycleTracer(LifecycleTracer):
    """Disabled fast path: every operation is a no-op."""

    enabled = False

    def __init__(self) -> None:  # noqa: D107 - no sink, no state
        super().__init__(run_seed=0, sample=1, sink=None)

    def record(self, receiver: str, block: int, seq: int, stage: str,
               status: str, t: float, **attrs) -> None:  # noqa: D102
        pass


#: Process-wide disabled singleton; ``get_lifecycle()`` returns it
#: until a live tracer is installed.
NULL_LIFECYCLE = NullLifecycleTracer()

_current: LifecycleTracer = NULL_LIFECYCLE


def get_lifecycle() -> LifecycleTracer:
    """The currently installed lifecycle tracer (null by default)."""
    return _current


def set_lifecycle(tracer: Optional[LifecycleTracer]) -> LifecycleTracer:
    """Install ``tracer`` process-wide (``None`` restores the null one).

    Returns the previously installed tracer so callers can restore it.
    """
    global _current
    previous = _current
    _current = tracer if tracer is not None else NULL_LIFECYCLE
    return previous


class use_lifecycle:
    """Scope a tracer as current for a ``with`` body (exception-safe)."""

    def __init__(self, tracer: Optional[LifecycleTracer]) -> None:
        self._tracer = tracer
        self._previous: Optional[LifecycleTracer] = None

    def __enter__(self) -> LifecycleTracer:
        self._previous = set_lifecycle(self._tracer)
        return get_lifecycle()

    def __exit__(self, *exc_info) -> bool:
        set_lifecycle(self._previous)
        return False
