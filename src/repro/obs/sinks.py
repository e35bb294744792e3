"""Output sinks: JSON-lines trace files and metrics/manifest JSON.

Kept free of any dependency beyond the standard library so the
observability layer can be imported everywhere (workers, tests, CLI)
without dragging simulation machinery along.
"""

from __future__ import annotations

import json
import threading
from operator import itemgetter
from typing import List, Optional, TextIO, Tuple, Union

__all__ = ["CanonicalLog", "LogTarget", "TraceSink", "write_json_file"]


class TraceSink:
    """Append-only JSON-lines writer.

    Accepts a path (opened and owned by the sink) or an existing text
    stream (borrowed — :meth:`close` leaves it open, so tests can pass
    a ``StringIO``).  Each record is one ``json.dumps`` line, written
    and flushed under a lock, so a crashed run still leaves a readable
    prefix.
    """

    def __init__(self, target: Union[str, TextIO]) -> None:
        self._lock = threading.Lock()
        if isinstance(target, str):
            self._handle: TextIO = open(target, "w", encoding="utf-8")
            self._owned = True
        else:
            self._handle = target
            self._owned = False
        self._closed = False
        self.records_written = 0

    def write(self, record: dict) -> None:
        """Append one record as a JSON line."""
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            self._handle.write(line + "\n")
            self._handle.flush()
            self.records_written += 1

    def close(self) -> None:
        """Close the underlying handle if this sink opened it (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._owned:
            self._handle.close()

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False


#: Where a :class:`CanonicalLog` writes: a path, a text stream, an
#: existing :class:`TraceSink`, or ``None`` for memory only.
LogTarget = Union[None, str, TextIO, TraceSink]

_BY_KEY = itemgetter(0)


class CanonicalLog:
    """Sort-at-flush canonical JSON-lines log.

    Records buffer in memory as ``(sort_key, record)`` pairs and reach
    the sink only on :meth:`flush`, in ``sort_key`` order (stable, so
    equal keys keep their append order).  Emission order — which
    asyncio scheduling could perturb — therefore never leaks into the
    bytes, and one final flush (the normal path) yields a globally
    sorted file that CI can diff instead of trusting.

    The lifecycle tracer, the timeseries sampler and the health monitor
    are canonical logs; each supplies its own key and record.  The
    buffer is guarded by ``_lock``; hot paths may append to
    ``_pending`` directly while holding it.
    """

    def __init__(self, sink: LogTarget = None) -> None:
        if sink is None or isinstance(sink, TraceSink):
            self.sink: Optional[TraceSink] = sink
        else:
            self.sink = TraceSink(sink)
        self._lock = threading.Lock()
        self._pending: List[Tuple[Tuple, dict]] = []

    def append(self, key: Tuple, record: dict) -> None:
        """Buffer one record for the next flush."""
        with self._lock:
            self._pending.append((key, record))

    def sorted_records(self) -> List[dict]:
        """Buffered (unflushed) records in canonical sorted order."""
        with self._lock:
            return [record for _key, record in sorted(self._pending,
                                                      key=_BY_KEY)]

    def flush(self) -> int:
        """Write buffered records to the sink, sorted; returns the count.

        Clears the buffer, so repeated flushes append disjoint sorted
        chunks.  With no sink the records are discarded.
        """
        with self._lock:
            ordered = sorted(self._pending, key=_BY_KEY)
            self._pending.clear()
        if self.sink is not None:
            for _key, record in ordered:
                self.sink.write(record)
        return len(ordered)

    def close(self) -> None:
        """Flush, then close the sink (idempotent)."""
        self.flush()
        if self.sink is not None:
            self.sink.close()

    def __enter__(self) -> "CanonicalLog":
        return self

    def __exit__(self, *exc_info) -> bool:
        # Close (and therefore flush) even when the body raised: the
        # error path is exactly when a partial story is most valuable.
        self.close()
        return False


def write_json_file(path: str, payload: dict,
                    indent: Optional[int] = 2) -> None:
    """Write ``payload`` as JSON to ``path`` (UTF-8, trailing newline)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=indent, sort_keys=True)
        handle.write("\n")
