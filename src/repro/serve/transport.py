"""Pluggable transports for the live serving layer.

A transport moves :class:`~repro.faults.WireDelivery` buffers from the
sender to per-receiver subscriptions.  Two frame kinds share the wire:

* **data frames** — packet bytes exactly as
  :meth:`repro.packets.Packet.to_wire` produced (or as the adversary
  mangled them);
* **control frames** — a fixed 21-byte block boundary: the
  :data:`CONTROL_PREFIX` then one ``struct``.  A wire packet's header
  starts with its ``seq`` as a big-endian ``u32`` and ``seq >= 1`` is
  enforced by the strict decoder, so a prefix of four zero bytes can
  *never* decode as a packet — control frames are unambiguous without
  any out-of-band channel, and a truncation or bit-flip fault that
  mangles one simply yields an undecodable buffer downstream.

:meth:`Transport.subscribe` yields *runs*: sequences of deliveries
that hold either only data frames or exactly one frame starting with
:data:`CONTROL_PREFIX`, so a receiver decodes control once per
prefixed run and hands a data run to its verifier whole.

:class:`LocalTransport` is the deterministic in-process fabric: one
queue per receiver with one entry per run of a :meth:`~Transport.send`
call (a cell's data frames are one entry, its control frame a second),
yielded as it is, and capacity counted in frames by a depth counter
that falls by a run's length as the subscriber takes it.  Data frames
beyond capacity are dropped newest-first (counted per receiver);
control frames are never dropped while the subscriber lives and wait
for room (block boundaries must arrive or the session stalls).
Because the sender enqueues a whole block without yielding to the
event loop, the drop pattern is a pure function of queue depth —
bit-for-bit reproducible.

:class:`UdpTransport` binds one datagram endpoint per receiver on the
loopback interface and stamps arrivals from an injectable
:class:`~repro.network.clock.Clock`; ground-truth ``kind`` tags do not
survive a real network, so receiver-side deliveries carry
``kind="unknown"``; a run is whatever one wake-up drained, split at
prefixed frames.  The harness's ground truth crosses neither: it
reaches the pool in-process (:class:`~repro.serve.receiver.BlockTruth`).
"""

from __future__ import annotations

import asyncio
import struct
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from typing import (AsyncIterator, Deque, Dict, List, Optional, Sequence,
                    Tuple)

from repro.exceptions import SimulationError
from repro.faults import WireDelivery
from repro.network.clock import Clock
from repro.obs import get_registry
from repro.obs.lifecycle import NOISE_SEQ, get_lifecycle

__all__ = [
    "CONTROL_PREFIX",
    "ControlFrame",
    "encode_control",
    "decode_control",
    "Transport",
    "LocalTransport",
    "UdpTransport",
]

#: Four zero bytes = a wire header whose ``seq`` is 0, which the strict
#: packet decoder rejects unconditionally — followed by a magic tag so
#: random garbage starting with zeros is not mistaken for control.
CONTROL_PREFIX = b"\x00\x00\x00\x00RSRV"
#: What follows the prefix: block id (-1 on the final frame), first and
#: last seq, final flag.
_CONTROL = struct.Struct(">iII?")

#: Queue-depth histogram buckets (shared so shard merges never see
#: mismatched bounds).
QUEUE_DEPTH_BOUNDS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
                     256.0, 512.0, 1024.0)


@dataclass(frozen=True)
class ControlFrame:
    """A block boundary: the sequence range of block ``block_id``.

    It carries nothing a receiver could not learn from the wire
    itself; the harness's ground truth for the block travels
    in-process instead.  A frame with ``final=True`` ends the
    subscription; its other fields are ignored.
    """

    block_id: int
    base_seq: int
    last_seq: int
    final: bool = False


def encode_control(frame: ControlFrame) -> bytes:
    """Canonical 21-byte encoding: the prefix, then one fixed struct."""
    return CONTROL_PREFIX + _CONTROL.pack(
        frame.block_id, frame.base_seq, frame.last_seq, frame.final)


def decode_control(data: bytes) -> Optional[ControlFrame]:
    """Decode a control frame; ``None`` for anything else (data frames)."""
    if (len(data) != len(CONTROL_PREFIX) + _CONTROL.size
            or not data.startswith(CONTROL_PREFIX)):
        return None  # a data frame, or a mangled control frame
    return ControlFrame(*_CONTROL.unpack_from(data, len(CONTROL_PREFIX)))


class Transport(ABC):
    """Sender-to-receivers delivery fabric."""

    @abstractmethod
    async def start(self, receiver_ids: Sequence[str]) -> None:
        """Provision per-receiver endpoints before any send."""

    @abstractmethod
    async def open_endpoint(self, receiver_id: str) -> None:
        """Provision one endpoint mid-session (a late joiner)."""

    @abstractmethod
    async def close_endpoint(self, receiver_id: str) -> None:
        """End one subscription gracefully (a leaver).

        The subscriber's iterator terminates after draining whatever
        was already queued; subsequent :meth:`send` calls to the id
        are the caller's bug to avoid (the sender drops a leaver from
        its active list at the same boundary).
        """

    @abstractmethod
    async def send(self, receiver_id: str,
                   deliveries: Sequence[WireDelivery]) -> List[WireDelivery]:
        """Push ``deliveries`` toward one receiver, in order.

        Returns the deliveries the *transport itself* dropped (queue
        backpressure); an empty list means everything was accepted for
        delivery.  Network loss downstream of a real transport is not
        reported here — that is what loss reports measure.
        """

    @abstractmethod
    def subscribe(self, receiver_id: str
                  ) -> AsyncIterator[Sequence[WireDelivery]]:
        """Async iteration over one receiver's arriving deliveries, in runs.

        Each run is a non-empty sequence of deliveries in arrival
        order, holding either only data frames or exactly one frame
        that starts with :data:`CONTROL_PREFIX`.
        """

    @abstractmethod
    async def close(self) -> None:
        """Tear down endpoints and wake any blocked subscriber."""

    @abstractmethod
    def queue_drops(self, receiver_id: str) -> int:
        """Deliveries dropped by backpressure for ``receiver_id`` so far."""


_CLOSE = object()  # subscription sentinel


def _wake_first(waiters: Deque["asyncio.Future"]) -> None:
    """Resolve the oldest still-pending future in ``waiters``."""
    while waiters:
        waiter = waiters.popleft()
        if not waiter.done():
            waiter.set_result(None)
            break


class _Inbox:
    """One receiver's queue: entries of frames, depth counted in frames.

    ``entries`` holds one slice of frames per accepted run of a
    :meth:`LocalTransport.send` call (and :data:`_CLOSE`); ``depth``
    is the number of frames queued and not yet yielded; ``putters``
    are control sends waiting for ``depth`` to fall below capacity;
    ``dead`` is set once the subscriber is gone, after which nothing
    drains the queue.
    """

    __slots__ = ("entries", "depth", "putters", "dead")

    def __init__(self) -> None:
        self.entries: asyncio.Queue = asyncio.Queue()
        self.depth = 0
        self.putters: Deque[asyncio.Future] = deque()
        self.dead = False


class LocalTransport(Transport):
    """Deterministic in-process transport over bounded per-receiver queues.

    Each :meth:`send` call puts one queue entry per run of data frames
    and one per control frame — a live cell (one receiver in one
    block) is two entries, not one per frame — and :meth:`subscribe`
    yields each entry as it is.  Capacity is still counted in frames:
    a per-receiver depth counter rises as frames are accepted and
    falls by a run's length as :meth:`subscribe` yields it, waking one
    waiting control send per frame, so drops, blocking,
    ``serve.queue_depth`` and the lifecycle ``enqueue`` events are
    exactly those of a bounded queue of frames whose subscriber takes
    a run without pausing.

    Parameters
    ----------
    queue_size:
        Per-receiver queue capacity in frames.  Data frames beyond
        capacity are dropped (newest-dropped policy) and counted;
        control frames block the sender instead — explicit
        backpressure, because a lost block boundary would wedge the
        session's barrier.  Once a subscriber is gone (its task
        crashed, or its endpoint closed) nothing drains its queue, so
        a control frame that finds it full is dropped and counted at
        once instead of waiting forever.
    """

    def __init__(self, queue_size: int = 256) -> None:
        if queue_size < 1:
            raise SimulationError(
                f"queue size must be >= 1, got {queue_size}")
        self.queue_size = queue_size
        self._inboxes: Dict[str, _Inbox] = {}
        self._drops: Dict[str, int] = {}
        self._closed = False

    async def start(self, receiver_ids: Sequence[str]) -> None:
        for receiver_id in receiver_ids:
            await self.open_endpoint(receiver_id)

    async def open_endpoint(self, receiver_id: str) -> None:
        if receiver_id in self._inboxes:
            raise SimulationError(
                f"duplicate receiver id {receiver_id!r}")
        self._inboxes[receiver_id] = _Inbox()
        self._drops[receiver_id] = 0

    async def close_endpoint(self, receiver_id: str) -> None:
        # The sentinel is not a frame: it lands even at full depth, or
        # the subscriber's task never drains.
        self._inbox(receiver_id).entries.put_nowait(_CLOSE)

    def _inbox(self, receiver_id: str) -> _Inbox:
        inbox = self._inboxes.get(receiver_id)
        if inbox is None:
            raise SimulationError(f"unknown receiver {receiver_id!r}")
        return inbox

    async def send(self, receiver_id: str,
                   deliveries: Sequence[WireDelivery]) -> List[WireDelivery]:
        inbox = self._inbox(receiver_id)
        dropped: List[WireDelivery] = []
        run_start = 0
        for index, delivery in enumerate(deliveries):
            if not delivery.data.startswith(CONTROL_PREFIX):
                continue
            if run_start < index:
                self._accept(receiver_id, inbox, deliveries, run_start,
                             index, dropped)
            run_start = index + 1
            # Backpressure: a control frame waits for room while its
            # subscriber lives, and is never dropped unless it is gone.
            while inbox.depth >= self.queue_size and not inbox.dead:
                await self._wait_for_room(inbox)
            if inbox.depth < self.queue_size:
                inbox.depth += 1
                inbox.entries.put_nowait((delivery,))
            else:
                dropped.append(delivery)
        if run_start < len(deliveries):
            self._accept(receiver_id, inbox, deliveries, run_start,
                         len(deliveries), dropped)
        if dropped:
            self._drops[receiver_id] += len(dropped)
        registry = get_registry()
        if registry.enabled:
            registry.count("serve.transport.frames",
                           len(deliveries) - len(dropped))
            if dropped:
                registry.count("serve.transport.queue_drops", len(dropped))
            registry.observe("serve.queue_depth", inbox.depth,
                             QUEUE_DEPTH_BOUNDS)
        return dropped

    def _accept(self, receiver_id: str, inbox: _Inbox,
                deliveries: Sequence[WireDelivery], start: int, stop: int,
                dropped: List[WireDelivery]) -> None:
        """Queue the data frames ``deliveries[start:stop]`` as one entry.

        Nothing yields inside a run, so the oldest frames that fit are
        kept and the rest dropped (newest-dropped).
        """
        cut = min(stop, start + max(self.queue_size - inbox.depth, 0))
        if cut > start:
            inbox.depth += cut - start
            inbox.entries.put_nowait(deliveries[start:cut])
        if cut < stop:
            dropped.extend(deliveries[cut:stop])
        tracer = get_lifecycle()
        if tracer.enabled:
            for index in range(start, stop):
                delivery = deliveries[index]
                if delivery.block_hint is None:
                    continue
                seq = (delivery.seq_hint if delivery.seq_hint is not None
                       else NOISE_SEQ)
                tracer.record(receiver_id, delivery.block_hint, seq,
                              "enqueue",
                              "queued" if index < cut else "queue-drop",
                              delivery.arrival_time)

    async def _wait_for_room(self, inbox: _Inbox) -> None:
        """Wait until a subscriber takes a frame, as ``asyncio.Queue.put``."""
        putter = asyncio.get_running_loop().create_future()
        inbox.putters.append(putter)
        try:
            await putter
        except BaseException:
            putter.cancel()
            try:
                inbox.putters.remove(putter)
            except ValueError:
                pass
            if inbox.depth < self.queue_size and not putter.cancelled():
                _wake_first(inbox.putters)
            raise

    async def subscribe(self, receiver_id: str
                        ) -> AsyncIterator[Sequence[WireDelivery]]:
        inbox = self._inbox(receiver_id)
        entries = inbox.entries
        putters = inbox.putters
        try:
            while True:
                entry = await entries.get()
                if entry is _CLOSE:
                    return
                inbox.depth -= len(entry)
                # One wake per frame taken, oldest first, as a queue of
                # frames would.
                for _ in range(len(entry)):
                    if not putters:
                        break
                    _wake_first(putters)
                yield entry
        finally:
            # Closed, or the subscriber's task was cancelled (a crash):
            # nothing drains this inbox again, so no send may wait on it.
            inbox.dead = True
            while putters:
                _wake_first(putters)

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for receiver_id in self._inboxes:
            await self.close_endpoint(receiver_id)

    def queue_drops(self, receiver_id: str) -> int:
        return self._drops.get(receiver_id, 0)


class _ReceiverProtocol(asyncio.DatagramProtocol):
    """Datagram endpoint feeding one receiver's bounded queue."""

    def __init__(self, transport_owner: "UdpTransport",
                 receiver_id: str) -> None:
        self._owner = transport_owner
        self._receiver_id = receiver_id

    def datagram_received(self, data: bytes, addr) -> None:
        self._owner._deliver(self._receiver_id, data)


class UdpTransport(Transport):
    """Real datagram transport over loopback asyncio endpoints.

    One receiving socket per receiver; arrival times are stamped from
    the injected clock the moment the datagram surfaces.  UDP gives no
    backpressure signal, so the bounded ingress queue applies the same
    drop-newest policy as :class:`LocalTransport` — drops show up in
    :meth:`queue_drops`, not in :meth:`send`'s return value (the
    sender cannot see them, exactly like real packet loss).

    Parameters
    ----------
    clock:
        Arrival-time source (a wall clock for real use; tests may
        inject anything).
    host:
        Interface to bind; loopback by default.
    queue_size:
        Ingress queue capacity per receiver.
    """

    def __init__(self, clock: Clock, host: str = "127.0.0.1",
                 queue_size: int = 1024) -> None:
        if queue_size < 1:
            raise SimulationError(
                f"queue size must be >= 1, got {queue_size}")
        self.clock = clock
        self.host = host
        self.queue_size = queue_size
        self._queues: Dict[str, asyncio.Queue] = {}
        self._drops: Dict[str, int] = {}
        self._addresses: Dict[str, Tuple[str, int]] = {}
        self._endpoints: Dict[str, asyncio.DatagramTransport] = {}
        self._sender: Optional[asyncio.DatagramTransport] = None
        self._closed = False

    async def start(self, receiver_ids: Sequence[str]) -> None:
        loop = asyncio.get_running_loop()
        for receiver_id in receiver_ids:
            await self.open_endpoint(receiver_id)
        sender, _ = await loop.create_datagram_endpoint(
            asyncio.DatagramProtocol, local_addr=(self.host, 0))
        self._sender = sender

    async def open_endpoint(self, receiver_id: str) -> None:
        loop = asyncio.get_running_loop()
        if receiver_id in self._queues:
            raise SimulationError(
                f"duplicate receiver id {receiver_id!r}")
        self._queues[receiver_id] = asyncio.Queue()
        self._drops[receiver_id] = 0
        transport, _ = await loop.create_datagram_endpoint(
            lambda rid=receiver_id: _ReceiverProtocol(self, rid),
            local_addr=(self.host, 0))
        self._endpoints[receiver_id] = transport
        sockname = transport.get_extra_info("sockname")
        self._addresses[receiver_id] = (sockname[0], sockname[1])

    async def close_endpoint(self, receiver_id: str) -> None:
        queue = self._queues.get(receiver_id)
        if queue is None:
            raise SimulationError(f"unknown receiver {receiver_id!r}")
        endpoint = self._endpoints.pop(receiver_id, None)
        if endpoint is not None:
            endpoint.close()
        self._addresses.pop(receiver_id, None)
        queue.put_nowait(_CLOSE)
        await asyncio.sleep(0)

    def _deliver(self, receiver_id: str, data: bytes) -> None:
        queue = self._queues[receiver_id]
        if queue.qsize() >= self.queue_size:
            self._drops[receiver_id] += 1
            registry = get_registry()
            if registry.enabled:
                registry.count("serve.transport.queue_drops", 1)
            return
        delivery = WireDelivery(arrival_time=self.clock.now(), data=data,
                                kind="unknown", seq_hint=None)
        queue.put_nowait(delivery)
        registry = get_registry()
        if registry.enabled:
            registry.count("serve.transport.frames", 1)
            registry.observe("serve.queue_depth", queue.qsize(),
                             QUEUE_DEPTH_BOUNDS)

    async def send(self, receiver_id: str,
                   deliveries: Sequence[WireDelivery]) -> List[WireDelivery]:
        if self._sender is None:
            raise SimulationError("transport not started")
        address = self._addresses.get(receiver_id)
        if address is None:
            raise SimulationError(f"unknown receiver {receiver_id!r}")
        for delivery in deliveries:
            self._sender.sendto(delivery.data, address)
            # Yield per datagram, or a block overflows the socket buffer.
            await asyncio.sleep(0)
        return []

    async def subscribe(self, receiver_id: str
                        ) -> AsyncIterator[Sequence[WireDelivery]]:
        queue = self._queues.get(receiver_id)
        if queue is None:
            raise SimulationError(f"unknown receiver {receiver_id!r}")
        while True:
            # One wake-up drains everything queued, split into runs at
            # each prefixed frame.
            drained = [await queue.get()]
            while not queue.empty():
                drained.append(queue.get_nowait())
            run: List[WireDelivery] = []
            for item in drained:
                if item is _CLOSE:
                    if run:
                        yield run
                    return
                if item.data.startswith(CONTROL_PREFIX):
                    if run:
                        yield run
                        run = []
                    yield (item,)
                else:
                    run.append(item)
            if run:
                yield run

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for endpoint in self._endpoints.values():
            endpoint.close()
        if self._sender is not None:
            self._sender.close()
        for queue in self._queues.values():
            queue.put_nowait(_CLOSE)
        await asyncio.sleep(0)

    def queue_drops(self, receiver_id: str) -> int:
        return self._drops.get(receiver_id, 0)
