"""Differential test: the batched local transport against a per-frame one.

:class:`~repro.serve.transport.LocalTransport` puts one queue entry per
run of data frames and one per control frame, and counts capacity in
frames with a depth counter; its subscription yields each entry as
one run.  :class:`PerFrameLocalTransport` below is the earlier design,
kept here as a test-only oracle: one bounded ``asyncio.Queue`` of
frames per receiver, one put and one get per frame.  Each frame is
tagged with the send run it came from, and the oracle's subscription
gets a run's frames back to back (one ``get`` each) and yields them
together — a subscriber that takes a run without pausing, which is
what a run-wise subscriber is.

Random scripts of sends (data and control frames mixed, any
``queue_size``) and drains run against both, each in its own event
loop.  Everything observable must agree: the order in which
subscribers see frames and sends return, each send's dropped list,
``queue_drops``, the metrics registry (``serve.queue_depth``
histogram included) and the lifecycle ``enqueue`` events.
"""

import asyncio
import itertools
from typing import AsyncIterator, Dict, List, Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SimulationError
from repro.faults import WireDelivery
from repro.obs import get_registry
from repro.obs.lifecycle import NOISE_SEQ, get_lifecycle, set_lifecycle
from repro.obs.registry import MetricsRegistry, use_registry
from repro.serve.transport import (
    CONTROL_PREFIX,
    QUEUE_DEPTH_BOUNDS,
    ControlFrame,
    LocalTransport,
    Transport,
    encode_control,
)

_CLOSE = object()


class PerFrameLocalTransport(Transport):
    """The per-frame local transport: one bounded queue entry per frame."""

    def __init__(self, queue_size: int = 256) -> None:
        if queue_size < 1:
            raise SimulationError(
                f"queue size must be >= 1, got {queue_size}")
        self.queue_size = queue_size
        self._queues: Dict[str, asyncio.Queue] = {}
        self._drops: Dict[str, int] = {}
        self._closed = False
        self._runs = itertools.count()

    async def start(self, receiver_ids: Sequence[str]) -> None:
        for receiver_id in receiver_ids:
            await self.open_endpoint(receiver_id)

    async def open_endpoint(self, receiver_id: str) -> None:
        if receiver_id in self._queues:
            raise SimulationError(
                f"duplicate receiver id {receiver_id!r}")
        self._queues[receiver_id] = asyncio.Queue(maxsize=self.queue_size)
        self._drops[receiver_id] = 0

    async def close_endpoint(self, receiver_id: str) -> None:
        queue = self._queue(receiver_id)
        queue._queue.append(_CLOSE)  # noqa: SLF001 (stdlib deque)
        queue._wakeup_next(queue._getters)  # noqa: SLF001

    def _queue(self, receiver_id: str) -> asyncio.Queue:
        queue = self._queues.get(receiver_id)
        if queue is None:
            raise SimulationError(f"unknown receiver {receiver_id!r}")
        return queue

    async def send(self, receiver_id: str,
                   deliveries: Sequence[WireDelivery]) -> List[WireDelivery]:
        queue = self._queue(receiver_id)
        registry = get_registry()
        tracer = get_lifecycle()
        dropped: List[WireDelivery] = []
        run = next(self._runs)
        for delivery in deliveries:
            if delivery.data.startswith(CONTROL_PREFIX):
                # Backpressure, never dropped; a run of its own.
                await queue.put((next(self._runs), delivery))
                run = next(self._runs)
                continue
            try:
                queue.put_nowait((run, delivery))
                status = "queued"
            except asyncio.QueueFull:
                dropped.append(delivery)
                status = "queue-drop"
            if tracer.enabled and delivery.block_hint is not None:
                seq = (delivery.seq_hint if delivery.seq_hint is not None
                       else NOISE_SEQ)
                tracer.record(receiver_id, delivery.block_hint, seq,
                              "enqueue", status, delivery.arrival_time)
        if dropped:
            self._drops[receiver_id] += len(dropped)
        if registry.enabled:
            registry.count("serve.transport.frames",
                           len(deliveries) - len(dropped))
            if dropped:
                registry.count("serve.transport.queue_drops", len(dropped))
            registry.observe("serve.queue_depth", queue.qsize(),
                             QUEUE_DEPTH_BOUNDS)
        return dropped

    async def subscribe(self, receiver_id: str
                        ) -> AsyncIterator[List[WireDelivery]]:
        queue = self._queue(receiver_id)
        pending = queue._queue  # noqa: SLF001 (stdlib deque)
        while True:
            item = await queue.get()
            if item is _CLOSE:
                return
            run, delivery = item
            frames = [delivery]
            while (pending and pending[0] is not _CLOSE
                   and pending[0][0] == run):
                frames.append(queue.get_nowait()[1])
            yield frames

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for receiver_id in self._queues:
            await self.close_endpoint(receiver_id)

    def queue_drops(self, receiver_id: str) -> int:
        return self._drops.get(receiver_id, 0)


class _Recorder:
    """A lifecycle tracer that keeps every event in call order."""

    enabled = True

    def __init__(self) -> None:
        self.events: List[tuple] = []

    def record(self, *args, **attrs) -> None:
        self.events.append((args, sorted(attrs.items())))


RECEIVERS = ("r0", "r1")

#: One frame: a control frame, or a data frame with or without hints.
_frame_specs = st.one_of(
    st.just(("control",)),
    st.tuples(st.just("data"), st.one_of(st.none(), st.integers(0, 3)),
              st.one_of(st.none(), st.integers(1, 40))),
)

_ops = st.one_of(
    st.tuples(st.just("send"), st.sampled_from(RECEIVERS),
              st.lists(_frame_specs, max_size=12)),
    st.tuples(st.just("drain"), st.sampled_from(RECEIVERS),
              st.integers(0, 6)),
    st.tuples(st.just("yield"), st.integers(1, 3)),
)


def _deliveries(frames, counter: List[int]) -> List[WireDelivery]:
    """Concrete frames for one send; every frame's bytes are unique."""
    out = []
    for spec in frames:
        counter[0] += 1
        label = counter[0]
        if spec[0] == "control":
            data = encode_control(ControlFrame(label, label, label))
            out.append(WireDelivery(float(label), data, "control", None))
        else:
            _, block, seq = spec
            data = b"\x00\x00\x00\x01" + label.to_bytes(4, "big")
            out.append(WireDelivery(float(label), data, "genuine",
                                    seq_hint=seq, block_hint=block))
    return out


def _run(transport_type, queue_size: int, script) -> dict:
    """Play ``script`` on a fresh transport; everything it observed."""
    log: List[tuple] = []
    registry = MetricsRegistry()
    recorder = _Recorder()

    async def scenario():
        transport = transport_type(queue_size=queue_size)
        await transport.start(RECEIVERS)
        credits = {r: 0 for r in RECEIVERS}
        gates = {r: asyncio.Event() for r in RECEIVERS}

        async def consume(receiver_id):
            async for run in transport.subscribe(receiver_id):
                for delivery in run:
                    log.append(("got", receiver_id, delivery.data))
                    while credits[receiver_id] == 0:
                        gates[receiver_id].clear()
                        await gates[receiver_id].wait()
                    credits[receiver_id] -= 1

        async def send(receiver_id, deliveries, index):
            dropped = await transport.send(receiver_id, deliveries)
            log.append(("sent", index, [d.data for d in dropped]))

        consumers = [asyncio.create_task(consume(r)) for r in RECEIVERS]
        sends = []
        counter = [0]
        for index, op in enumerate(script):
            if op[0] == "send":
                sends.append(asyncio.create_task(
                    send(op[1], _deliveries(op[2], counter), index)))
            elif op[0] == "drain":
                credits[op[1]] += op[2]
                gates[op[1]].set()
            for _ in range(op[1] if op[0] == "yield" else 1):
                await asyncio.sleep(0)
        for receiver_id in RECEIVERS:
            credits[receiver_id] = 1 << 30
            gates[receiver_id].set()
        # With unlimited credit every send completes; a wedged one
        # fails the example instead of hanging it.
        await asyncio.wait_for(asyncio.gather(*sends), timeout=10.0)
        await transport.close()
        await asyncio.wait_for(asyncio.gather(*consumers), timeout=10.0)
        log.append(("drops", [transport.queue_drops(r) for r in RECEIVERS]))

    previous = set_lifecycle(recorder)
    try:
        with use_registry(registry):
            asyncio.run(scenario())
    finally:
        set_lifecycle(previous)
    return {"log": log, "metrics": registry.snapshot(),
            "lifecycle": recorder.events}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1, 2, 3, 4, 256]), st.lists(_ops, max_size=14))
def test_matches_per_frame_queue(queue_size, script):
    expected = _run(PerFrameLocalTransport, queue_size, script)
    got = _run(LocalTransport, queue_size, script)
    assert got["log"] == expected["log"]
    assert got["lifecycle"] == expected["lifecycle"]
    assert got["metrics"] == expected["metrics"]


def test_queue_depth_histogram_is_observed():
    # The registry and the tracer really are live in the harness: a
    # full queue shows in both.
    script = [("send", "r0", [("data", 0, 1)] * 5)]
    expected = _run(PerFrameLocalTransport, 2, script)
    observed = _run(LocalTransport, 2, script)
    assert observed == expected
    assert observed["metrics"]["histograms"]["serve.queue_depth"]
    assert observed["metrics"]["counters"][
        "serve.transport.queue_drops"] == 3
    assert [e[0][4] for e in observed["lifecycle"]] == (
        ["queued"] * 2 + ["queue-drop"] * 3)


def test_one_entry_per_send_run():
    # A live cell (a block's data frames, then its control frame) is
    # two queue entries however many frames it carries.
    async def scenario():
        transport = LocalTransport(queue_size=256)
        await transport.start(["r0"])
        cell = _deliveries([("data", 0, seq) for seq in range(1, 129)], [0])
        control = _deliveries([("control",)], [1000])
        await transport.send("r0", cell)
        await transport.send("r0", control)
        inbox = transport._inboxes["r0"]  # noqa: SLF001
        return inbox.entries.qsize(), inbox.depth

    assert asyncio.run(scenario()) == (2, 129)
