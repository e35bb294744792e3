"""Transports: control-frame encoding, backpressure, UDP loopback."""

import asyncio
import contextlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SimulationError
from repro.faults import WireDelivery
from repro.network.clock import MonotonicClock
from repro.serve.transport import (
    CONTROL_PREFIX,
    ControlFrame,
    LocalTransport,
    UdpTransport,
    decode_control,
    encode_control,
)


def _data(payload, seq=None):
    return WireDelivery(arrival_time=0.0, data=payload, kind="genuine",
                        seq_hint=seq)


def _control(block_id, final=False):
    return WireDelivery(0.0, encode_control(ControlFrame(block_id, 1, 3,
                                                         final)),
                        "control", None)


async def _frames(subscription):
    """Every frame of a subscription, its runs flattened."""
    return [delivery async for run in subscription for delivery in run]


def _assert_pure(runs):
    """Each run is only data frames, or exactly one prefixed frame."""
    for run in runs:
        assert run
        prefixed = [d.data.startswith(CONTROL_PREFIX) for d in run]
        assert not any(prefixed) or prefixed == [True]


class TestControlFrames:
    def test_round_trip(self):
        frame = ControlFrame(block_id=3, base_seq=10, last_seq=21)
        assert decode_control(encode_control(frame)) == frame

    def test_final_frame_round_trip(self):
        frame = ControlFrame(block_id=-1, base_seq=0, last_seq=0, final=True)
        decoded = decode_control(encode_control(frame))
        assert decoded.final

    def test_data_frames_are_not_control(self):
        # A real wire packet starts with seq >= 1 as big-endian u32, so
        # it can never carry the four-zero-byte control prefix.
        assert decode_control(b"\x00\x00\x00\x01rest-of-packet") is None
        assert decode_control(b"arbitrary bytes") is None

    def test_mangled_control_payload_is_garbage(self):
        valid = encode_control(ControlFrame(1, 1, 5))
        assert decode_control(valid[:-4]) is None
        assert decode_control(valid + b"\x00") is None
        assert decode_control(CONTROL_PREFIX + b"\xff\xfe") is None

    def test_encoding_is_canonical(self):
        frame = ControlFrame(1, 1, 5)
        assert encode_control(frame) == encode_control(frame)

    def test_fixed_size_whatever_the_block(self):
        # The frame no longer grows with the block or the receiver.
        sizes = {len(encode_control(ControlFrame(b, 1, 1 + n, final)))
                 for b, n, final in ((0, 1, False), (7, 1999, False),
                                     (2**31 - 1, 2**32 - 2, False),
                                     (-1, 0, True))}
        assert sizes == {21}

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=64))
    def test_random_bytes_never_raise(self, data):
        frame = decode_control(data)
        assert frame is None or isinstance(frame, ControlFrame)
        frame = decode_control(CONTROL_PREFIX + data)
        assert frame is None or isinstance(frame, ControlFrame)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(-2**31, 2**31 - 1), st.integers(0, 2**32 - 1),
           st.integers(0, 2**32 - 1), st.booleans(), st.binary(max_size=8))
    def test_every_mutation_of_a_frame_decodes_or_is_none(
            self, block_id, base_seq, last_seq, final, tail):
        valid = encode_control(ControlFrame(block_id, base_seq, last_seq,
                                            final))
        assert decode_control(valid) == ControlFrame(block_id, base_seq,
                                                     last_seq, final)
        mutants = [valid[:cut] for cut in range(len(valid))]
        mutants.append(valid + (tail or b"\x00"))
        mutants += [valid[:i] + bytes([valid[i] ^ (1 << bit)]) + valid[i + 1:]
                    for i in range(len(valid)) for bit in range(8)]
        for mutant in mutants:
            frame = decode_control(mutant)
            assert frame is None or isinstance(frame, ControlFrame)
        assert all(decode_control(m) is None for m in mutants[:len(valid) + 1])


class TestLocalTransport:
    def test_delivery_in_order(self):
        async def scenario():
            transport = LocalTransport(queue_size=8)
            await transport.start(["r0"])
            await transport.send("r0", [_data(b"\x00\x00\x00\x01a", 1),
                                        _data(b"\x00\x00\x00\x02b", 2)])
            await transport.close()
            frames = await _frames(transport.subscribe("r0"))
            return [d.seq_hint for d in frames]

        assert asyncio.run(scenario()) == [1, 2]

    def test_data_frames_drop_beyond_capacity(self):
        async def scenario():
            transport = LocalTransport(queue_size=2)
            await transport.start(["r0"])
            deliveries = [_data(b"\x00\x00\x00\x01x%d" % i, i)
                          for i in range(1, 6)]
            dropped = await transport.send("r0", deliveries)
            return ([d.seq_hint for d in dropped],
                    transport.queue_drops("r0"))

        dropped, counted = asyncio.run(scenario())
        assert dropped == [3, 4, 5]  # newest dropped, oldest kept
        assert counted == 3

    def test_drop_pattern_is_deterministic(self):
        def run():
            async def scenario():
                transport = LocalTransport(queue_size=3)
                await transport.start(["r0"])
                deliveries = [_data(b"\x00\x00\x00\x01y%d" % i, i)
                              for i in range(10)]
                dropped = await transport.send("r0", deliveries)
                return tuple(d.seq_hint for d in dropped)

            return asyncio.run(scenario())

        assert run() == run()

    def test_control_frames_never_dropped(self):
        async def scenario():
            transport = LocalTransport(queue_size=1)
            await transport.start(["r0"])
            control = WireDelivery(0.0, encode_control(ControlFrame(0, 1, 3)),
                                   "control", None)
            fills = [_data(b"\x00\x00\x00\x01fill", 1)]
            await transport.send("r0", fills)
            # Queue is full: the control send must block until a frame
            # is drained, and must never be dropped.
            send = asyncio.create_task(transport.send("r0", [control]))
            for _ in range(5):
                await asyncio.sleep(0)
            waited = not send.done()
            gen = transport.subscribe("r0")
            first = (await gen.__anext__())[0]
            dropped = await send
            second = (await gen.__anext__())[0]
            return waited, first, dropped, second

        waited, first, dropped, second = asyncio.run(scenario())
        assert waited
        assert first.seq_hint == 1
        assert dropped == []
        assert second.kind == "control"

    def test_runs_never_mix_data_and_control(self):
        data = [_data(bytes([0, 0, 0, seq]) + b"local", seq)
                for seq in range(1, 4)]
        sent = (data[:2] + [_control(0), _control(1)] + data[2:]
                + [_control(2)])

        async def scenario():
            transport = LocalTransport(queue_size=64)
            await transport.start(["r0"])
            await transport.send("r0", sent[:4])
            await transport.send("r0", sent[4:])
            await transport.close()
            return [list(run) async for run in transport.subscribe("r0")]

        runs = asyncio.run(scenario())
        _assert_pure(runs)
        assert [d for run in runs for d in run] == sent
        # One run per queue entry, yielded as it is.
        assert [len(run) for run in runs] == [2, 1, 1, 1, 1]

    def test_control_frame_to_a_crashed_full_inbox_returns_at_once(self):
        async def scenario():
            transport = LocalTransport(queue_size=1)
            await transport.start(["r0"])

            async def consume():
                async for _run in transport.subscribe("r0"):
                    pass

            # A crash cancels the subscriber while it waits for frames.
            task = asyncio.create_task(consume())
            await asyncio.sleep(0)
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
            fill = [_data(b"\x00\x00\x00\x01fill", 1)]
            assert await transport.send("r0", fill) == []
            control = [_control(0)]
            dropped = await asyncio.wait_for(transport.send("r0", control),
                                             timeout=1.0)
            return dropped == control, transport.queue_drops("r0")

        assert asyncio.run(scenario()) == (True, 1)

    def test_waiting_control_send_is_released_when_its_subscriber_dies(self):
        async def scenario():
            transport = LocalTransport(queue_size=1)
            await transport.start(["r0"])
            stalled = asyncio.Event()

            async def consume():
                async for _run in transport.subscribe("r0"):
                    await stalled.wait()  # never set: nothing drains

            task = asyncio.create_task(consume())
            await transport.send("r0", [_data(b"\x00\x00\x00\x01a", 1)])
            await asyncio.sleep(0)
            await transport.send("r0", [_data(b"\x00\x00\x00\x02b", 2)])
            send = asyncio.create_task(transport.send("r0", [_control(0)]))
            for _ in range(5):
                await asyncio.sleep(0)
            waited = not send.done()
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
            dropped = await asyncio.wait_for(send, timeout=1.0)
            return waited, [d.kind for d in dropped]

        assert asyncio.run(scenario()) == (True, ["control"])

    def test_unknown_receiver_rejected(self):
        async def scenario():
            transport = LocalTransport()
            await transport.start(["r0"])
            await transport.send("nope", [])

        with pytest.raises(SimulationError):
            asyncio.run(scenario())

    def test_close_wakes_subscribers_even_when_full(self):
        async def scenario():
            transport = LocalTransport(queue_size=1)
            await transport.start(["r0"])
            await transport.send("r0", [_data(b"\x00\x00\x00\x01z", 1)])
            await transport.close()
            frames = await _frames(transport.subscribe("r0"))
            return [d.seq_hint for d in frames]

        assert asyncio.run(scenario()) == [1]


class TestUdpTransport:
    def test_loopback_round_trip(self):
        async def scenario():
            transport = UdpTransport(MonotonicClock())
            await transport.start(["r0", "r1"])
            payload = b"\x00\x00\x00\x01udp-payload"
            await transport.send("r0", [_data(payload, 1)])

            async def first():
                gen = transport.subscribe("r0")
                return (await gen.__anext__())[0]

            delivery = await asyncio.wait_for(first(), timeout=5.0)
            await transport.close()
            return delivery

        delivery = asyncio.run(scenario())
        assert delivery.data == b"\x00\x00\x00\x01udp-payload"
        assert delivery.kind == "unknown"
        assert delivery.arrival_time >= 0.0

    def test_runs_split_at_control_frames(self):
        data = [_data(bytes([0, 0, 0, seq]) + b"udp", seq)
                for seq in range(1, 6)]
        sent = (data[:2] + [_control(0)] + data[2:]
                + [_control(1), _control(-1, final=True)])

        async def scenario():
            transport = UdpTransport(MonotonicClock())
            await transport.start(["r0"])
            await transport.send("r0", sent)
            # Let every datagram land first, so one wake-up drains
            # them all.
            queue = transport._queues["r0"]  # noqa: SLF001
            for _ in range(500):
                if queue.qsize() == len(sent):
                    break
                await asyncio.sleep(0.01)
            runs = []
            async for run in transport.subscribe("r0"):
                runs.append(list(run))
                if sum(map(len, runs)) == len(sent):
                    break
            await transport.close()
            return runs

        runs = asyncio.run(scenario())
        _assert_pure(runs)
        assert [d.data for run in runs for d in run] == [d.data for d in sent]
        assert [len(run) for run in runs] == [2, 1, 3, 1, 1]

    def test_send_before_start_rejected(self):
        async def scenario():
            await UdpTransport(MonotonicClock()).send("r0", [])

        with pytest.raises(SimulationError):
            asyncio.run(scenario())
