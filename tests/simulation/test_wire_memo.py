"""A shared wire memo cannot change any receiver's verdict.

Receivers of one live pool decode through one content-keyed memo
(``ChainReceiver(wire_memo=...)``): each distinct buffer is decoded and
hashed once, and only those pure functions of the bytes are shared.
These tests feed the same mixed stream — genuine bytes, a bit-flipped
copy, a sequence-colliding forgery, replays, truncated garbage, one
buffer reaching several receivers in different orders — to receivers
sharing a memo and to receivers with none, and require identical
outcomes, accepted digests, counters and ingest taxonomies.
"""

import random
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.simulation.receiver as receiver_module
from repro.crypto.signatures import HmacStubSigner
from repro.packets import WIRE_HEADER_SIZE
from repro.schemes.emss import EmssScheme
from repro.simulation.receiver import ChainReceiver
from repro.simulation.sender import make_payloads

from tests.wire import ingest_one

_SIGNER = HmacStubSigner(key=b"wire-memo")


def _flip(wire: bytes, offset: int) -> bytes:
    """``wire`` with one bit flipped in its authenticated region."""
    mutated = bytearray(wire)
    span = len(wire) - WIRE_HEADER_SIZE
    mutated[WIRE_HEADER_SIZE + offset % span] ^= 0x10
    return bytes(mutated)


def _buffers():
    """One EMSS(2,1) block's genuine frames plus hostile variants."""
    packets = EmssScheme(2, 1).make_block(make_payloads(8), _SIGNER)
    stamped = [packet.with_send_time(0.001 * index)
               for index, packet in enumerate(packets)]
    genuine = [packet.to_wire() for packet in stamped]
    hostile = [
        _flip(genuine[2], 7),                                # bit flip
        _flip(genuine[-1], 40),                              # on P_sign
        replace(stamped[3], payload=b"forged").to_wire(),    # seq collision
        replace(stamped[-1], payload=b"forged").to_wire(),   # forged P_sign
        genuine[4][:len(genuine[4]) // 2],                   # truncated
        b"\x00garbage",
    ]
    return genuine, hostile


def _observe(receiver, data, arrival):
    ingest_one(receiver, data, arrival)
    packet = receiver.last_ingest_packet
    seq = None if packet is None else packet.seq
    return (seq is None or receiver.verdict(seq) is None,
            receiver.last_ingest, seq)


def _state(receiver):
    return {
        "accepted": dict(receiver.accepted_digests()),
        "outcomes": {seq: (o.verified, o.forged, o.arrival_time,
                           o.verified_time)
                     for seq, o in receiver.outcomes.items()},
        "counters": (receiver.undecodable, receiver.forged_rejected,
                     receiver.replays_dropped, receiver.buffered_count,
                     receiver.pending_hash_count),
    }


def _run(schedule, receivers, memo):
    """Feed ``(receiver, buffer)`` steps; returns per-step observations."""
    pool = [ChainReceiver(_SIGNER, wire_memo=memo) for _ in range(receivers)]
    steps = [_observe(pool[index], data, 0.0001 * step)
             for step, (index, data) in enumerate(schedule)]
    return steps, [_state(receiver) for receiver in pool]


def _assert_memo_transparent(schedule, receivers):
    memo = {}
    shared = _run(schedule, receivers, memo)
    alone = _run(schedule, receivers, None)
    assert shared == alone
    assert set(memo) == {data for _, data in schedule}
    return shared


class TestMemoIsTransparent:
    def test_mixed_stream_in_different_orders(self):
        genuine, hostile = _buffers()
        stream = genuine + hostile + genuine[1:4]   # the tail replays
        orders = [list(stream), list(reversed(stream)),
                  random.Random(5).sample(stream, len(stream))]
        schedule = [(index, data)
                    for index, order in enumerate(orders) for data in order]
        steps, _ = _assert_memo_transparent(schedule, receivers=3)
        # The stream reaches every branch of the ingest taxonomy.
        assert {status for _, status, _ in steps} >= {
            "verified", "buffered", "forged-reject", "replay-drop",
            "undecodable"}

    def test_memo_hits_skip_the_decoder(self, monkeypatch):
        genuine, hostile = _buffers()
        calls = []
        decode = receiver_module.packet_from_wire

        def counted(data):
            calls.append(data)
            return decode(data)

        monkeypatch.setattr(receiver_module, "packet_from_wire", counted)
        memo = {}
        pool = [ChainReceiver(_SIGNER, wire_memo=memo) for _ in range(4)]
        for receiver in pool:
            for data in genuine + hostile:
                ingest_one(receiver, data, 0.0)
        assert sorted(calls) == sorted(set(genuine + hostile))
        # Undecodable bytes are memoized too, and counted per receiver.
        assert all(receiver.undecodable == pool[0].undecodable >= 2
                   for receiver in pool)
        assert all(receiver.verified_count() == len(genuine)
                   for receiver in pool)

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=2),
                              st.integers(min_value=0, max_value=15)),
                    min_size=1, max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_random_interleavings_three_receivers(self, steps):
        genuine, hostile = _buffers()
        buffers = genuine + hostile
        schedule = [(receiver, buffers[index % len(buffers)])
                    for receiver, index in steps]
        _assert_memo_transparent(schedule, receivers=3)

