"""Differential tests of the block plan's memo of its last block.

A Monte Carlo run sends the same block on every trial, so
:meth:`~repro.schemes.base.BlockPlan.packetize` keeps the packets of
its last call, keyed by ``block_id``, ``base_seq``, the payload bytes,
and the signer and hash objects.  These tests hold a hit to a fresh
build by the per-block oracle (``tests/oracles.py``), field for field
and on the wire, for every graph scheme the conformance suite runs.
They call the plan directly: ``random(p)`` compiles a new plan for
every block, so through ``make_block`` it never hits.
They also check that changing any one key part rebuilds, that a
payload buffer changed after the call cannot hit, and that a caller
changing the returned list cannot change the next call's result.
"""

import pickle
from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.conformance import DEFAULT_SPECS
from repro.crypto.hashing import sha256
from repro.crypto.signatures import HmacStubSigner
from repro.packets import Packet
from repro.schemes.base import Scheme
from repro.schemes.registry import make_scheme
from repro.simulation.sender import make_payloads
from tests.oracles import reference_block

KEY = b"plan-memo"

#: The conformance specs that packetize through a compiled plan.
GRAPH_SPECS = sorted(
    spec for spec in DEFAULT_SPECS.values()
    if type(make_scheme(spec)).make_block is Scheme.make_block
    and make_scheme(spec).build_graph(4) is not None)


class CountingSigner:
    """HMAC signatures under ``KEY``, counting each :meth:`sign`."""

    name = "counting"

    def __init__(self) -> None:
        self._inner = HmacStubSigner(key=KEY)
        self.signature_size = self._inner.signature_size
        self.calls = 0

    def sign(self, message: bytes) -> bytes:
        self.calls += 1
        return self._inner.sign(message)

    def verify(self, message: bytes, signature: bytes) -> bool:
        return self._inner.verify(message, signature)


class CountingHash:
    """SHA-256, counting each :meth:`digest`."""

    def __init__(self) -> None:
        self.calls = 0

    def digest(self, data: bytes) -> bytes:
        self.calls += 1
        return sha256.digest(data)


REFERENCE_SIGNER = HmacStubSigner(key=KEY)


def _assert_fresh(packets: List[Packet], scheme: Scheme, payloads,
                  block_id: int, base_seq: int) -> None:
    """``packets`` are what the oracle builds for this block."""
    expected = reference_block(scheme, payloads, REFERENCE_SIGNER, sha256,
                               block_id=block_id, base_seq=base_seq)
    assert [p.to_wire() for p in packets] == [p.to_wire() for p in expected]
    for packet, reference in zip(packets, expected):
        assert list(vars(packet).items()) == list(vars(reference).items())


blocks = st.fixed_dictionaries({
    "spec": st.sampled_from(GRAPH_SPECS),
    "n": st.integers(min_value=2, max_value=40),
    "block_id": st.integers(min_value=0, max_value=2 ** 32 - 2),
    "base_seq": st.integers(min_value=1, max_value=2 ** 32 - 42),
})


@given(block=blocks)
@settings(max_examples=80, deadline=None)
def test_hit_equals_a_fresh_build(block):
    scheme = make_scheme(block["spec"])
    n, block_id, base_seq = block["n"], block["block_id"], block["base_seq"]
    plan = scheme.block_plan(n)
    signer, hash_function = CountingSigner(), CountingHash()
    first = plan.packetize(make_payloads(n), signer, hash_function,
                           block_id=block_id, base_seq=base_seq)
    assert (signer.calls, hash_function.calls) == (1, n)
    # Equal payloads in new buffers, as every trial of a run makes them.
    payloads = [bytearray(payload) for payload in make_payloads(n)]
    hit = plan.packetize(payloads, signer, hash_function,
                         block_id=block_id, base_seq=base_seq)
    assert (signer.calls, hash_function.calls) == (1, n)
    assert hit is not first
    assert all(a is b for a, b in zip(hit, first))
    _assert_fresh(hit, scheme, payloads, block_id, base_seq)


@given(block=blocks, part=st.sampled_from(
    ["block_id", "base_seq", "signer", "hash", "payload"]),
    index=st.integers(min_value=0), bit=st.integers(min_value=0, max_value=7))
@settings(max_examples=120, deadline=None)
def test_changing_one_key_part_rebuilds(block, part, index, bit):
    scheme = make_scheme(block["spec"])
    n, block_id, base_seq = block["n"], block["block_id"], block["base_seq"]
    plan = scheme.block_plan(n)
    signer, hash_function = CountingSigner(), CountingHash()
    payloads = make_payloads(n)
    plan.packetize(payloads, signer, hash_function,
                   block_id=block_id, base_seq=base_seq)
    if part == "block_id":
        block_id += 1
    elif part == "base_seq":
        base_seq += 1
    elif part == "signer":
        # Equal keys, another object: the memo keys signers by identity.
        signer = CountingSigner()
    elif part == "hash":
        hash_function = CountingHash()
    else:
        payloads = list(payloads)
        slot = index % n
        changed = bytearray(payloads[slot])
        changed[(index // n) % len(changed)] ^= 1 << bit
        payloads[slot] = bytes(changed)
    before = (signer.calls, hash_function.calls)
    packets = plan.packetize(payloads, signer, hash_function,
                             block_id=block_id, base_seq=base_seq)
    assert (signer.calls - before[0], hash_function.calls - before[1]) == (
        1, n)
    _assert_fresh(packets, scheme, payloads, block_id, base_seq)


@given(block=blocks, index=st.integers(min_value=0))
@settings(max_examples=60, deadline=None)
def test_payload_buffer_changed_after_the_call_misses(block, index):
    scheme = make_scheme(block["spec"])
    n, block_id, base_seq = block["n"], block["block_id"], block["base_seq"]
    plan = scheme.block_plan(n)
    signer = CountingSigner()
    payloads = [bytearray(payload) for payload in make_payloads(n)]
    first = plan.packetize(payloads, signer, sha256,
                           block_id=block_id, base_seq=base_seq)
    original = [packet.to_wire() for packet in first]
    payloads[index % n][0] ^= 0xFF
    packets = plan.packetize(payloads, signer, sha256,
                             block_id=block_id, base_seq=base_seq)
    assert signer.calls == 2
    _assert_fresh(packets, scheme, payloads, block_id, base_seq)
    # The first call's packets hold their own copies of the payloads.
    assert [packet.to_wire() for packet in first] == original


@given(block=blocks)
@settings(max_examples=40, deadline=None)
def test_changing_the_returned_list_does_not_change_the_next(block):
    scheme = make_scheme(block["spec"])
    n, block_id, base_seq = block["n"], block["block_id"], block["base_seq"]
    plan = scheme.block_plan(n)
    signer = CountingSigner()
    payloads = make_payloads(n)
    first = plan.packetize(payloads, signer, sha256,
                           block_id=block_id, base_seq=base_seq)
    first.reverse()
    first.append(first[0])
    first[0] = first[-1].with_send_time(1.0)
    packets = plan.packetize(payloads, signer, sha256,
                             block_id=block_id, base_seq=base_seq)
    assert signer.calls == 1
    assert len(packets) == n
    _assert_fresh(packets, scheme, payloads, block_id, base_seq)


def test_memo_is_not_pickled():
    plan = make_scheme("emss(2,1)").block_plan(8)
    plan.packetize(make_payloads(8), CountingSigner())
    clone = pickle.loads(pickle.dumps(plan))
    assert clone == plan
    assert clone._last is None
    signer = CountingSigner()
    clone.packetize(make_payloads(8), signer)
    assert signer.calls == 1
