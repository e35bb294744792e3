"""Differential tests of the compiled block plan.

``Scheme.make_block`` compiles each scheme's dependence-graph once per
block size and reuses the plan, and builds each packet in one pass with
its encoding already in place (``Packet._from_plan``).  These tests hold
it to the per-block builder it replaced: a copy of that loop, kept in
``tests/oracles.py``, rebuilds and re-sorts the graph on every call
and builds every packet through the validating constructor.  Every
generic-builder scheme in the registry must produce the same packets
through both: equal as objects, in hash, repr, encoding, pickling and
copies, not only on the wire.

The constructor's per-packet checks moved to plan construction and
block entry; the parity tests below pin that ``packetize`` still
refuses the same inputs with the same exception types, and a counting
test pins that it runs no constructor and no second encoding.
"""

import dataclasses
import pickle
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import get_hash, sha256
from repro.crypto.signatures import HmacStubSigner
from repro.exceptions import (PacketFormatError, SchemeParameterError,
                              SimulationError)
from repro.packets import MAX_BLOB_BYTES, MAX_CARRIED_HASHES, Packet
from repro.schemes.augmented_chain import AugmentedChainScheme
from repro.schemes.base import BlockPlan, Scheme
from repro.schemes.emss import EmssScheme
from repro.schemes.random_graph import RandomGraphScheme
from repro.schemes.registry import available_schemes, make_scheme
from repro.simulation.sender import make_payloads
from tests.oracles import reference_block

SIGNER = HmacStubSigner(key=b"block-plan")

#: One spec per registered scheme name.  ``random`` is seeded so the
#: reference and the plan sample the same graph.
SPECS = {
    "ac": "ac(3,3)",
    "emss": "emss(2,1)",
    "offsets": "offsets(1,5,9)",
    "random": "random(0.3,7)",
    "rohatgi": "rohatgi",
    "rohatgi-online": "rohatgi-online",
    "saida": "saida(0.5)",
    "sign-each": "sign-each",
    "tesla": "tesla(d=2,T=0.1)",
    "wong-lam": "wong-lam",
}

SIZES = (2, 3, 7, 12, 33, 128)
PLACEMENTS = ((0, 1), (5, 1000))
HASHES = (sha256, get_hash("sha256/10"))


def _generic(spec: str) -> bool:
    scheme = make_scheme(spec)
    return (type(scheme).make_block is Scheme.make_block
            and scheme.build_graph(4) is not None)


GENERIC = [spec for spec in SPECS.values() if _generic(spec)]
GRAPHLESS = [spec for spec in SPECS.values()
             if make_scheme(spec).build_graph(4) is None]


def _wire(packets: List[Packet]) -> List[bytes]:
    return [packet.to_wire() for packet in packets]


def _assert_same_packets(packets: List[Packet],
                         expected: List[Packet]) -> None:
    """``packets`` match the constructor-built ``expected`` as objects."""
    assert _wire(packets) == _wire(expected)
    assert packets == expected
    for packet, reference in zip(packets, expected):
        # Same fields and the same kept encoding, in the same order.
        assert list(vars(packet).items()) == list(vars(reference).items())
        assert hash(packet) == hash(reference)
        assert repr(packet) == repr(reference)
        assert packet.auth_bytes() == reference.auth_bytes()

        clone = pickle.loads(pickle.dumps(packet))
        assert "_auth" not in vars(clone)
        assert clone == reference
        assert clone.auth_bytes() == reference.auth_bytes()

        payload = packet.payload + b"!"
        changed = dataclasses.replace(packet, payload=payload)
        assert "_auth" not in vars(changed)
        assert changed.auth_bytes() == dataclasses.replace(
            reference, payload=payload).auth_bytes()
        assert changed.auth_bytes() != packet.auth_bytes()

        stamped = packet.with_send_time(2.5)
        assert stamped.auth_bytes() is packet.auth_bytes()
        assert stamped == dataclasses.replace(reference, send_time=2.5)
        signed = packet.with_signature(b"sig")
        assert signed.auth_bytes() is packet.auth_bytes()
        assert signed == dataclasses.replace(reference, signature=b"sig")


def test_spec_table_covers_the_registry():
    assert sorted(SPECS) == available_schemes()
    assert {"ac", "emss", "offsets", "random", "rohatgi"} == {
        name for name, spec in SPECS.items() if spec in GENERIC}


@pytest.mark.parametrize("spec", GENERIC)
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("block_id,base_seq", PLACEMENTS)
def test_plan_matches_per_block_builder(spec, n, block_id, base_seq):
    payloads = make_payloads(n)
    for hash_function in HASHES:
        scheme = make_scheme(spec)
        expected = reference_block(scheme, payloads, SIGNER, hash_function,
                                   block_id=block_id, base_seq=base_seq)
        # The first call compiles the plan, the second hits its memo.
        for _ in range(2):
            packets = scheme.make_block(payloads, SIGNER, hash_function,
                                        block_id=block_id,
                                        base_seq=base_seq)
            _assert_same_packets(packets, expected)


@given(edge_probability=st.floats(min_value=0.05, max_value=1.0),
       seed=st.integers(min_value=0, max_value=2 ** 32),
       n=st.integers(min_value=2, max_value=40),
       block_id=st.integers(min_value=0, max_value=2 ** 32 - 1),
       base_seq=st.integers(min_value=1, max_value=2 ** 32 - 40),
       truncated=st.booleans())
@settings(max_examples=60, deadline=None)
def test_random_plans_match_per_block_builder(edge_probability, seed, n,
                                              block_id, base_seq,
                                              truncated):
    scheme = RandomGraphScheme(edge_probability, seed=seed)
    hash_function = HASHES[truncated]
    payloads = make_payloads(n)
    expected = reference_block(scheme, payloads, SIGNER, hash_function,
                               block_id=block_id, base_seq=base_seq)
    packets = scheme.make_block(payloads, SIGNER, hash_function,
                                block_id=block_id, base_seq=base_seq)
    _assert_same_packets(packets, expected)


@pytest.mark.parametrize("spec", GENERIC)
def test_interleaved_block_sizes(spec):
    scheme = make_scheme(spec)
    base_seq = 1
    for block_id, n in enumerate((12, 7, 12)):
        payloads = make_payloads(n)
        expected = _wire(reference_block(scheme, payloads, SIGNER,
                                         block_id=block_id,
                                         base_seq=base_seq))
        packets = scheme.make_block(payloads, SIGNER, block_id=block_id,
                                    base_seq=base_seq)
        assert _wire(packets) == expected
        base_seq += n


@pytest.mark.parametrize("spec", GRAPHLESS)
def test_graphless_schemes_refuse_the_generic_builder(spec):
    scheme = make_scheme(spec)
    with pytest.raises(SchemeParameterError):
        Scheme.make_block(scheme, make_payloads(4), SIGNER)


def _count_build_graph(scheme: Scheme) -> List[int]:
    calls: List[int] = []
    original = scheme.build_graph

    def build_graph(n):
        calls.append(n)
        return original(n)

    scheme.build_graph = build_graph
    return calls


@pytest.mark.parametrize("scheme", [EmssScheme(2, 1),
                                    AugmentedChainScheme(3, 3)],
                         ids=["emss", "ac"])
def test_graph_built_once_per_block_size(scheme):
    calls = _count_build_graph(scheme)
    for n in (12, 7, 12, 7, 33, 12):
        scheme.make_block(make_payloads(n), SIGNER)
    assert calls == [12, 7, 33]


@pytest.mark.parametrize("seed", [None, 7])
def test_random_graph_built_every_block(seed):
    scheme = RandomGraphScheme(0.3, seed=seed)
    calls = _count_build_graph(scheme)
    for n in (12, 12, 7, 12):
        scheme.make_block(make_payloads(n), SIGNER)
    assert calls == [12, 12, 7, 12]


def test_unseeded_random_graph_redrawn_per_block():
    scheme = make_scheme("random(0.3)")
    payloads = make_payloads(33)
    carried = {tuple(tuple(target for target, _ in packet.carried)
                     for packet in scheme.make_block(payloads, SIGNER))
               for _ in range(4)}
    assert len(carried) > 1


def test_plan_is_per_instance():
    payloads = make_payloads(12)
    a = EmssScheme(2, 1).make_block(payloads, SIGNER)
    b = EmssScheme(3, 2).make_block(payloads, SIGNER)
    assert _wire(a) != _wire(b)
    assert _wire(b) == _wire(reference_block(EmssScheme(3, 2), payloads,
                                             SIGNER))


def test_payload_count_checked_against_plan():
    plan = EmssScheme(2, 1).block_plan(7)
    with pytest.raises(SchemeParameterError):
        plan.packetize(make_payloads(6), SIGNER)


# ----------------------------------------------------------------------
# Invariant parity: packetize refuses what the constructor refused
# ----------------------------------------------------------------------

@pytest.mark.parametrize("placement,error", [
    (dict(base_seq=0), SimulationError),
    (dict(base_seq=2 ** 32 - 2), PacketFormatError),
    (dict(block_id=-1), SimulationError),
    (dict(block_id=2 ** 32), PacketFormatError),
], ids=["seq-zero", "seq-past-u32", "negative-block", "block-past-u32"])
def test_block_placement_checked(placement, error):
    with pytest.raises(error):
        EmssScheme(2, 1).make_block(make_payloads(4), SIGNER, **placement)


def test_last_seq_at_u32_max_accepted():
    packets = EmssScheme(2, 1).make_block(make_payloads(4), SIGNER,
                                          base_seq=2 ** 32 - 4)
    assert packets[-1].seq == 2 ** 32 - 1


def test_overlong_payload_refused():
    payloads = make_payloads(4)
    payloads[2] = bytes(MAX_BLOB_BYTES + 1)
    with pytest.raises(PacketFormatError):
        EmssScheme(2, 1).make_block(payloads, SIGNER)


def test_overlong_digest_refused():
    class Overlong:
        def digest(self, data):
            return bytes(MAX_BLOB_BYTES + 1)

    with pytest.raises(PacketFormatError):
        EmssScheme(2, 1).make_block(make_payloads(4), SIGNER, Overlong())


def test_empty_digest_refused():
    class Empty:
        def digest(self, data):
            return b""

    with pytest.raises(SimulationError):
        EmssScheme(2, 1).make_block(make_payloads(4), SIGNER, Empty())


def _star_plan(carried: int) -> BlockPlan:
    """Root 1 carries the hash of every other vertex, hand-built."""
    n = carried + 1
    return BlockPlan(n=n, root=1, order=tuple(range(2, n + 1)) + (1,),
                     successors=(tuple(range(2, n + 1)),) + ((),) * carried)


def test_hand_built_plan_over_carried_cap_refused():
    payloads = [b"p"] * (MAX_CARRIED_HASHES + 2)
    with pytest.raises(PacketFormatError):
        _star_plan(MAX_CARRIED_HASHES + 1).packetize(payloads, SIGNER)


def test_hand_built_plan_at_carried_cap_accepted():
    packets = _star_plan(MAX_CARRIED_HASHES).packetize(
        [b"p"] * (MAX_CARRIED_HASHES + 1), SIGNER)
    assert len(packets[0].carried) == MAX_CARRIED_HASHES


@pytest.mark.parametrize("successors", [
    ((1, 2), (), ()),         # self edge
    ((2, 2, 3), (), ()),      # duplicate successor
], ids=["self-edge", "duplicate"])
def test_hand_built_plan_bad_edges_refused(successors):
    with pytest.raises(SimulationError):
        BlockPlan(n=3, root=1, order=(3, 2, 1),
                  successors=successors).packetize(make_payloads(3), SIGNER)


def test_hand_built_plan_out_of_order_refused():
    """The root comes before the vertex whose hash it carries."""
    plan = BlockPlan(n=3, root=1, order=(1, 2, 3),
                     successors=((2, 3), (), ()))
    with pytest.raises(SimulationError):
        plan.packetize(make_payloads(3), SIGNER)


@pytest.mark.parametrize("target", [0, 4], ids=["zero", "past-n"])
def test_plan_targets_outside_block_refused(target):
    with pytest.raises(SimulationError):
        BlockPlan(n=3, root=1, order=(2, 3, 1),
                  successors=((2, target), (), ()))


# ----------------------------------------------------------------------
# One pass: no constructor, no second encoding, one digest per packet
# ----------------------------------------------------------------------

class _CountingHash:
    def __init__(self) -> None:
        self.calls = 0

    def digest(self, data: bytes) -> bytes:
        self.calls += 1
        return sha256.digest(data)


def test_packetize_builds_each_packet_once(monkeypatch):
    scheme = EmssScheme(2, 1)
    payloads = make_payloads(128)
    expected = reference_block(scheme, payloads, SIGNER)
    scheme.block_plan(128)
    constructed, encoded = [], []
    post_init, encode = Packet.__post_init__, Packet._encode_auth

    def counted_post_init(packet):
        constructed.append(packet.seq)
        post_init(packet)

    def counted_encode(packet):
        encoded.append(packet.seq)
        return encode(packet)

    monkeypatch.setattr(Packet, "__post_init__", counted_post_init)
    monkeypatch.setattr(Packet, "_encode_auth", counted_encode)
    hash_function = _CountingHash()
    packets = scheme.make_block(payloads, SIGNER, hash_function)
    wire = _wire(packets)
    assert constructed == []
    assert encoded == []
    assert hash_function.calls == 128
    monkeypatch.undo()
    assert wire == _wire(expected)
