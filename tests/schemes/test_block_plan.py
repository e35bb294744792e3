"""Differential tests of the compiled block plan.

``Scheme.make_block`` compiles each scheme's dependence-graph once per
block size and reuses the plan.  These tests hold it to the per-block
builder it replaced: a copy of that loop, kept here, rebuilds and
re-sorts the graph on every call, and every generic-builder scheme in
the registry must produce the same wire bytes through both.
"""

from typing import Dict, List

import pytest

from repro.crypto.hashing import sha256
from repro.crypto.signatures import HmacStubSigner
from repro.exceptions import SchemeParameterError
from repro.packets import Packet
from repro.schemes.augmented_chain import AugmentedChainScheme
from repro.schemes.base import Scheme
from repro.schemes.emss import EmssScheme
from repro.schemes.random_graph import RandomGraphScheme
from repro.schemes.registry import available_schemes, make_scheme
from repro.simulation.sender import make_payloads

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


def _generic(spec: str) -> bool:
    scheme = make_scheme(spec)
    return (type(scheme).make_block is Scheme.make_block
            and scheme.build_graph(4) is not None)


GENERIC = [spec for spec in SPECS.values() if _generic(spec)]
GRAPHLESS = [spec for spec in SPECS.values()
             if make_scheme(spec).build_graph(4) is None]


def reference_block(scheme: Scheme, payloads, signer, hash_function=sha256,
                    block_id: int = 0, base_seq: int = 1) -> List[Packet]:
    """The per-block builder: rebuild, validate and sort every call."""
    graph = scheme.build_graph(len(payloads))
    graph.validate()
    order = graph.topological_order()
    hashes: Dict[int, bytes] = {}
    packets: Dict[int, Packet] = {}
    for vertex in reversed(order):
        carried = tuple(
            (base_seq + target - 1, hashes[target])
            for target in graph.successors(vertex)
        )
        packet = Packet(
            seq=base_seq + vertex - 1,
            block_id=block_id,
            payload=bytes(payloads[vertex - 1]),
            carried=carried,
        )
        if vertex == graph.root:
            packet = Packet(
                seq=packet.seq,
                block_id=packet.block_id,
                payload=packet.payload,
                carried=packet.carried,
                signature=signer.sign(packet.auth_bytes()),
            )
        hashes[vertex] = hash_function.digest(packet.auth_bytes())
        packets[vertex] = packet
    return [packets[v] for v in range(1, len(payloads) + 1)]


def _wire(packets: List[Packet]) -> List[bytes]:
    return [packet.to_wire() for packet in packets]


def test_spec_table_covers_the_registry():
    assert sorted(SPECS) == available_schemes()
    assert {"ac", "emss", "offsets", "random", "rohatgi"} == {
        name for name, spec in SPECS.items() if spec in GENERIC}


@pytest.mark.parametrize("spec", GENERIC)
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("block_id,base_seq", PLACEMENTS)
def test_plan_matches_per_block_builder(spec, n, block_id, base_seq):
    scheme = make_scheme(spec)
    payloads = make_payloads(n)
    expected = _wire(reference_block(scheme, payloads, SIGNER,
                                     block_id=block_id, base_seq=base_seq))
    # The first call compiles the plan, the second hits the cache.
    for _ in range(2):
        packets = scheme.make_block(payloads, SIGNER, block_id=block_id,
                                    base_seq=base_seq)
        assert _wire(packets) == expected


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
