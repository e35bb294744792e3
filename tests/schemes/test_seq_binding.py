"""A genuine packet relabelled to another seq of its block never verifies.

The attacker keeps a packet's payload and authentication data and
rewrites only its sequence number, to that of another packet of the
same block, whose genuine copy it drops.  Over every ordered
(source, target) pair of an 8-packet block — 56 pairs — the relabelled
packet must not be accepted: :func:`settle`'s audit against what was
sent under each seq counts ``forged_accepted == 0``.  SAIDA and
Wong–Lam bind the seq by hashing each payload as
``Packet(seq, block_id, payload).auth_bytes()``; the other schemes'
authenticated bytes include the seq already.
"""

import itertools
import struct

import pytest

from repro.analysis.conformance import DEFAULT_SPECS
from repro.crypto.signatures import HmacStubSigner
from repro.packets import WIRE_HEADER_SIZE, Packet
from repro.schemes.registry import make_scheme
from repro.simulation.stats import SimulationStats
from repro.simulation.trials import settle

from tests.wire import ingest_one

SIGNER = HmacStubSigner(key=b"relabel")
BLOCK = 8
SPECS = sorted(DEFAULT_SPECS.values())


def relabel(packet: Packet, seq: int) -> bytes:
    """``packet``'s wire bytes with both copies of its seq rewritten."""
    data = bytearray(packet.to_wire())
    struct.pack_into(">I", data, 0, seq)  # the header's
    struct.pack_into(">I", data, WIRE_HEADER_SIZE, seq)  # auth_bytes'
    return bytes(data)


def forged_accepted(trial, source, target) -> int:
    """Deliver the block with ``source`` relabelled into ``target``'s slot.

    Each buffer is a one-delivery run through ``ingest_run``: the decode
    memo and content digest production uses.
    """
    verifier = trial.new_verifier()
    for packet in trial.packets:
        wire = (relabel(source, target.seq) if packet is target
                else packet.to_wire())
        ingest_one(verifier, wire, 0.0)
    verifier.finish()
    authentic = {packet.seq: verifier.content_digest(packet)
                 for packet in trial.packets}
    stats = SimulationStats()
    settle(verifier, trial.positions, set(), authentic, stats)
    return stats.forged_accepted


@pytest.mark.parametrize("spec", SPECS)
def test_relabel_sweep_is_rejected(spec):
    trial = make_scheme(spec).new_trial(SIGNER, BLOCK, 1, seed=1)
    data = [packet for packet in trial.packets if packet.seq in trial.positions]
    pairs = list(itertools.permutations(data, 2))
    assert len(pairs) == 56
    accepted = [(source.seq, target.seq) for source, target in pairs
                if forged_accepted(trial, source, target)]
    assert accepted == [], f"{spec} accepted relabelled packets {accepted}"


def test_the_sweep_covers_the_schemes_that_hashed_payloads_only():
    assert {"saida(0.5)", "wong-lam"} <= set(SPECS)
