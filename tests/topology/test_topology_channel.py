"""TopologyChannel: Channel semantics, factory seeds, star differential.

The star differential holds the star factory to the paper's channel
model written out by hand: one independent Bernoulli channel per
receiver, seeded per (receiver, block) cell, with an attack plan
reseeded per cell.
"""

import pytest

from repro.analysis.conformance import attack_mix
from repro.crypto.signatures import HmacStubSigner
from repro.exceptions import SimulationError
from repro.faults import AdversarialChannel
from repro.network.channel import Channel
from repro.network.delay import ConstantDelay
from repro.network.loss import BernoulliLoss
from repro.schemes.registry import make_scheme
from repro.simulation.sender import StreamSender, make_payloads
from repro.topology import (
    EdgeLossBank,
    PathLoss,
    TopologyChannel,
    dualspine_topology,
    redundant_trees,
    shortest_path_tree,
    star_topology,
    topology_channel_factory,
)
from repro.topology.linkloss import attack_seed, cell_seed

LEAVES = [f"r{i:02d}" for i in range(6)]
SEED = 42


def _independent_factory(seed, attack_plan_factory=None):
    """One fresh, cell-seeded Bernoulli channel per (receiver, block)."""

    def build(receiver_index, block_id, loss_rate):
        channel = Channel(
            loss=BernoulliLoss(loss_rate,
                               seed=cell_seed(seed, receiver_index, block_id)),
            delay=ConstantDelay(0.0))
        if attack_plan_factory is None:
            return channel
        plan = attack_plan_factory()
        plan.reseed(attack_seed(seed, receiver_index, block_id))
        return AdversarialChannel(channel, plan)

    return build


def _block(block_id=0):
    scheme = make_scheme("emss(2,1)")
    signer = HmacStubSigner(key=b"topology-channel-test")
    sender = StreamSender(scheme, signer, 12)
    for _ in range(block_id):
        sender.send_block(make_payloads(12))
    return sender.send_block(make_payloads(12))


class TestChannel:
    def test_requires_a_path_loss(self):
        with pytest.raises(SimulationError):
            TopologyChannel(BernoulliLoss(0.1, seed=1), "r00")

    def test_signature_packets_are_protected_by_default(self):
        topo = star_topology(LEAVES)
        bank = EdgeLossBank(topo, SEED)
        loss = PathLoss(bank, 0, ((0,),), 1.0)  # every slot down
        channel = TopologyChannel(loss, "r00")
        deliveries = channel.transmit(_block())
        assert all(d.packet.is_signature_packet for d in deliveries)
        assert deliveries, "the protected signature packet must survive"

    def test_duplicates_forwarded_from_path_loss(self):
        topo = dualspine_topology(LEAVES, 2)
        trees = redundant_trees(topo, 2)
        factory = topology_channel_factory(SEED, topo, trees)
        channel = factory(0, 0, 0.0).channel
        channel.transmit(_block())
        assert channel.duplicates_suppressed > 0


class TestFactory:
    def test_star_passive_deliveries_match_independent_channels(self):
        topo = star_topology(LEAVES)
        tree = shortest_path_tree(topo)
        topo_factory = topology_channel_factory(SEED, topo, [tree])
        plain_factory = _independent_factory(SEED)
        for receiver in range(len(LEAVES)):
            for block_id in range(3):
                packets = _block(block_id)
                got = topo_factory(receiver, block_id,
                                   0.25).channel.transmit(packets)
                want = plain_factory(receiver, block_id,
                                     0.25).transmit(packets)
                assert [(d.packet.seq, d.arrival_time) for d in got] \
                    == [(d.packet.seq, d.arrival_time) for d in want], (
                        f"receiver {receiver} block {block_id}")

    def test_star_attacked_wire_bytes_match_independent_channels(self):
        topo = star_topology(LEAVES)
        tree = shortest_path_tree(topo)
        plan = lambda: attack_mix("pollution")  # noqa: E731
        topo_factory = topology_channel_factory(SEED, topo, [tree], plan)
        plain_factory = _independent_factory(SEED, plan)
        packets = _block()
        for receiver in (0, 3, 5):
            got = topo_factory(receiver, 0, 0.2).transmit_wire(packets)
            want = plain_factory(receiver, 0, 0.2).transmit_wire(packets)
            assert [(d.data, d.arrival_time, d.kind) for d in got] \
                == [(d.data, d.arrival_time, d.kind) for d in want]

    def test_receiver_index_must_be_a_leaf(self):
        topo = star_topology(LEAVES)
        factory = topology_channel_factory(SEED, topo,
                                           [shortest_path_tree(topo)])
        with pytest.raises(SimulationError):
            factory(len(LEAVES), 0, 0.1)

    def test_trees_must_belong_to_the_topology(self):
        topo = star_topology(LEAVES)
        other = star_topology(LEAVES)
        with pytest.raises(SimulationError):
            topology_channel_factory(SEED, topo, [shortest_path_tree(other)])
        with pytest.raises(SimulationError):
            topology_channel_factory(SEED, topo, [])

    def test_factory_exposes_shared_bank(self):
        topo = star_topology(LEAVES)
        factory = topology_channel_factory(SEED, topo,
                                           [shortest_path_tree(topo)])
        factory(0, 0, 0.1).channel.transmit(_block())
        assert factory.bank.cells_touched == 1
        assert set(factory.paths_by_leaf) == set(LEAVES)
