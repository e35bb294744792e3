"""`Channel` adapter: topology-correlated loss behind the existing API.

:class:`TopologyChannel` is a plain
:class:`~repro.network.channel.Channel` whose loss model is a
:class:`~repro.topology.linkloss.PathLoss` — transmit semantics,
protected signature packets, arrival-ordered delivery and the
ground-truth loss counts are all inherited, so every consumer of the
`Channel` interface (:mod:`repro.simulation`, :mod:`repro.faults`,
the serve sender) works unchanged.

:func:`topology_channel_factory` is the serve layer's one channel
factory: ``(receiver_index, block_id, loss_rate) -> AdversarialChannel``
around a :class:`TopologyChannel`, every channel of a session sharing
one :class:`~repro.topology.linkloss.EdgeLossBank`, which is where the
cross-receiver correlation lives.  Over a ``star`` it is the paper's
independent per-receiver channel model.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.exceptions import SimulationError
from repro.faults import AdversarialChannel, AttackPlan
from repro.network.channel import Channel
from repro.network.delay import ConstantDelay, DelayModel
from repro.topology.graph import Topology
from repro.topology.linkloss import EdgeLossBank, PathLoss, attack_seed
from repro.topology.trees import DistTree, union_paths

__all__ = ["TopologyChannel", "topology_channel_factory"]


class TopologyChannel(Channel):
    """One receiver's view of the distribution tree(s), as a Channel.

    Everything is standard :class:`~repro.network.channel.Channel`
    behaviour; the only additions are introspection handles — which
    leaf this channel serves and how many redundant-path duplicate
    copies its :class:`~repro.topology.linkloss.PathLoss` suppressed.
    """

    def __init__(self, loss: PathLoss, leaf: str,
                 delay: Optional[DelayModel] = None,
                 protect_signature_packets: bool = True) -> None:
        if not isinstance(loss, PathLoss):
            raise SimulationError("TopologyChannel requires a PathLoss")
        super().__init__(loss=loss,
                         delay=delay if delay is not None
                         else ConstantDelay(0.0),
                         protect_signature_packets=protect_signature_packets)
        self.leaf = leaf

    @property
    def duplicates_suppressed(self) -> int:
        """Redundant-path copies deduplicated at this receiver."""
        return self.loss.duplicates_suppressed


def topology_channel_factory(seed: int, topology: Topology,
                             trees: Sequence[DistTree],
                             attack_plan_factory: Callable[
                                 [], AttackPlan] = AttackPlan
                             ) -> Callable[[int, int, float],
                                           AdversarialChannel]:
    """Per-(receiver, block) channels over a shared edge-loss bank.

    Every call builds a fresh channel: the edge draws come from the one
    :class:`~repro.topology.linkloss.EdgeLossBank` all receivers
    consult (correlated delivery wherever root→leaf paths share
    edges), inside an :class:`~repro.faults.AdversarialChannel` (the
    topology channel is its ``channel``) whose attack plan is reseeded
    per cell with :func:`~repro.topology.linkloss.attack_seed`.  The
    default is the empty :class:`~repro.faults.AttackPlan`, which
    draws nothing: no attack.  Each receiver's plan is built once, on
    its first cell, and reused: a reseed pins every member's stream,
    so a reused plan draws exactly what a fresh one would.  The caller
    must finish transmitting on a cell's channel before asking for
    that receiver's next cell (the serve sender transmits right after
    building, with no ``await`` between).

    ``receiver_index`` indexes ``topology.leaves`` — the factory is
    only valid for the leaf ordering the topology was built with.
    The shared bank is exposed as the ``bank`` attribute of the
    returned factory for observability and tests.
    """
    if not trees:
        raise SimulationError("need at least one distribution tree")
    for tree in trees:
        if tree.topology is not topology:
            raise SimulationError("tree built for a different topology")
    bank = EdgeLossBank(topology, seed)
    paths_by_leaf: Dict[str, Tuple[Tuple[int, ...], ...]] = {
        leaf: union_paths(trees, leaf) for leaf in topology.leaves
    }
    plans: Dict[int, AttackPlan] = {}

    def build(receiver_index: int, block_id: int, loss_rate: float):
        try:
            leaf = topology.leaves[receiver_index]
        except IndexError:
            raise SimulationError(
                f"receiver index {receiver_index} outside topology "
                f"({len(topology.leaves)} leaves)")
        loss = PathLoss(bank, block_id, paths_by_leaf[leaf], loss_rate)
        channel = TopologyChannel(loss, leaf)
        plan = plans.get(receiver_index)
        if plan is None:
            plan = plans[receiver_index] = attack_plan_factory()
        plan.reseed(attack_seed(seed, receiver_index, block_id))
        return AdversarialChannel(channel, plan)

    build.bank = bank
    build.paths_by_leaf = paths_by_leaf
    return build
