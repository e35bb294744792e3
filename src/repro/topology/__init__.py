"""Topology-aware multicast: graphs, trees, correlated link loss.

The paper models loss per *receiver*; this package moves it to the
*link*.  A :class:`~repro.topology.graph.Topology` describes the
network, :mod:`repro.topology.trees` builds (k-redundant) multicast
distribution trees over it, :mod:`repro.topology.linkloss` draws each
edge's fate once per packet and ANDs root→leaf paths (OR across
redundant trees), and :class:`~repro.topology.channel.TopologyChannel`
packages one leaf's view behind the ordinary `Channel` interface so
simulation, fault injection and the serve layer run unchanged.
:mod:`repro.topology.conformance` supplies the statistical harness
that holds the construction to the analytic models.
"""

from repro.topology.channel import TopologyChannel, topology_channel_factory
from repro.topology.conformance import (
    TopologyChannels,
    path_loss_rate,
    sibling_delivery_correlation,
    topology_adversarial_stats,
    topology_conformance_deviations,
    topology_wire_stats,
)
from repro.topology.graph import (
    TOPOLOGY_SPECS,
    Topology,
    dualspine_topology,
    make_topology,
    spine_topology,
    star_topology,
)
from repro.topology.linkloss import (
    EDGE_LOSS_MODELS,
    EdgeLossBank,
    PathLoss,
    delivery_probability,
)
from repro.topology.trees import (
    TREE_ALGORITHMS,
    DistTree,
    build_tree,
    redundant_trees,
    shortest_path_tree,
    steiner_tree,
    union_paths,
)

__all__ = [
    "Topology",
    "star_topology",
    "spine_topology",
    "dualspine_topology",
    "make_topology",
    "TOPOLOGY_SPECS",
    "DistTree",
    "build_tree",
    "shortest_path_tree",
    "steiner_tree",
    "redundant_trees",
    "union_paths",
    "TREE_ALGORITHMS",
    "EdgeLossBank",
    "PathLoss",
    "delivery_probability",
    "EDGE_LOSS_MODELS",
    "TopologyChannel",
    "topology_channel_factory",
    "path_loss_rate",
    "TopologyChannels",
    "topology_wire_stats",
    "topology_adversarial_stats",
    "topology_conformance_deviations",
    "sibling_delivery_correlation",
]
