"""Network topologies: the graphs multicast distribution runs over.

The paper's channel model gives every receiver an independent loss
draw; a real multicast deployment pushes packets down a *distribution
tree* whose edges are shared by whole subtrees, so one lossy link
degrades every receiver behind it at once.  :class:`Topology` is the
substrate for that model: a networkx graph with one distinguished
``root`` (the sender), the session's receivers as leaves, and two
per-edge attributes —

* ``index`` — a stable integer identity assigned at construction, the
  key every per-(edge, block) RNG seed derives from
  (:func:`repro.topology.linkloss.cell_seed`).  Leaf edges of the
  canonical builders are indexed by receiver order, which is what
  makes a star topology's edge draws exactly one independent,
  receiver-seeded loss process per receiver;
* ``loss_scale`` — a multiplier applied to the session's scheduled
  loss rate on this edge (clamped to ``[0, 1]``), so one spec string
  can describe heterogeneous links (a hot spine over clean last-hop
  edges).

Canonical builders cover the shapes the serve layer and the test
suites exercise: ``star`` (independent last hops — the paper's
channel model and the default serve topology), ``spine`` (a 2-level
shared-spine tree whose sibling leaves have correlated delivery) and
``dualspine`` (two parallel aggregation planes, the smallest shape
where k-redundant trees are genuinely edge-disjoint).
:func:`make_topology` parses the ``--topology`` CLI spec grammar.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx

from repro.exceptions import SimulationError

__all__ = [
    "Topology",
    "star_topology",
    "spine_topology",
    "dualspine_topology",
    "make_topology",
    "TOPOLOGY_SPECS",
]

#: Spec grammar accepted by :func:`make_topology` (CLI ``--topology``).
TOPOLOGY_SPECS = ("star", "spine:<groups>[:scale,...]",
                  "dualspine:<groups>")


class Topology:
    """A rooted network graph with indexed, loss-scaled edges.

    Parameters
    ----------
    graph:
        Undirected networkx graph.  Every edge must carry an ``index``
        attribute (unique, dense from 0) and may carry ``loss_scale``
        (default 1.0) and ``weight`` (default 1.0, used by tree
        construction).
    root:
        The sender's node.
    leaves:
        Receiver identities in canonical order; each must be a node.
    name:
        Spec-like label recorded in manifests.
    """

    def __init__(self, graph: nx.Graph, root: str,
                 leaves: Sequence[str], name: str = "custom") -> None:
        if root not in graph:
            raise SimulationError(f"root {root!r} not in graph")
        if not leaves:
            raise SimulationError("need at least one leaf")
        for leaf in leaves:
            if leaf not in graph:
                raise SimulationError(f"leaf {leaf!r} not in graph")
            if leaf == root:
                raise SimulationError("root cannot be a leaf")
        if len(set(leaves)) != len(leaves):
            raise SimulationError("leaf names must be unique")
        if not nx.is_connected(graph):
            raise SimulationError("topology graph must be connected")
        indices = sorted(data.get("index", -1)
                         for _, _, data in graph.edges(data=True))
        if indices != list(range(graph.number_of_edges())):
            raise SimulationError(
                "every edge needs a unique dense 'index' attribute")
        for u, v, data in graph.edges(data=True):
            scale = data.setdefault("loss_scale", 1.0)
            if scale < 0.0:
                raise SimulationError(
                    f"loss_scale must be >= 0 on edge {u}-{v}, got {scale}")
            data.setdefault("weight", 1.0)
        self.graph = graph
        self.root = root
        self.leaves = list(leaves)
        self.name = name

    # -- edge identity -------------------------------------------------

    def edge_index(self, u: str, v: str) -> int:
        """Stable integer identity of edge ``u-v`` (order-insensitive)."""
        return self.graph.edges[u, v]["index"]

    def edge_scale(self, u: str, v: str) -> float:
        """Loss multiplier of edge ``u-v``."""
        return self.graph.edges[u, v]["loss_scale"]

    def scale_of_index(self, index: int) -> float:
        """Loss multiplier looked up by edge index."""
        return self._index_table()[index][2]

    def _index_table(self) -> Dict[int, Tuple[str, str, float]]:
        cached = getattr(self, "_edges_by_index", None)
        if cached is None:
            cached = {
                data["index"]: (u, v, data["loss_scale"])
                for u, v, data in self.graph.edges(data=True)
            }
            self._edges_by_index = cached
        return cached

    @property
    def edge_count(self) -> int:
        """Edges in the graph."""
        return self.graph.number_of_edges()

    # -- structure queries ---------------------------------------------

    def subtree_of(self, leaf: str) -> str:
        """The root's child this leaf sits behind (its adaptation group).

        The first hop of the shortest root→leaf path; for a star the
        leaf itself, for a spine the leaf's aggregation router.  This
        is the label per-subtree loss reports and the subtree-adaptive
        controller key on.
        """
        if leaf not in self.leaves:
            raise SimulationError(f"{leaf!r} is not a leaf")
        path = nx.shortest_path(self.graph, self.root, leaf, weight="weight")
        return path[1]

    def subtree_groups(self) -> Dict[str, List[str]]:
        """Group label -> leaves behind it, leaves in canonical order."""
        groups: Dict[str, List[str]] = {}
        for leaf in self.leaves:
            groups.setdefault(self.subtree_of(leaf), []).append(leaf)
        return groups

    def describe(self) -> Dict[str, object]:
        """Manifest-ready summary."""
        return {
            "name": self.name,
            "nodes": self.graph.number_of_nodes(),
            "edges": self.edge_count,
            "root": self.root,
            "leaves": len(self.leaves),
            "subtrees": len(self.subtree_groups()),
        }

    def __repr__(self) -> str:
        return (f"<Topology {self.name!r} nodes={self.graph.number_of_nodes()}"
                f" edges={self.edge_count} leaves={len(self.leaves)}>")


def _new_graph() -> Tuple[nx.Graph, List[int]]:
    """Fresh graph plus a single-cell edge-index counter."""
    return nx.Graph(), [0]


def _add_edge(graph: nx.Graph, counter: List[int], u: str, v: str,
              loss_scale: float = 1.0, weight: float = 1.0) -> None:
    graph.add_edge(u, v, index=counter[0], loss_scale=loss_scale,
                   weight=weight)
    counter[0] += 1


def star_topology(leaves: Sequence[str], root: str = "root") -> Topology:
    """Every receiver on its own last-hop edge — independent links.

    Edge ``i`` connects the root to ``leaves[i]``, so per-(edge, block)
    seeds coincide with the per-(receiver, block) cell seeds: a star
    session gives every receiver its own independent loss process.
    """
    graph, counter = _new_graph()
    graph.add_node(root)
    for leaf in leaves:
        _add_edge(graph, counter, root, leaf)
    return Topology(graph, root, leaves, name="star")


def spine_topology(leaves: Sequence[str], groups: int,
                   root: str = "root",
                   spine_scales: Optional[Sequence[float]] = None,
                   leaf_scale: float = 1.0) -> Topology:
    """A 2-level shared-spine tree: root → router_j → leaves.

    Leaves are assigned to routers contiguously (``ceil(n/groups)``
    per router).  ``spine_scales`` sets a per-router loss multiplier
    on the root→router edge (default 1.0 everywhere) — the knob that
    makes one subtree hot while its siblings stay clean, which is the
    scenario where per-subtree adaptation beats a global controller.
    Sibling leaves share their router's spine edge, so their delivery
    indicators are positively correlated by construction.
    """
    if groups < 1:
        raise SimulationError(f"need >= 1 spine group, got {groups}")
    if groups > len(leaves):
        raise SimulationError(
            f"more spine groups ({groups}) than leaves ({len(leaves)})")
    if spine_scales is not None and len(spine_scales) != groups:
        raise SimulationError(
            f"need one spine scale per group, got {len(spine_scales)}")
    graph, counter = _new_graph()
    graph.add_node(root)
    per_group = -(-len(leaves) // groups)  # ceil
    routers = [f"s{j:02d}" for j in range(groups)]
    for j, router in enumerate(routers):
        scale = spine_scales[j] if spine_scales is not None else 1.0
        _add_edge(graph, counter, root, router, loss_scale=scale)
    for i, leaf in enumerate(leaves):
        router = routers[min(i // per_group, groups - 1)]
        _add_edge(graph, counter, router, leaf, loss_scale=leaf_scale)
    return Topology(graph, root, leaves, name=f"spine:{groups}")


def dualspine_topology(leaves: Sequence[str], groups: int,
                       root: str = "root",
                       leaf_scale: float = 1.0) -> Topology:
    """Two parallel aggregation planes over the same routers.

    The root reaches every router through plane A *and* plane B
    (``root—pA—router_j`` and ``root—pB—router_j``), so two multicast
    trees can be edge-disjoint everywhere except the unavoidable
    last-hop edges — the smallest shape where ``k = 2`` redundant
    trees buy real delivery probability.  Plane B's edges carry a
    slightly higher weight so deterministic tree construction prefers
    plane A until the redundancy penalty pushes it off.
    """
    if groups < 1:
        raise SimulationError(f"need >= 1 spine group, got {groups}")
    if groups > len(leaves):
        raise SimulationError(
            f"more spine groups ({groups}) than leaves ({len(leaves)})")
    graph, counter = _new_graph()
    graph.add_node(root)
    per_group = -(-len(leaves) // groups)
    routers = [f"s{j:02d}" for j in range(groups)]
    _add_edge(graph, counter, root, "pA", weight=1.0)
    _add_edge(graph, counter, root, "pB", weight=1.001)
    for router in routers:
        _add_edge(graph, counter, "pA", router, weight=1.0)
        _add_edge(graph, counter, "pB", router, weight=1.001)
    for i, leaf in enumerate(leaves):
        router = routers[min(i // per_group, groups - 1)]
        _add_edge(graph, counter, router, leaf, loss_scale=leaf_scale)
    return Topology(graph, root, leaves, name=f"dualspine:{groups}")


def make_topology(spec: str, leaves: Sequence[str]) -> Topology:
    """Build a canonical topology from a ``--topology`` spec string.

    Grammar: ``star`` | ``spine:<groups>[:scale,...]`` |
    ``dualspine:<groups>``.  The optional scale list gives one
    ``loss_scale`` per spine edge (``spine:2:3,1`` makes subtree 0's
    spine three times as lossy as the schedule) — the heterogeneous
    shape where per-subtree adaptation pays off.
    """
    text = spec.strip().lower()
    if text == "star":
        return star_topology(leaves)
    if text.startswith("spine:"):
        parts = text.split(":")
        try:
            groups = int(parts[1])
        except (IndexError, ValueError):
            raise SimulationError(
                f"bad group count in topology spec {spec!r}")
        spine_scales: Optional[Tuple[float, ...]] = None
        if len(parts) == 3:
            try:
                spine_scales = tuple(float(scale)
                                     for scale in parts[2].split(","))
            except ValueError:
                raise SimulationError(
                    f"bad spine scale list in topology spec {spec!r}")
        elif len(parts) > 3:
            raise SimulationError(f"unknown topology spec {spec!r}")
        topology = spine_topology(leaves, groups, spine_scales=spine_scales)
        topology.name = text
        return topology
    if text.startswith("dualspine:"):
        try:
            groups = int(text[len("dualspine:"):])
        except ValueError:
            raise SimulationError(
                f"bad group count in topology spec {spec!r}")
        return dualspine_topology(leaves, groups)
    raise SimulationError(
        f"unknown topology spec {spec!r} "
        f"(known: {', '.join(TOPOLOGY_SPECS)})")
