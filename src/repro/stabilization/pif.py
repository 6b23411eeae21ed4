"""Maximum-degree module: PIF-style aggregation over the spanning tree (§3.2.3).

The MDST algorithm needs every node to know the degree ``deg(T)`` of the
*current* spanning tree.  The paper computes it with a Propagation of
Information with Feedback (PIF) scheme: in the feedback phase each node
reports to its parent the maximum tree-degree seen in its subtree; in the
propagation phase the root disseminates the global maximum back down,
piggybacked on the ``InfoMsg`` gossip.

This module provides the aggregation (:class:`MaxDegreeAggregator`) and a
standalone demonstration protocol (:class:`MaxDegreeProcess`) that runs it
over a *fixed* tree (supplied as parent pointers).  The MDST node does not
call it: :meth:`repro.core.node_algorithm.MDSTNode._update_degree_layer` is
MDST's own fused form over its live, changing tree.  It computes the same
two phases in one pass over the neighbour views, and it counts a neighbour
as a child, or reads its parent's ``dmax``, only once that neighbour's
gossip has been *heard*.  Here the views start from the fixed tree, so
there is no such gate.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from ..sim.messages import Message, message_dataclass
from ..sim.network import Network
from ..sim.node import Process
from ..types import NodeId

__all__ = ["MaxDegreeAggregator", "DegreeInfo", "MaxDegreeProcess",
           "max_degree_process_factory", "pif_legitimacy"]


class MaxDegreeAggregator:
    """Pure aggregation logic of the standalone :class:`MaxDegreeProcess`
    (MDST runs its ``heard``-gated, fused twin, ``_update_degree_layer``).

    The aggregator is fed, for each neighbour, the neighbour's advertised
    ``(parent, deg, sub_max, dmax)`` values; it recomputes the local
    ``sub_max`` (max tree-degree over the node's subtree) and ``dmax``
    (this node's current estimate of ``deg(T)``).
    """

    @staticmethod
    def sub_max(own_degree: int, node_id: NodeId,
                neighbor_parent: Mapping[NodeId, NodeId],
                neighbor_sub_max: Mapping[NodeId, int]) -> int:
        """Feedback phase: combine children's reports with the local degree."""
        best = own_degree
        for u, p in neighbor_parent.items():
            if p == node_id:  # u claims to be a child of this node
                best = max(best, neighbor_sub_max.get(u, 0))
        return best

    @staticmethod
    def dmax(is_root: bool, own_sub_max: int, parent: NodeId,
             neighbor_dmax: Mapping[NodeId, int]) -> int:
        """Propagation phase: the root publishes ``sub_max``; others copy the parent."""
        if is_root:
            return own_sub_max
        return neighbor_dmax.get(parent, own_sub_max)


@message_dataclass
class DegreeInfo(Message):
    """Gossip message of the standalone max-degree protocol."""

    parent: int
    degree: int
    sub_max: int
    dmax: int


class MaxDegreeProcess(Process):
    """Standalone max-degree computation over a fixed spanning tree.

    Parameters
    ----------
    parent_map:
        The fixed tree, as a ``node -> parent`` map (root self-parented).
        Only the entries for this node and its neighbours are consulted.
    """

    def __init__(self, node_id: NodeId, neighbors: Sequence[NodeId],
                 parent_map: Mapping[NodeId, NodeId]):
        super().__init__(node_id, neighbors)
        # A node the fixed tree does not know (a late joiner under live
        # churn) starts self-parented: the root of its own one-node
        # fragment, invisible to the aggregation until gossip says more.
        self.parent: NodeId = parent_map.get(node_id, node_id)
        self.tree_neighbors = tuple(
            u for u in self.neighbors
            if self.parent == u or parent_map.get(u) == node_id)
        self.degree: int = len(self.tree_neighbors)
        self.sub_max: int = self.degree
        self.dmax: int = self.degree
        self.view_parent: Dict[NodeId, NodeId] = {u: parent_map.get(u, u) for u in neighbors}
        self.view_sub_max: Dict[NodeId, int] = {u: 0 for u in neighbors}
        self.view_dmax: Dict[NodeId, int] = {u: 0 for u in neighbors}

    def _recompute(self) -> None:
        self.sub_max = MaxDegreeAggregator.sub_max(
            self.degree, self.node_id, self.view_parent, self.view_sub_max)
        self.dmax = MaxDegreeAggregator.dmax(
            self.parent == self.node_id, self.sub_max, self.parent, self.view_dmax)

    def on_timeout(self) -> None:
        self._recompute()
        self.broadcast(DegreeInfo(parent=self.parent, degree=self.degree,
                                  sub_max=self.sub_max, dmax=self.dmax))

    def on_message(self, sender: NodeId, message: Message) -> None:
        if not isinstance(message, DegreeInfo) or sender not in self.view_parent:
            return
        self.view_parent[sender] = message.parent
        self.view_sub_max[sender] = message.sub_max
        self.view_dmax[sender] = message.dmax
        self._recompute()

    # -- dynamic topology (live neighbour-set deltas) --------------------------

    def add_neighbor(self, u: NodeId) -> None:
        """A link to ``u`` appeared at runtime.

        The newcomer is a non-tree neighbour until its gossip claims
        otherwise (``view_parent[u] = u``), so the aggregation ignores it
        until real ``DegreeInfo`` arrives.
        """
        super().add_neighbor(u)
        self.view_parent[u] = u
        self.view_sub_max[u] = 0
        self.view_dmax[u] = 0
        self._recompute()

    def remove_neighbor(self, u: NodeId) -> None:
        """The link to ``u`` died at runtime.

        Evicts the cached aggregation views so a dead subtree can never
        again inflate ``sub_max``; a lost tree edge shrinks the local tree
        degree, and losing the parent makes this node the root of its
        surviving fragment.
        """
        super().remove_neighbor(u)
        self.view_parent.pop(u, None)
        self.view_sub_max.pop(u, None)
        self.view_dmax.pop(u, None)
        if u in self.tree_neighbors:
            self.tree_neighbors = tuple(x for x in self.tree_neighbors if x != u)
            self.degree = len(self.tree_neighbors)
        if self.parent == u:
            self.parent = self.node_id
        self._recompute()

    # -- self-stabilization support --------------------------------------------

    def corrupt(self, rng: np.random.Generator) -> None:
        """Randomise the aggregation state (the tree itself stays fixed)."""
        hi = max(3, len(self.neighbors) + 2)
        self.sub_max = int(rng.integers(0, hi))
        self.dmax = int(rng.integers(0, hi))
        for u in self.neighbors:
            self.view_sub_max[u] = int(rng.integers(0, hi))
            self.view_dmax[u] = int(rng.integers(0, hi))

    def state_bits(self, network_size: int) -> int:
        import math
        idbits = max(1, math.ceil(math.log2(max(network_size, 2)))) + 1
        return 4 * idbits + 3 * idbits * len(self.neighbors)

    def snapshot(self) -> Dict[str, object]:
        return {"parent": self.parent, "degree": self.degree,
                "sub_max": self.sub_max, "dmax": self.dmax}


def max_degree_process_factory(parent_map: Mapping[NodeId, NodeId]):
    """Factory building :class:`MaxDegreeProcess` instances over ``parent_map``."""
    def factory(node_id: NodeId, neighbors: Sequence[NodeId]) -> MaxDegreeProcess:
        return MaxDegreeProcess(node_id, neighbors, parent_map)
    return factory


def pif_legitimacy(expected_dmax: int):
    """Legitimacy predicate factory: every node's ``dmax`` equals the true value."""
    def predicate(network: Network) -> bool:
        return all(snap.get("dmax") == expected_dmax
                   for snap in network.snapshots().values())
    return predicate
