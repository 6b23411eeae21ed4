"""Legitimacy predicates of the MDST protocol (Definition 1 + §2 MDST spec).

A configuration is *legitimate* when

1. the parent pointers of all nodes form a spanning tree of the network,
   rooted at the node with the smallest identifier, with coherent distances
   (Lemmas 1-2) -- :func:`repro.stabilization.predicates.tree_coherent`,
   the standalone spanning-tree protocol's own predicate;
2. every node's ``dmax`` equals the true degree of that tree (the maximum
   degree module has stabilized);
3. the tree is a fixpoint of the improvement rule: no chain of deblocking
   swaps ending in the improvement of a maximum-degree node exists.  This
   is Fürer & Raghavachari's stopping test, which certifies
   ``deg(T) <= Δ* + 1`` (the bound of Theorem 2, proved through FR's
   theorem).

Condition 3 is :func:`repro.core.improvement.fr_witness_holds`: FR's
marking of the degree-``k - 1`` nodes that can be deblocked, run until it
reaches a maximum-degree node or stops.  It is polynomial -- at most one
pass over the non-tree edges per marking round -- and has no budget.  It is
evaluated only when the first two conditions hold.

Kernel integration: every stage accepts the pre-computed per-node snapshot
mapping so a full evaluation traverses the network exactly once (the kernel
maintains :meth:`~repro.sim.network.Network.snapshots` incrementally from
its dirty-node set and returns read-only views, so predicates can neither
pay for unchanged nodes nor corrupt the shared cache).  The predicates are
pure functions of the snapshots and the live graph, so the simulator's
:class:`~repro.sim.monitors.PredicateCache` skips unchanged configurations.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

from ..sim.network import Network
from ..stabilization.predicates import (
    dmax_agrees_with_tree,
    snapshot_tree_degree,
    tree_coherent,
    tree_edges_from_snapshots,
)
from ..types import Edge, NodeId
from .improvement import TreeIndex, fr_witness_holds

__all__ = [
    "tree_coherent",
    "degree_layer_coherent",
    "reduction_finished",
    "mdst_legitimacy",
    "make_mdst_legitimacy",
    "current_tree_edges",
    "current_tree_degree",
]

Snapshots = Mapping[NodeId, Mapping[str, object]]


def current_tree_edges(network: Network,
                       snapshots: Optional[Snapshots] = None) -> set[Edge]:
    """Tree edge set induced by the current parent pointers."""
    return tree_edges_from_snapshots(network, snapshots)


def current_tree_degree(network: Network,
                        snapshots: Optional[Snapshots] = None) -> int:
    """Degree of the currently induced tree (0 if no edges)."""
    return snapshot_tree_degree(network, snapshots)


def degree_layer_coherent(network: Network,
                          snapshots: Optional[Snapshots] = None) -> bool:
    """Condition 2: every node's ``dmax`` equals the true tree degree."""
    return dmax_agrees_with_tree(network, snapshots)


def reduction_finished(network: Network,
                       snapshots: Optional[Snapshots] = None) -> bool:
    """Condition 3: the induced tree spans the network and admits no
    improvement chain, so its degree is at most Δ* + 1."""
    edges = current_tree_edges(network, snapshots)
    if len(edges) != len(network.node_ids) - 1:
        return False
    return fr_witness_holds(TreeIndex(network.graph, edges))


def _substrate_legitimacy(network: Network,
                          snapshots: Optional[Snapshots] = None) -> bool:
    """Conditions 1-2: the spanning-tree and max-degree layers only."""
    snaps = snapshots if snapshots is not None else network.snapshots()
    return tree_coherent(network, snaps) and degree_layer_coherent(network, snaps)


def mdst_legitimacy(network: Network) -> bool:
    """Full legitimacy predicate (conditions 1-3, evaluated lazily)."""
    snaps = network.snapshots()
    return _substrate_legitimacy(network, snaps) and reduction_finished(network, snaps)


def make_mdst_legitimacy(require_reduction: bool = True) -> Callable[[Network], bool]:
    """The legitimacy predicate of a run.

    ``require_reduction=False`` yields the predicate of the spanning-tree +
    max-degree layers only, for runs with the degree-reduction layer
    disabled (``enable_reduction=False``).
    """
    return mdst_legitimacy if require_reduction else _substrate_legitimacy
