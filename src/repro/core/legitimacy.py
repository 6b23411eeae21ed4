"""Legitimacy predicates of the MDST protocol (Definition 1 + §2 MDST spec).

A configuration is *legitimate* when

1. the parent pointers of all nodes form a spanning tree of the network,
   rooted at the node with the smallest identifier, with coherent distances
   (Lemmas 1-2);
2. every node's ``dmax`` equals the true degree of that tree (the maximum
   degree module has stabilized);
3. the tree is a fixpoint of the improvement rule: no direct improvement of a
   maximum-degree node and no deblocking chain leading to one exists
   (Theorem 2: such a tree has degree at most Δ* + 1).

The first two conditions are cheap; the third calls the chain planner of
:mod:`repro.core.improvement` and is therefore only evaluated when the first
two hold.

Condition 3 is checked by a *bounded* search (``max_plan_nodes=2000``), and
the bound is hit: on the cold synchronous start of ``erdos_renyi_sparse``
n=16 (graph seeds 0-3) every final fixpoint verdict comes from an exhausted
search.  Legitimacy thus means "no improvement chain found within the
budget".  The Δ*+1 bound of the trees reached is checked separately against
:func:`repro.baselines.exact_mdst_degree` where the instances are small
enough.

Kernel integration: every stage accepts the pre-computed per-node snapshot
mapping so a full evaluation traverses the network exactly once (the kernel
maintains :meth:`~repro.sim.network.Network.snapshots` incrementally from
its dirty-node set and returns read-only views, so predicates can neither
pay for unchanged nodes nor corrupt the shared cache).  The predicate built by :func:`make_mdst_legitimacy`
additionally memoizes the expensive condition 3 on the induced tree edge
set: the planner verdict is a pure function of ``(graph, tree_edges)``, and
during an execution the induced tree changes far more rarely than the
gossip-churned node states, so most rounds resolve the fixpoint test with a
set lookup.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, Mapping, Optional

import networkx as nx

from ..sim.network import Network
from ..stabilization.predicates import (
    distances_coherent,
    dmax_agrees_with_tree,
    has_unique_root,
    parent_map_is_spanning_tree,
    snapshot_tree_degree,
    tree_edges_from_snapshots,
)
from ..types import Edge, NodeId
from .improvement import improvement_possible

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

#: Size bound of the per-predicate tree-fixpoint memo (distinct trees seen
#: during one run; cleared wholesale when exceeded, which never happens in
#: the experiment suite).
_REDUCTION_MEMO_LIMIT = 512


def current_tree_edges(network: Network,
                       snapshots: Optional[Snapshots] = None) -> set[Edge]:
    """Tree edge set induced by the current parent pointers."""
    return tree_edges_from_snapshots(network, snapshots)


def current_tree_degree(network: Network,
                        snapshots: Optional[Snapshots] = None) -> int:
    """Degree of the currently induced tree (0 if no edges)."""
    return snapshot_tree_degree(network, snapshots)


def tree_coherent(network: Network, snapshots: Optional[Snapshots] = None) -> bool:
    """Condition 1: unique min-id root, spanning tree, coherent distances."""
    snaps = snapshots if snapshots is not None else network.snapshots()
    if not has_unique_root(snaps):
        return False
    min_id = min(network.node_ids)
    if any(snap.get("root") != min_id for snap in snaps.values()):
        return False
    if not parent_map_is_spanning_tree(network, snaps):
        return False
    return distances_coherent(snaps)


def degree_layer_coherent(network: Network,
                          snapshots: Optional[Snapshots] = None) -> bool:
    """Condition 2: every node's ``dmax`` equals the true tree degree."""
    return dmax_agrees_with_tree(network, snapshots)


def _reduction_fixpoint(network: Network, edges: "set[Edge]") -> bool:
    """Condition 3 core: ``edges`` spans the network and is an
    improvement-rule fixpoint.  The single home of the condition-3
    semantics; both :func:`reduction_finished` and the memoizing predicate
    of :func:`make_mdst_legitimacy` delegate here."""
    if len(edges) != len(network.node_ids) - 1:
        return False
    return not improvement_possible(network.graph, edges)


def reduction_finished(network: Network,
                       snapshots: Optional[Snapshots] = None) -> bool:
    """Condition 3: the induced tree admits no further improvement chain."""
    return _reduction_fixpoint(network, current_tree_edges(network, snapshots))


def mdst_legitimacy(network: Network) -> bool:
    """Full legitimacy predicate (conditions 1-3, evaluated lazily)."""
    snaps = network.snapshots()
    if not tree_coherent(network, snaps):
        return False
    if not degree_layer_coherent(network, snaps):
        return False
    return reduction_finished(network, snaps)


def make_mdst_legitimacy(require_reduction: bool = True,
                         require_degree_layer: bool = True
                         ) -> Callable[[Network], bool]:
    """Factory producing restricted legitimacy predicates for ablations.

    ``require_reduction=False`` yields the predicate of the spanning-tree +
    max-degree layers only (used to time the substrate in isolation).

    The returned predicate is a pure function of the network's per-node
    snapshots (and the live graph), so it is safe to wrap in the
    simulator's :class:`~repro.sim.monitors.PredicateCache`; internally it
    also memoizes the improvement-rule fixpoint test per induced tree edge
    set, which skips the chain planner whenever the tree shape was already
    judged -- the verdicts themselves are unchanged.  The memo is held per
    graph (weakly, so graphs are not kept alive), making one predicate
    instance safe to reuse across networks; memo entries additionally key
    on the network's :attr:`~repro.sim.network.Network.topology_version`,
    because under live churn the same graph *object* mutates in place and a
    fixpoint verdict for one topology says nothing about the next.
    """
    memo_by_graph: "weakref.WeakKeyDictionary[nx.Graph, Dict[tuple, bool]]" = \
        weakref.WeakKeyDictionary()

    def predicate(network: Network) -> bool:
        snaps = network.snapshots()
        if not tree_coherent(network, snaps):
            return False
        if require_degree_layer and not degree_layer_coherent(network, snaps):
            return False
        if require_reduction:
            edges = current_tree_edges(network, snaps)
            reduction_memo = memo_by_graph.setdefault(network.graph, {})
            key = (network.topology_version, frozenset(edges))
            verdict = reduction_memo.get(key)
            if verdict is None:
                if len(reduction_memo) >= _REDUCTION_MEMO_LIMIT:
                    reduction_memo.clear()
                verdict = _reduction_fixpoint(network, edges)
                reduction_memo[key] = verdict
            if not verdict:
                return False
        return True
    return predicate
