"""Global configuration predicates (the specification side of Definition 1).

These functions examine a *global snapshot* of a network (the per-node
variable dictionaries returned by :meth:`repro.sim.network.Network.snapshots`)
and decide structural properties: does a unique root exist, do the parent
pointers form a spanning tree, are distances coherent, is the advertised
``dmax`` equal to the true tree degree.

They are used to build legitimacy predicates for the simulator and as oracle
checks in the test-suite.  They are *not* available to the nodes themselves
(nodes only see one-hop information); keeping them separate makes the
local/global distinction explicit.

All functions are pure functions of the snapshot mapping (plus static
topology), which is the contract the kernel's incremental verification
relies on: :meth:`repro.sim.network.Network.snapshots` is cached keyed on
the configuration version, and every function here accepts the cached
mapping via its ``snapshots`` parameter so a composite predicate traverses
the network exactly once per changed configuration.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional

from ..sim.network import Network
from ..types import Edge, NodeId, canonical_edge

__all__ = [
    "extract_parent_map",
    "tree_edges_from_snapshots",
    "has_unique_root",
    "parent_map_is_spanning_tree",
    "distances_coherent",
    "tree_coherent",
    "dmax_agrees_with_tree",
    "snapshot_tree_degree",
]


def extract_parent_map(snapshots: Mapping[NodeId, Mapping[str, object]]) -> Dict[NodeId, NodeId]:
    """Pull the ``parent`` field out of per-node snapshots."""
    return {v: int(snap.get("parent", v)) for v, snap in snapshots.items()}


def tree_edges_from_snapshots(network: Network,
                              snapshots: Optional[Mapping[NodeId, Mapping[str, object]]] = None
                              ) -> set[Edge]:
    """Tree edge set induced by parent pointers (only real graph edges count)."""
    snaps = snapshots if snapshots is not None else network.snapshots()
    edges: set[Edge] = set()
    for v, snap in snaps.items():
        p = int(snap.get("parent", v))
        if p != v and network.has_edge(v, p):
            edges.add(canonical_edge(v, p))
    return edges


def has_unique_root(snapshots: Mapping[NodeId, Mapping[str, object]]) -> bool:
    """All nodes advertise the same root, and exactly one node is self-parented."""
    roots = {snap.get("root") for snap in snapshots.values()}
    if len(roots) != 1:
        return False
    self_parented = [v for v, snap in snapshots.items() if snap.get("parent") == v]
    return len(self_parented) == 1


def parent_map_is_spanning_tree(network: Network,
                                snapshots: Optional[Mapping[NodeId, Mapping[str, object]]] = None
                                ) -> bool:
    """Parent pointers form a spanning tree of the communication graph."""
    snaps = snapshots if snapshots is not None else network.snapshots()
    parent = extract_parent_map(snaps)
    roots = [v for v, p in parent.items() if p == v]
    if len(roots) != 1:
        return False
    root = roots[0]
    n = len(network.node_ids)
    for v, p in parent.items():
        if v != root and not network.has_edge(v, p):
            return False
    for v in network.node_ids:
        cur, hops = v, 0
        while cur != root:
            cur = parent[cur]
            hops += 1
            if hops > n:
                return False
    return True


def distances_coherent(snapshots: Mapping[NodeId, Mapping[str, object]]) -> bool:
    """Every node's distance equals its parent's distance plus one (root: 0)."""
    for v, snap in snapshots.items():
        p = snap.get("parent")
        d = snap.get("distance")
        if p == v:
            if d != 0:
                return False
        else:
            pd = snapshots.get(p, {}).get("distance")  # type: ignore[arg-type]
            if pd is None or d != pd + 1:
                return False
    return True


def tree_coherent(network: Network,
                  snapshots: Optional[Mapping[NodeId, Mapping[str, object]]] = None
                  ) -> bool:
    """The spanning-tree layer is legitimate: every node agrees on the
    minimum identifier as root, that node is the one self-parented node,
    parent pointers form a spanning tree and distances are coherent.

    Condition 1 of the MDST legitimacy predicate and the whole predicate
    of the standalone spanning-tree protocol.
    """
    snaps = snapshots if snapshots is not None else network.snapshots()
    if not has_unique_root(snaps):
        return False
    min_id = min(network.node_ids)
    if snaps[min_id].get("parent") != min_id:
        return False
    if any(snap.get("root") != min_id for snap in snaps.values()):
        return False
    if not parent_map_is_spanning_tree(network, snaps):
        return False
    return distances_coherent(snaps)


def snapshot_tree_degree(network: Network,
                         snapshots: Optional[Mapping[NodeId, Mapping[str, object]]] = None
                         ) -> int:
    """Degree of the tree induced by the parent pointers in the snapshots."""
    edges = tree_edges_from_snapshots(network, snapshots)
    counts: Dict[NodeId, int] = {}
    for a, b in edges:
        counts[a] = counts.get(a, 0) + 1
        counts[b] = counts.get(b, 0) + 1
    return max(counts.values()) if counts else 0


def dmax_agrees_with_tree(network: Network,
                          snapshots: Optional[Mapping[NodeId, Mapping[str, object]]] = None
                          ) -> bool:
    """Every node's ``dmax`` equals the true degree of the induced tree."""
    snaps = snapshots if snapshots is not None else network.snapshots()
    true_degree = snapshot_tree_degree(network, snaps)
    return all(snap.get("dmax") == true_degree for snap in snaps.values())
