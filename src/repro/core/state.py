"""Per-node protocol state of the MDST algorithm (§3.1 "Variables").

Every node keeps

* the spanning-tree variables ``root``, ``parent``, ``distance``;
* the degree bookkeeping ``dmax`` (estimate of ``deg(T)``), ``sub_max``
  (PIF feedback value: maximum tree degree within the node's subtree) and
  ``color`` (the ``color_tree`` consistency flag);
* one cached :class:`NeighborState` per neighbour, refreshed from ``MInfo``
  gossip -- this is the send/receive atomicity model: a node computes only on
  its own variables plus these cached copies.

The tree membership of an edge (``edge_status`` in the paper) and the node's
own tree degree (``deg_v``) are *derived*: an edge ``{v, u}`` is a tree edge
iff ``parent_v = u`` or the cached copy of ``parent_u`` equals ``v``.
Deriving instead of storing removes a whole class of inconsistencies the
paper has to repair explicitly.

Both classes are *slotted* plain classes rather than dataclasses: there are
O(m) :class:`NeighborState` instances in a simulation and every gossip
receipt reads and writes most of their fields, so the fixed attribute layout
(no per-instance ``__dict__``) measurably lowers the per-step constant.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..sim.messages import id_bits
from ..types import NodeId

__all__ = ["NeighborState", "MDSTState"]


class NeighborState:
    """Cached copy of one neighbour's gossiped variables."""

    __slots__ = ("root", "parent", "distance", "degree", "sub_max", "dmax",
                 "color", "heard")

    def __init__(self, root: int = 0, parent: int = 0, distance: int = 0,
                 degree: int = 0, sub_max: int = 0, dmax: int = 0,
                 color: bool = True, heard: bool = False):
        self.root = root
        self.parent = parent
        self.distance = distance
        self.degree = degree
        self.sub_max = sub_max
        self.dmax = dmax
        self.color = color
        self.heard = heard

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"NeighborState(root={self.root}, parent={self.parent}, "
                f"distance={self.distance}, degree={self.degree}, "
                f"sub_max={self.sub_max}, dmax={self.dmax}, "
                f"color={self.color}, heard={self.heard})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NeighborState):
            return NotImplemented
        return (self.root == other.root and self.parent == other.parent
                and self.distance == other.distance
                and self.degree == other.degree
                and self.sub_max == other.sub_max and self.dmax == other.dmax
                and self.color == other.color and self.heard == other.heard)


class MDSTState:
    """All protocol variables owned by one node."""

    __slots__ = ("node_id", "neighbors", "n_upper", "root", "parent",
                 "distance", "sub_max", "dmax", "color", "view")

    def __init__(self, node_id: NodeId, neighbors: Sequence[NodeId],
                 n_upper: int, root: int = 0, parent: int = 0,
                 distance: int = 0, sub_max: int = 0, dmax: int = 0,
                 color: bool = True,
                 view: Optional[Dict[NodeId, NeighborState]] = None):
        self.node_id = node_id
        self.neighbors = neighbors
        self.n_upper = n_upper
        self.root = root
        self.parent = parent
        self.distance = distance
        self.sub_max = sub_max
        self.dmax = dmax
        self.color = color
        if root == 0 and parent == 0 and node_id != 0:
            # default construction: start as own root (legal but arbitrary)
            self.root = node_id
            self.parent = node_id
        self.view = view if view else {u: NeighborState() for u in neighbors}

    # -- derived quantities -----------------------------------------------------

    def is_tree_edge(self, u: NodeId) -> bool:
        """``edge_status_v[u]`` derived from parent pointers (own + cached)."""
        view = self.view.get(u)
        if view is None:
            return False
        if self.parent == u:
            return True
        return view.heard and view.parent == self.node_id

    def tree_neighbors(self) -> list[NodeId]:
        """Neighbours connected to this node by a tree edge."""
        me = self.node_id
        parent = self.parent
        return [u for u, nv in self.view.items()
                if parent == u or (nv.heard and nv.parent == me)]

    def children(self) -> list[NodeId]:
        """Neighbours whose cached parent pointer designates this node."""
        me = self.node_id
        return [u for u, nv in self.view.items()
                if nv.heard and nv.parent == me]

    @property
    def degree(self) -> int:
        """``deg_v``: this node's degree in the current tree."""
        me = self.node_id
        parent = self.parent
        deg = 0
        for u, nv in self.view.items():
            if parent == u or (nv.heard and nv.parent == me):
                deg += 1
        return deg

    def non_tree_neighbors(self) -> list[NodeId]:
        """Neighbours joined to this node by a non-tree edge."""
        me = self.node_id
        parent = self.parent
        return [u for u, nv in self.view.items()
                if not (parent == u or (nv.heard and nv.parent == me))]

    # -- dynamic topology -------------------------------------------------------

    def neighbor_added(self, neighbors: Sequence[NodeId], u: NodeId) -> None:
        """A link to ``u`` appeared: adopt the new neighbour sequence and
        start a blank (unheard) cached view -- the edge is a non-tree edge
        until gossip establishes otherwise."""
        self.neighbors = neighbors
        self.view[u] = NeighborState()

    def neighbor_removed(self, neighbors: Sequence[NodeId], u: NodeId) -> None:
        """The link to ``u`` died: adopt the shrunk neighbour sequence and
        evict the stale cached view so no rule ever reads it again."""
        self.neighbors = neighbors
        self.view.pop(u, None)

    # -- corruption / accounting ---------------------------------------------------

    def corrupt(self, rng: np.random.Generator) -> None:
        """Overwrite every variable (own and cached) with arbitrary values."""
        pool = list(self.neighbors) + [self.node_id, int(rng.integers(-5, self.n_upper + 5))]
        self.root = int(rng.choice(pool))
        self.parent = int(rng.choice(list(self.neighbors) + [self.node_id]))
        self.distance = int(rng.integers(0, max(2, self.n_upper)))
        self.sub_max = int(rng.integers(0, max(2, self.n_upper)))
        self.dmax = int(rng.integers(0, max(2, self.n_upper)))
        self.color = bool(rng.integers(0, 2))
        for view in self.view.values():
            view.root = int(rng.choice(pool))
            view.parent = int(rng.choice(pool))
            view.distance = int(rng.integers(0, max(2, self.n_upper)))
            view.degree = int(rng.integers(0, max(2, self.n_upper)))
            view.sub_max = int(rng.integers(0, max(2, self.n_upper)))
            view.dmax = int(rng.integers(0, max(2, self.n_upper)))
            view.color = bool(rng.integers(0, 2))
            view.heard = bool(rng.integers(0, 2))

    def state_bits(self, network_size: int) -> int:
        """Memory footprint in bits: O(δ log n) in the send/receive model."""
        idbits = id_bits(network_size)
        own = 5 * idbits + 1                       # root, parent, distance, sub_max, dmax, color
        per_neighbor = 6 * idbits + 2              # cached copy + color + heard
        return own + per_neighbor * len(self.neighbors)

    def snapshot(self, degree: int) -> Dict[str, object]:
        """Protocol variables exposed to global checks and traces.

        ``degree`` is :attr:`degree`, which the node reads from its tree
        neighbours (cached while it is settled) instead of a scan.
        """
        return {
            "root": self.root,
            "parent": self.parent,
            "distance": self.distance,
            "degree": degree,
            "sub_max": self.sub_max,
            "dmax": self.dmax,
            "color": self.color,
        }
