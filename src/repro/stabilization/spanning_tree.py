"""Self-stabilizing spanning-tree module (§3.2.1 of the paper).

Each node maintains three variables -- the identifier of the root it
currently believes in (``root``), a parent pointer (``parent``) and its
distance to that root (``distance``) -- and gossips them to its neighbours
via periodic ``STInfo`` messages (the ``InfoMsg`` of the paper, restricted to
the spanning-tree fields).  Two correction rules drive stabilization:

``R1 (correction parent)``
    If a neighbour advertises a smaller root, adopt it (and that neighbour
    becomes the parent).  Ties are broken towards the smallest neighbour id,
    matching the paper's ``argmin`` choice.

``R2 (correction root)``
    If the local state is incoherent -- the parent is not a neighbour, the
    parent no longer advertises the same root, the node claims to be a root
    without using its own identifier, or the distance has grown past the
    bound ``n_upper`` -- the node resets and becomes its own root.

``R3 (distance repair)``
    If the state is otherwise coherent but the distance does not equal the
    parent's advertised distance plus one, only the distance is repaired.

The paper folds R3 into R2 (any incoherence triggers a full reset).  We keep
the gentler distance-repair rule, plus an explicit distance bound ``n_upper``
(an upper bound on the network size known to every node), because the
min-root rule alone cannot evict a *fake* root identifier that no live node
owns: such an identifier can otherwise chase its own tail around a cycle
forever (the classical count-to-infinity behaviour).  With the bound, the
distance of any region believing in a fake root grows by at least one per
traversal and exceeds ``n_upper`` after O(n) rounds, forcing a reset.  This
is the standard Dolev–Israeli–Moran-style refinement, listed among the
engineering substitutions in docs/architecture.md.

The rules and their predicates live once, in :class:`TreeRules`: the
standalone :class:`SpanningTreeProcess` below and the MDST node
(:class:`repro.core.node_algorithm.MDSTNode`) both subclass it.  The
resulting tree is a BFS-like spanning tree rooted at the node with the
smallest identifier, exactly what the degree-reduction layer of the MDST
algorithm builds upon.  Its global check is
:func:`repro.stabilization.predicates.tree_coherent`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from ..sim.messages import Message, id_bits, message_dataclass
from ..sim.node import Process
from ..types import NodeId

__all__ = ["STInfo", "TreeVars", "NeighborView", "TreeRules",
           "SpanningTreeProcess", "spanning_tree_process_factory"]


@message_dataclass
class STInfo(Message):
    """Gossip message carrying the spanning-tree variables of the sender."""

    root: int
    parent: int
    distance: int


@dataclass
class NeighborView:
    """Cached copy of a neighbour's spanning-tree variables (send/receive model)."""

    root: int
    parent: int
    distance: int
    heard: bool = False  # whether at least one gossip message has been received


@dataclass
class TreeVars:
    """The three spanning-tree variables of one node, plus its neighbour views."""

    root: int
    parent: int
    distance: int
    view: Dict[NodeId, NeighborView]


class TreeRules(Process):
    """Rules R1-R3 and the local tree predicates of §3.1.

    A subclass keeps its variables in ``self.s``: ``root``, ``parent``,
    ``distance`` and ``view``, which maps each neighbour to its cached copy
    (``root``, ``distance``, ``heard``).  ``n_upper`` bounds distances.
    :meth:`repro.sim.array_kernel.ArrayKernel.refresh` is the vectorized
    twin of :meth:`_apply_tree_rules`.

    Parameters
    ----------
    node_id, neighbors:
        Standard :class:`~repro.sim.node.Process` arguments.
    n_upper:
        Upper bound on the network size, used to bound distances.  Defaults
        to a loose constant when not provided; experiments always provide the
        exact ``n`` (any upper bound preserves correctness, a tight one
        improves convergence time).
    """

    __slots__ = ()

    def __init__(self, node_id: NodeId, neighbors: Sequence[NodeId],
                 n_upper: int | None = None):
        super().__init__(node_id, neighbors)
        self.n_upper = int(n_upper) if n_upper is not None else 1 << 16

    # -- predicates (local, §3.1) ----------------------------------------------

    def _better_parent(self) -> bool:
        root = self.s.root
        for v in self.s.view.values():
            if v.heard and v.root < root:
                return True
        return False

    def _coherent_parent(self) -> bool:
        st = self.s
        if st.root > self.node_id:
            # our own identifier would be a better root: corrupted value
            return False
        if st.parent == self.node_id:
            return st.root == self.node_id and st.distance == 0
        if st.parent not in st.view:
            return False
        pv = st.view[st.parent]
        return (not pv.heard) or pv.root == st.root

    def _coherent_distance(self) -> bool:
        st = self.s
        if st.distance >= self.n_upper:
            return False
        if st.parent == self.node_id:
            return st.distance == 0
        pv = st.view.get(st.parent)
        if pv is None:
            return False
        return (not pv.heard) or st.distance == pv.distance + 1

    def _new_root_candidate(self) -> bool:
        return not self._coherent_parent() or self.s.distance >= self.n_upper

    def tree_stabilized(self) -> bool:
        """Paper predicate ``tree_stabilized(v)``."""
        return (not self._better_parent() and not self._new_root_candidate()
                and self._coherent_distance())

    # -- rules -----------------------------------------------------------------

    def _create_new_root(self) -> None:
        self.s.root = self.node_id
        self.s.parent = self.node_id
        self.s.distance = 0

    def _apply_tree_rules(self) -> None:
        """Apply R2, then R1, then R3 (the paper's rule order).

        R1 and R3 apply only to a node that is no new-root candidate.  After
        R2 that always holds, so ``_new_root_candidate()`` is evaluated once.
        If R2 did not fire the node was no candidate and nothing changed;
        if it did, ``root = parent = self`` and ``distance = 0 < n_upper``
        (``n_upper >= 1``; :class:`~repro.core.protocol.MDSTConfig` enforces
        ``>= 2``).  R1 then adopts a heard neighbour's strictly smaller root
        (so ``root < self``) with the parent's root and a distance below
        ``n_upper`` -- again no candidate.  This is the argument
        :meth:`repro.sim.array_kernel.ArrayKernel.refresh` relies on.
        """
        st = self.s
        if self._new_root_candidate():                                   # R2
            self._create_new_root()
        if self._better_parent():                                        # R1
            candidates = [u for u, v in st.view.items()
                          if v.heard and v.root < st.root and v.distance + 1 < self.n_upper]
            if candidates:
                best_root = min(st.view[u].root for u in candidates)
                best = min(u for u in candidates if st.view[u].root == best_root)
                st.root = st.view[best].root
                st.parent = best
                st.distance = st.view[best].distance + 1
        if not self._coherent_distance():                                # R3
            if st.parent == self.node_id:
                st.distance = 0
            else:
                pv = st.view.get(st.parent)
                if pv is not None and pv.heard:
                    st.distance = pv.distance + 1
            if st.distance >= self.n_upper:
                self._create_new_root()


class SpanningTreeProcess(TreeRules):
    """Standalone self-stabilizing spanning-tree protocol (:class:`TreeRules`
    plus ``STInfo`` gossip)."""

    def __init__(self, node_id: NodeId, neighbors: Sequence[NodeId],
                 n_upper: int | None = None):
        super().__init__(node_id, neighbors, n_upper)
        self.s = TreeVars(root=node_id, parent=node_id, distance=0, view={
            u: NeighborView(root=u, parent=u, distance=0) for u in self.neighbors
        })

    # -- Process hooks -----------------------------------------------------------

    def on_timeout(self) -> None:
        self._apply_tree_rules()
        s = self.s
        self.broadcast(STInfo(root=s.root, parent=s.parent, distance=s.distance))

    def on_message(self, sender: NodeId, message: Message) -> None:
        if not isinstance(message, STInfo):
            return  # garbage / foreign message: ignore (and thereby flush)
        view = self.s.view.get(sender)
        if view is None:
            return
        view.root = message.root
        view.parent = message.parent
        view.distance = message.distance
        view.heard = True
        self._apply_tree_rules()

    # -- dynamic topology (live neighbour-set deltas) ------------------------------

    def add_neighbor(self, u: NodeId) -> None:
        """A link to ``u`` appeared at runtime.

        The new neighbour starts as an unheard view (its defaults are never
        consulted before its first gossip message arrives); rules R1-R3
        pick the edge up through the normal correction machinery.
        """
        super().add_neighbor(u)
        self.s.view[u] = NeighborView(root=u, parent=u, distance=0)
        self._apply_tree_rules()

    def remove_neighbor(self, u: NodeId) -> None:
        """The link to ``u`` died at runtime.

        Evicts the stale cached :class:`NeighborView` so ``u`` can never
        again win rule R1 or anchor a distance; if ``u`` was our parent the
        tree edge is gone, so we reset to our own root (rule R2's premise
        made explicit) and let R1 re-attach us through gossip.
        """
        super().remove_neighbor(u)
        lost_parent = self.s.parent == u
        self.s.view.pop(u, None)
        if lost_parent:
            self._create_new_root()
        self._apply_tree_rules()

    # -- self-stabilization support ----------------------------------------------

    def corrupt(self, rng: np.random.Generator) -> None:
        """Overwrite every protocol variable with arbitrary values."""
        s = self.s
        ids = list(self.neighbors) + [self.node_id, int(rng.integers(-5, 100))]
        s.root = int(rng.choice(ids))
        s.parent = int(rng.choice(list(self.neighbors) + [self.node_id]))
        s.distance = int(rng.integers(0, max(2, self.n_upper)))
        for view in s.view.values():
            view.root = int(rng.choice(ids))
            view.parent = int(rng.choice(ids))
            view.distance = int(rng.integers(0, max(2, self.n_upper)))
            view.heard = bool(rng.integers(0, 2))

    def state_bits(self, network_size: int) -> int:
        """O(δ log n): own variables plus one cached copy per neighbour."""
        idbits = id_bits(network_size)
        return 3 * idbits + (3 * idbits + 1) * len(self.neighbors)

    def snapshot(self) -> Dict[str, object]:
        s = self.s
        return {"root": s.root, "parent": s.parent, "distance": s.distance}


def spanning_tree_process_factory(n_upper: int | None = None):
    """Factory suitable for :class:`repro.sim.network.Network` construction."""
    def factory(node_id: NodeId, neighbors: Sequence[NodeId]) -> SpanningTreeProcess:
        return SpanningTreeProcess(node_id, neighbors, n_upper=n_upper)
    return factory
