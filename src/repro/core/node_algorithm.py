"""The self-stabilizing MDST algorithm at a single node (Figures 1-3).

The :class:`MDSTNode` composes the four modules described in §3.2 of the
paper:

1. **Spanning-tree module** -- rules R1 (adopt a smaller root) and R2 (reset
   on incoherence), plus the gentle distance-repair rule R3 and the distance
   bound ``n_upper``, inherited from
   :class:`repro.stabilization.spanning_tree.TreeRules` (the substrate's own
   implementation, run over ``self.s``).
2. **Maximum-degree module** -- the PIF aggregation (``sub_max`` up the tree,
   ``dmax`` down the tree) piggybacked on the ``MInfo`` gossip, and the
   ``color`` flag marking local ``dmax`` consistency.
3. **Fundamental-cycle detection** -- for each non-tree edge whose smaller
   endpoint is this node, a DFS ``Search`` token walks tree edges until it
   reaches the other endpoint; the token carries the cycle path and the
   degrees of its nodes.
4. **Degree reduction** -- ``Action_on_Cycle`` evaluates the improvement
   condition (Eq. 1) when a search completes; ``Improve`` launches a
   ``Remove`` message along the cycle which deletes the chosen tree edge,
   re-orients the cycle segment that switched sides (``Remove`` with
   ``reversing=True`` or ``Back``) and finally adopts the new edge;
   ``Deblock`` floods a request to reduce the degree of a blocking node.

Choreography of an improvement (interpretation of Figures 2 and 5)
------------------------------------------------------------------
Let ``e = {x, y}`` be the non-tree edge (``y`` initiated the search, ``x`` ran
``Action_on_Cycle``), ``P = [y, n1, ..., nk, x]`` the cycle and ``{w, z}`` the
tree edge to delete.  ``x`` sends ``Remove`` to ``y`` across ``e``; the message
travels along ``P``.  When it reaches the first endpoint of ``{w, z}`` the
guard is re-checked (degree unchanged, edge still in the tree); on failure the
message is dropped and nothing has changed.  On success the deletion is
performed by the *child* endpoint ``c`` (the one whose parent is the other),
because tree membership is derived from parent pointers.  Two cases follow:

* the child side faces ``x``: the ``Remove`` continues with
  ``reversing=True``; every node up to ``x`` re-points its parent to the next
  node of ``P`` and ``x`` finally adopts ``parent_x = y`` (the paper's
  ``source_remove`` branch);
* the child side faces ``y``: a ``Back`` message retraces the already
  traversed prefix of ``P``; every node re-points its parent to the previous
  node of ``P`` and ``y`` finally adopts ``parent_y = x``.

Distances along the re-oriented segment are repaired by the spanning-tree
layer's rule R3 from subsequent gossip (the ``UpdateDist`` message of the
paper is therefore not required for correctness; see "Engineering
substitutions" in docs/architecture.md).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..sim.messages import Message
from ..stabilization.spanning_tree import TreeRules
from ..types import NodeId
from .messages import Back, Deblock, MInfo, Remove, Reverse, Search, UpdateDist
from .state import MDSTState, NeighborState

__all__ = ["MDSTNode", "mdst_node_factory"]


class MDSTNode(TreeRules):
    """One processor running the full self-stabilizing MDST algorithm.

    Parameters
    ----------
    node_id, neighbors:
        Standard :class:`~repro.sim.node.Process` arguments.
    n_upper:
        Upper bound on the network size (distance bound of the tree layer).
    search_period:
        A node initiates at most one spontaneous cycle search every
        ``search_period`` of its own timeout steps (throttles the DFS load).
    deblock_cooldown:
        Minimum number of own steps between two processings of a ``Deblock``
        wave for the same blocking node (throttles flooding).
    enable_reduction:
        When ``False`` the node only runs the spanning-tree and max-degree
        layers (used by ablation benchmarks).
    """

    __slots__ = ("n_upper", "search_period", "deblock_cooldown",
                 "enable_reduction", "_jitter", "s", "_search_cursor",
                 "_timeout_count", "_deblock_seen", "stats",
                 "_gossip_sig", "_gossip_msg", "_settled", "_stab", "_tree")

    def __init__(self, node_id: NodeId, neighbors: Sequence[NodeId],
                 n_upper: int | None = None,
                 search_period: int = 3,
                 deblock_cooldown: int = 30,
                 enable_reduction: bool = True):
        super().__init__(node_id, neighbors, n_upper)
        self.search_period = max(1, int(search_period))
        self.deblock_cooldown = max(1, int(deblock_cooldown))
        self.enable_reduction = enable_reduction
        # Per-node deterministic jitter stream used to decide when to start a
        # spontaneous cycle search.  A perfectly synchronous daemon would
        # otherwise keep symmetric nodes in lockstep and concurrent
        # improvements could invalidate each other forever; the asynchronous
        # model of the paper provides this asymmetry for free, the jitter
        # reintroduces it under the synchronous scheduler (see "Engineering
        # substitutions" in docs/architecture.md).
        self._jitter = np.random.default_rng((node_id * 2654435761 + 97) % (2**31 - 1))
        self.s = self._make_state()
        self.s.root = node_id
        self.s.parent = node_id
        self.s.distance = 0
        # Round-robin pointer over the node's non-tree edges for search initiation.
        self._search_cursor = 0
        self._timeout_count = 0
        self._deblock_seen: Dict[int, int] = {}
        # Interned gossip payload: the (immutable) MInfo of the last gossip
        # and the variable tuple it was built from.  While the gossiped
        # variables are unchanged the same message object is re-broadcast,
        # avoiding one frozen-dataclass allocation (and one size-accounting
        # pass) per node per round in stable phases.
        self._gossip_sig: Optional[Tuple[int, int, int, int, int, int, bool]] = None
        self._gossip_msg: Optional[MInfo] = None
        # Whether the node's state is a fixpoint of ``_refresh`` over its
        # current view (see ``_refresh``).  Every write of a pass input
        # outside the pass clears it: the re-orientation and recolouring
        # steps of an improvement, ``UpdateDist``, ``corrupt``,
        # ``note_state_write``.
        self._settled = False
        # ``locally_stabilized()`` and the tree neighbours of a settled
        # node, filled on first use and dropped by ``_refresh``.
        self._stab: Optional[bool] = None
        self._tree: Optional[Tuple[NodeId, ...]] = None
        # Counters exposed to the analysis layer (not protocol state).
        self.stats = {
            "searches_initiated": 0,
            "actions_on_cycle": 0,
            "improvements_started": 0,
            "removals_performed": 0,
            "removals_aborted": 0,
            "deblocks_broadcast": 0,
            "attachments": 0,
        }

    def _make_state(self) -> MDSTState:
        """State-storage hook: backends override to supply column-backed
        state without first paying for a throwaway per-object one."""
        return MDSTState(node_id=self.node_id, neighbors=self.neighbors,
                         n_upper=self.n_upper)

    # ======================================================================
    # Maximum-degree layer (PIF aggregation + color)
    # ======================================================================

    def _update_degree_layer(self) -> None:
        # One fused pass over the neighbour views computes the node's tree
        # degree and the maximum ``sub_max`` among its children (the two
        # quantities the PIF feedback aggregates); semantics are identical
        # to deriving them separately, just without the intermediate lists.
        st = self.s
        me = self.node_id
        parent = st.parent
        degree = 0
        child_max: Optional[int] = None
        for u, nv in st.view.items():
            if nv.heard and nv.parent == me:
                degree += 1
                if child_max is None or nv.sub_max > child_max:
                    child_max = nv.sub_max
            elif parent == u:
                degree += 1
        st.sub_max = degree if child_max is None or degree > child_max else child_max
        if parent == me:
            st.dmax = st.sub_max
        else:
            pv = st.view.get(parent)
            st.dmax = pv.dmax if pv is not None and pv.heard else st.sub_max
        st.color = self._degree_stabilized()

    def _degree_stabilized(self) -> bool:
        """Paper predicate ``degree_stabilized(v)``: neighbourhood agrees on dmax."""
        dmax = self.s.dmax
        for v in self.s.view.values():
            if v.heard and v.dmax != dmax:
                return False
        return True

    def locally_stabilized(self) -> bool:
        """Paper predicate ``locally_stabilized(v)`` gating the reduction layer.

        A settled node answers from its cache: nothing the predicate reads
        has been written since the pass that settled it.
        """
        if self._settled:
            stab = self._stab
            if stab is None:
                stab = self._stab = self._locally_stabilized()
            return stab
        return self._locally_stabilized()

    def _locally_stabilized(self) -> bool:
        """``locally_stabilized(v)`` over the current state.

        The paper's ``tree_stabilized() and color and degree_stabilized()
        and color_stabilized()``, fused: the scalar clauses (own color,
        coherent parent and distance) are checked once, then one pass over
        the view rejects any heard neighbour with a smaller root, another
        ``dmax`` or another color.  The predicate is pure, so the fused form
        returns the same boolean; ``ArrayMDSTNode.locally_stabilized`` is
        its vectorized twin.
        """
        st = self.s
        color = st.color
        if not color:
            return False
        me = self.node_id
        root = st.root
        d = st.distance
        if d >= self.n_upper or root > me:
            return False
        parent = st.parent
        if parent == me:
            if root != me or d != 0:
                return False
        else:
            pv = st.view.get(parent)
            if pv is None:
                return False
            if pv.heard and (pv.root != root or d != pv.distance + 1):
                return False
        dmax = st.dmax
        for v in st.view.values():
            if v.heard and (v.root < root or v.dmax != dmax or v.color != color):
                return False
        return True

    def _tree_neighbors(self) -> Sequence[NodeId]:
        """``s.tree_neighbors()``, cached while the node is settled."""
        if self._settled:
            tree = self._tree
            if tree is None:
                tree = self._tree = tuple(self.s.tree_neighbors())
            return tree
        return self.s.tree_neighbors()

    # ======================================================================
    # Gossip
    # ======================================================================

    def _refresh(self) -> None:
        """Re-evaluate all layers after any state or view change.

        A pass that writes nothing found a fixpoint: the node is then
        *settled*, and ``on_timeout`` and an ``MInfo`` that repeats its
        view row skip the pass.  The flag comes from comparing the state
        before and after the pass, not from which rules fired: a pass that
        writes something (R3's distance overflow, say) may not be idempotent.
        It holds until a step writes an input of the pass; a step that
        writes nothing, such as a Search forward, keeps it.  The pass drops
        the cached predicate and tree neighbours, whose inputs it may have
        changed (the view row an ``MInfo`` wrote, say).
        """
        st = self.s
        before = (st.root, st.parent, st.distance, st.sub_max, st.dmax,
                  st.color)
        self._apply_tree_rules()
        self._update_degree_layer()
        self._stab = self._tree = None
        self._settled = before == (st.root, st.parent, st.distance,
                                   st.sub_max, st.dmax, st.color)

    def _gossip(self) -> None:
        st = self.s
        # ``deg_v`` from the tree neighbours, cached while the node is
        # settled, instead of a scan of the view.
        sig = (st.root, st.parent, st.distance, len(self._tree_neighbors()),
               st.sub_max, st.dmax, st.color)
        msg = self._gossip_msg
        if msg is None or sig != self._gossip_sig:
            msg = MInfo(root=sig[0], parent=sig[1], distance=sig[2],
                        degree=sig[3], sub_max=sig[4], dmax=sig[5],
                        color=sig[6])
            self._gossip_sig = sig
            self._gossip_msg = msg
        self.broadcast(msg)

    def on_timeout(self) -> None:
        self._timeout_count += 1
        if not self._settled:
            self._refresh()
        self._gossip()
        if self.enable_reduction:
            self._maybe_initiate_search()

    def on_message(self, sender: NodeId, message: Message) -> None:
        if sender not in self.s.view:
            return
        if isinstance(message, MInfo):
            self._handle_info(sender, message)
            return
        # A control handler that writes an input of ``_refresh`` clears
        # ``_settled`` at the write; the others keep the flag.
        if not self.enable_reduction:
            return
        if isinstance(message, Search):
            self._handle_search(sender, message)
        elif isinstance(message, Remove):
            self._handle_remove(sender, message)
        elif isinstance(message, Back):
            self._handle_back(sender, message)
        elif isinstance(message, Deblock):
            self._handle_deblock(sender, message)
        elif isinstance(message, Reverse):
            self._handle_reverse(sender, message)
        elif isinstance(message, UpdateDist):
            self._handle_update_dist(sender, message)
        # anything else (garbage) is ignored and thereby flushed

    def _handle_info(self, sender: NodeId, msg: MInfo) -> None:
        view = self.s.view[sender]
        if (self._settled and view.heard and view.root == msg.root
                and view.parent == msg.parent
                and view.distance == msg.distance
                and view.degree == msg.degree
                and view.sub_max == msg.sub_max and view.dmax == msg.dmax
                and view.color == msg.color):
            # Repeated gossip at a fixpoint: the row already holds it, so
            # the pass would write nothing.
            return
        view.root = msg.root
        view.parent = msg.parent
        view.distance = msg.distance
        view.degree = msg.degree
        view.sub_max = msg.sub_max
        view.dmax = msg.dmax
        view.color = msg.color
        view.heard = True
        self._refresh()

    # ======================================================================
    # Fundamental-cycle detection (Figure 3)
    # ======================================================================

    def _maybe_initiate_search(self) -> None:
        """Spontaneously start a cycle search for one of our non-tree edges.

        On average one search every ``search_period`` timeouts, with per-node
        jitter so symmetric nodes do not stay synchronized forever.
        """
        if self._jitter.random() >= 1.0 / self.search_period:
            return
        if not self.locally_stabilized() or self.s.dmax < 3:
            return
        self._initiate_searches(idblock=None, limit=1)

    def _initiate_searches(self, idblock: Optional[int], limit: int | None = None) -> None:
        """Start DFS searches for non-tree edges whose initiator is this node.

        The paper makes the smaller-identifier endpoint of every non-tree edge
        responsible for discovering its fundamental cycle.
        """
        st = self.s
        candidates = [u for u in st.non_tree_neighbors()
                      if self.node_id < u and st.view[u].heard]
        if not candidates:
            return
        tree_nbrs = self._tree_neighbors()
        if not tree_nbrs:
            return
        started = 0
        order = candidates[self._search_cursor % len(candidates):] + \
            candidates[:self._search_cursor % len(candidates)]
        for target in order:
            if limit is not None and started >= limit:
                break
            first_hop = target if target in tree_nbrs else min(tree_nbrs)
            if first_hop == target:
                # degenerate: the "non-tree" neighbour became a tree neighbour
                continue
            msg = Search(init_edge=(target, self.node_id), idblock=idblock,
                         path=((self.node_id, len(tree_nbrs)),),
                         visited=(self.node_id,))
            self.send(first_hop, msg)
            self.stats["searches_initiated"] += 1
            started += 1
        self._search_cursor += started if started else 1

    def _handle_search(self, sender: NodeId, msg: Search) -> None:
        if not self.locally_stabilized():
            return  # the reduction layer is frozen until the neighbourhood settles
        target, initiator = msg.init_edge
        st = self.s
        if self.node_id == target:
            # The DFS token reached the other endpoint of the non-tree edge.
            if initiator not in st.view or st.is_tree_edge(initiator):
                return
            if not st.view[initiator].heard:
                return
            self.stats["actions_on_cycle"] += 1
            self._action_on_cycle(msg.idblock, initiator, msg.path, sender)
            return
        # A token back at its initiator is handled like any other node: the
        # backtrack logic below covers it.
        visited = tuple(sorted({*msg.visited, self.node_id}))
        tree_nbrs = self._tree_neighbors()
        # Next hop: the target if it is unvisited, else the smallest
        # unvisited tree neighbour.
        nxt = None
        for u in tree_nbrs:
            if u in visited:
                continue
            if u == target:
                nxt = u
                break
            if nxt is None or u < nxt:
                nxt = u
        if nxt is not None:
            # ``degree`` is the number of tree neighbours on both backends.
            new_path = msg.path + ((self.node_id, len(tree_nbrs)),)
            self.send(nxt, Search(init_edge=msg.init_edge, idblock=msg.idblock,
                                  path=new_path, visited=visited))
            return
        # Dead end: backtrack to the previous node on the DFS stack.
        if not msg.path:
            return
        prev_node = msg.path[-1][0]
        if prev_node == self.node_id:
            if len(msg.path) < 2:
                return
            prev_node = msg.path[-2][0]
            new_path = msg.path[:-2]
        else:
            new_path = msg.path[:-1]
        if prev_node not in st.view:
            return
        self.send(prev_node, Search(init_edge=msg.init_edge, idblock=msg.idblock,
                                    path=new_path, visited=visited))

    # ======================================================================
    # Action on cycle / Improve / Deblock (Figure 1)
    # ======================================================================

    def _action_on_cycle(self, idblock: Optional[int], initiator: NodeId,
                         path: Tuple[Tuple[int, int], ...], sender: NodeId) -> None:
        """Decide what to do with a freshly discovered fundamental cycle."""
        st = self.s
        if not path:
            return
        path_nodes = [p for p, _ in path]
        path_degs = {p: d for p, d in path}
        deg_self = st.degree
        deg_init = st.view[initiator].degree
        endpoint_max = max(deg_self, deg_init)
        if idblock is None:
            d_path = max(path_degs.values())
            if st.dmax != d_path:
                return  # the cycle does not contain a maximum-degree node
            if endpoint_max == st.dmax - 1:
                self._deblock(initiator, sender)
            elif endpoint_max < st.dmax - 1:
                interior = [p for p in path_nodes
                            if p != initiator and path_degs[p] == d_path]
                if not interior:
                    return
                w = min(interior)
                z = self._cycle_neighbor_of(w, path_nodes)
                if z is None:
                    return
                self._improve(initiator, path_degs[w], (w, z), path_nodes)
        else:
            if idblock not in path_nodes or idblock == initiator:
                return
            if path_degs[idblock] != st.dmax - 1:
                return  # the blocking node already lost a degree: stale request
            if endpoint_max == st.dmax - 1:
                self._deblock(initiator, sender)
            elif endpoint_max < st.dmax - 1:
                z = self._cycle_neighbor_of(idblock, path_nodes)
                if z is None:
                    return
                self._improve(initiator, path_degs[idblock], (idblock, z), path_nodes)

    def _cycle_neighbor_of(self, w: NodeId, path_nodes: List[NodeId]) -> Optional[NodeId]:
        """Pick the cycle edge incident to ``w``: its neighbour along the cycle.

        The cycle order is ``path_nodes + [self]``; the neighbour with the
        smaller identifier is chosen, matching the reference planner.
        """
        full = list(path_nodes) + [self.node_id]
        try:
            pos = full.index(w)
        except ValueError:
            return None
        options = []
        if pos > 0:
            options.append(full[pos - 1])
        if pos < len(full) - 1:
            options.append(full[pos + 1])
        return min(options) if options else None

    def _improve(self, initiator: NodeId, deg_max: int, target_edge: Tuple[int, int],
                 path_nodes: List[NodeId]) -> None:
        """Launch the ``Remove`` message implementing the edge swap."""
        st = self.s
        full_path = tuple(path_nodes) + (self.node_id,)
        msg = Remove(init_edge=(self.node_id, initiator), deg_max=deg_max,
                     target_edge=tuple(target_edge), path=full_path, reversing=False)
        self.stats["improvements_started"] += 1
        # Special case: the target edge is incident to this very node.
        w, z = target_edge
        if self.node_id in (w, z):
            self._execute_remove_at_endpoint(msg, arrived_from=initiator)
            return
        self.send(initiator, msg)

    def _deblock(self, initiator: NodeId, sender: NodeId) -> None:
        """Procedure ``Deblock(y, s)`` of Figure 1."""
        st = self.s
        deg_self = st.degree
        deg_init = st.view[initiator].degree
        if deg_self >= deg_init:
            self._broadcast_deblock(self.node_id, exclude=sender)
        if deg_init >= deg_self:
            self.send(initiator, Deblock(idblock=initiator))

    def _broadcast_deblock(self, idblock: int, exclude: NodeId | None) -> None:
        """Procedure ``Broadcast(idblock, s)``: flood + start searches."""
        last = self._deblock_seen.get(idblock)
        if last is not None and self.steps_taken - last < self.deblock_cooldown:
            return
        self._deblock_seen[idblock] = self.steps_taken
        self.stats["deblocks_broadcast"] += 1
        msg = Deblock(idblock=idblock)  # immutable, so one serves the flood
        for u in self._tree_neighbors():
            if u != exclude:
                self.send(u, msg)
        self._initiate_searches(idblock=idblock, limit=2)

    def _handle_deblock(self, sender: NodeId, msg: Deblock) -> None:
        if not self.locally_stabilized():
            return
        self._broadcast_deblock(msg.idblock, exclude=sender)

    # ======================================================================
    # Remove / Back: executing the swap (Figure 2)
    # ======================================================================

    def _handle_remove(self, sender: NodeId, msg: Remove) -> None:
        path = msg.path
        if self.node_id not in path:
            return
        idx = path.index(self.node_id)
        if msg.reversing:
            self._continue_reversal(msg, idx)
            return
        w, z = msg.target_edge
        if self.node_id in (w, z):
            self._execute_remove_at_endpoint(msg, arrived_from=sender)
            return
        # Not yet at the target edge: forward along the cycle toward the action node.
        if idx + 1 < len(path):
            nxt = path[idx + 1]
            if nxt in self.s.view:
                self.send(nxt, msg)

    def _execute_remove_at_endpoint(self, msg: Remove, arrived_from: NodeId) -> None:
        """Guard-check and perform the deletion of the target edge."""
        st = self.s
        path = msg.path
        w, z = msg.target_edge
        other = z if self.node_id == w else w
        if other not in st.view:
            self.stats["removals_aborted"] += 1
            return
        # Guard (target_remove): the edge must still be a tree edge and the
        # degree of one of its endpoints must still equal deg_max.
        if not st.is_tree_edge(other):
            self.stats["removals_aborted"] += 1
            return
        if st.degree != msg.deg_max and st.view[other].degree != msg.deg_max:
            self.stats["removals_aborted"] += 1
            return
        idx = path.index(self.node_id)
        if other not in path:
            self.stats["removals_aborted"] += 1
            return
        other_idx = path.index(other)
        action_node, initiator = msg.init_edge
        if st.parent == other:
            # This node is the child of the removed edge: the cycle segment on
            # *this* side of the removed edge switches over to hang from the
            # new edge.  Which side that is depends on where ``other`` sits.
            self.stats["removals_performed"] += 1
            if other_idx == idx + 1:
                # Our side is the initiator side (path[0..idx]): re-orient it
                # backwards with a Back wave; the initiator finally attaches
                # to the action node (Figure 5, case (b)).
                if idx == 0:
                    self._attach(action_node)
                    return
                new_parent = path[idx - 1]
                self._repoint(new_parent)
                self.send(new_parent, Back(init_edge=msg.init_edge, path=msg.path,
                                           position=idx - 1))
            else:
                # Our side is the action-node side (path[idx..end]); this only
                # happens when the action node handled the Remove locally.
                if idx == len(path) - 1:
                    self._attach(initiator)
                    return
                new_parent = path[idx + 1]
                self._repoint(new_parent)
                self.send(new_parent, Remove(init_edge=msg.init_edge,
                                             deg_max=msg.deg_max,
                                             target_edge=msg.target_edge,
                                             path=msg.path, reversing=True))
        else:
            other_view = st.view[other]
            if not (other_view.heard and other_view.parent == self.node_id):
                # Neither endpoint considers the other its parent: the edge
                # has concurrently stopped being a tree edge -- abort.
                self.stats["removals_aborted"] += 1
                return
            # The other endpoint is the child: its side of the cycle switches.
            self.stats["removals_performed"] += 1
            self._settled = False
            self.s.color = not self.s.color
            if other_idx == idx + 1:
                # Child side faces the action node: forward the Remove with
                # reversing=True; each node re-points to the next one and the
                # action node attaches to the initiator (source_remove branch).
                self.send(other, Remove(init_edge=msg.init_edge, deg_max=msg.deg_max,
                                        target_edge=msg.target_edge, path=msg.path,
                                        reversing=True))
            else:
                # Child side faces the initiator: start a Back wave at the
                # child; it re-points backwards and the initiator finally
                # attaches to the action node.
                self.send(other, Back(init_edge=msg.init_edge, path=msg.path,
                                      position=other_idx))

    def _continue_reversal(self, msg: Remove, idx: int) -> None:
        """Handle ``Remove`` with ``reversing=True``: re-point and forward."""
        path = msg.path
        action_node, initiator = msg.init_edge
        if self.node_id == action_node or idx == len(path) - 1:
            # Reached the action node: adopt the new (previously non-tree) edge.
            self._attach(initiator)
            return
        nxt = path[idx + 1]
        if nxt not in self.s.view:
            return
        self._repoint(nxt)
        self.send(nxt, msg)

    def _handle_back(self, sender: NodeId, msg: Back) -> None:
        path = msg.path
        if msg.position < 0 or msg.position >= len(path):
            return
        if path[msg.position] != self.node_id:
            return
        action_node, initiator = msg.init_edge
        if msg.position == 0 or self.node_id == initiator:
            self._attach(action_node)
            return
        new_parent = path[msg.position - 1]
        if new_parent not in self.s.view:
            return
        self._repoint(new_parent)
        self.send(new_parent, Back(init_edge=msg.init_edge, path=msg.path,
                                   position=msg.position - 1))

    def _handle_reverse(self, sender: NodeId, msg: Reverse) -> None:
        """``Reverse`` (Reverse_Aux): re-point toward the sender up to ``target``."""
        if msg.target == self.node_id:
            return
        old_parent = self.s.parent
        self._repoint(sender)
        if old_parent != self.node_id and old_parent in self.s.view:
            self.send(old_parent, Reverse(target=msg.target))

    def _handle_update_dist(self, sender: NodeId, msg: UpdateDist) -> None:
        """``UpdateDist``: adopt the announced distance if the sender is our parent."""
        if self.s.parent == sender:
            self._settled = False
            self.s.distance = msg.dist + 1
            for child in self.s.children():
                self.send(child, UpdateDist(target_edge=msg.target_edge,
                                            dist=self.s.distance))

    # -- local mutations --------------------------------------------------------

    def _repoint(self, new_parent: NodeId) -> None:
        """Change the parent pointer as part of a cycle re-orientation.

        The node is no longer settled: the pass may re-derive what this
        wrote (R3 repairs the distance, say)."""
        st = self.s
        self._settled = False
        st.parent = new_parent
        pv = st.view.get(new_parent)
        if pv is not None and pv.heard:
            st.root = min(st.root, pv.root)
            st.distance = min(pv.distance + 1, self.n_upper - 1)
        self._update_degree_layer()
        self._gossip()

    def _attach(self, new_parent: NodeId) -> None:
        """Adopt the new non-tree edge at the end of an improvement."""
        self.stats["attachments"] += 1
        self._repoint(new_parent)
        for child in self.s.children():
            self.send(child, UpdateDist(target_edge=(self.node_id, new_parent),
                                        dist=self.s.distance))

    # ======================================================================
    # Dynamic topology (live neighbour-set deltas)
    # ======================================================================

    def add_neighbor(self, u: NodeId) -> None:
        """A link to ``u`` appeared at runtime.

        The new neighbour starts as an unheard non-tree edge; the next
        timeout gossips our variables across it and subsequent searches may
        discover the fundamental cycles it creates.
        """
        super().add_neighbor(u)
        self.s.neighbor_added(self.neighbors, u)
        self._refresh()

    def remove_neighbor(self, u: NodeId) -> None:
        """The link to ``u`` died at runtime.

        Evicts the stale cached :class:`~repro.core.state.NeighborState`;
        if ``u`` was our parent the tree edge is gone, so we re-enter the
        correction phase as a fresh root (rule R2's premise -- an incoherent
        parent pointer -- made explicit) and let R1 re-attach us to the
        surviving tree through gossip.
        """
        super().remove_neighbor(u)
        lost_parent = self.s.parent == u
        self.s.neighbor_removed(self.neighbors, u)
        if lost_parent:
            self._create_new_root()
        self._refresh()

    # ======================================================================
    # Self-stabilization support / introspection
    # ======================================================================

    def corrupt(self, rng: np.random.Generator) -> None:
        self._settled = False
        self.s.corrupt(rng)
        self._search_cursor = int(rng.integers(0, 8))
        self._deblock_seen.clear()

    def note_state_write(self) -> None:
        self._settled = False

    def state_bits(self, network_size: int) -> int:
        return self.s.state_bits(network_size)

    def snapshot(self) -> Dict[str, object]:
        return self.s.snapshot(len(self._tree_neighbors()))


def mdst_node_factory(n_upper: int | None = None, search_period: int = 3,
                      deblock_cooldown: int = 30, enable_reduction: bool = True):
    """Factory suitable for :class:`repro.sim.network.Network` construction."""
    def factory(node_id: NodeId, neighbors: Sequence[NodeId]) -> MDSTNode:
        return MDSTNode(node_id, neighbors, n_upper=n_upper,
                        search_period=search_period,
                        deblock_cooldown=deblock_cooldown,
                        enable_reduction=enable_reduction)
    return factory
