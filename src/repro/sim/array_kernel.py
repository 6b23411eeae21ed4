"""Array-backed vectorized kernel backend for large-``n`` runs.

The object-per-node simulator pays an interpreter-level constant for every
message delivery and every rule evaluation; at n >= 256 that constant is the
throughput ceiling (BENCH_scaling.json).  This module provides the
``backend="array"`` alternative behind the *same*
:class:`~repro.sim.network.Network` / :class:`~repro.sim.scheduler.Scheduler`
contracts:

* **Topology** lives in a CSR adjacency structure: ``indptr``/``nbr_idx``/
  ``nbr_ids`` arrays over the sorted node ids, built from edge arrays
  (:meth:`~repro.graphs.edge_array.EdgeArrayGraph.csr`).  A node's
  neighbour views are the flat rows of its CSR segment, and every
  vectorized pass works on segments.
* **Node state** is a set of flat numpy columns -- one per slotted
  :class:`~repro.core.state.MDSTState` field (``root``, ``parent``,
  ``distance``, ``sub_max``, ``dmax``, ``color``) -- and the cached
  neighbour views are columns over the flat edge positions (one per
  :class:`~repro.core.state.NeighborState` field).
* **Correctness is by construction, not by re-implementation**: every node
  is a real :class:`~repro.core.node_algorithm.MDSTNode` whose state object
  merely *reads and writes the shared columns*
  (:class:`ArrayBackedState` / :class:`NeighborProxy`).  The control layers
  (Search/Remove/Back/Deblock/Reverse/UpdateDist), fault injection
  (``corrupt``), the initial-configuration installers, the monitors and the
  object schedulers' fallback rounds therefore run the *identical*
  algorithm code against array storage.
* **Rounds run in the slot engine** of :mod:`repro.sim.array_engine`:
  every scheduler hands :func:`~repro.sim.array_engine.execute_plan` an
  array-form plan, and slot ``j`` applies the ``j``-th event of every node
  at once.  This module supplies what the engine batches over: the
  vectorized rules pass (:meth:`ArrayKernel.refresh` -- the spanning-tree
  rules R1/R2/R3, the PIF degree layer and the ``locally_stabilized`` gate
  as CSR segment reductions, ``np.ufunc.reduceat``) and the *virtual
  gossip* of :class:`ArrayNetwork`, where the O(m)-per-round ``MInfo``
  traffic lives in per-source snapshot columns and per-edge counters
  instead of message objects.  Control messages stay scalar -- they are
  rare by design.

Byte identity with the object backend is part of the contract and is
enforced by tests: identical final snapshots, rounds, per-node step counts,
message/delivery/type counters and report rows for every supported
configuration (see ``tests/test_array_kernel.py``).
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from ..core.messages import MInfo
from ..core.node_algorithm import MDSTNode
from ..exceptions import SimulationError
from ..graphs.edge_array import EdgeArrayGraph
from ..graphs.validation import check_network
from ..types import NodeId
from .channel import Channel
from .messages import id_bits
from .network import Network

__all__ = [
    "ArrayChannel",
    "ArrayKernel",
    "ArrayBackedState",
    "ArrayMDSTNode",
    "ArrayNetwork",
    "channel_rows",
]

_I64 = np.int64
_INT_MAX = np.iinfo(np.int64).max
#: The empty node-index set (``ArrayKernel.refresh`` with no gate nodes).
_NO_NODES = np.zeros(0, dtype=_I64)
#: The ``MInfo`` fields a gossip token carries, in message order: the view
#: columns ``v_*`` and the snapshot generations ``g_*``/``go_*`` hold one
#: column each.
_GOSSIP_FIELDS = ("root", "parent", "distance", "degree", "sub_max", "dmax",
                  "color")


def _minfo_bits_for(network_size: int) -> int:
    """Wire size of one gossip ``MInfo`` (constant per run)."""
    return MInfo(root=0, parent=0, distance=0, degree=0, sub_max=0,
                 dmax=0, color=False).size_bits(network_size)


def segment_row(hit: np.ndarray, rows: np.ndarray,
                starts: np.ndarray) -> np.ndarray:
    """The row of each segment's hit, or -1 for a segment without one.

    ``hit`` marks at most one row per segment -- the parent lookup
    ``repeat(parent, counts) == nbr_ids`` does, since neighbour ids are
    unique within a segment -- and ``rows`` labels the rows (flat view rows
    or positions in a gathered geometry).  A corrupted pointer that names
    no neighbour finds no hit: the vector analogue of
    ``view.get(parent) is None``.
    """
    return np.maximum.reduceat(np.where(hit, rows, -1), starts)


class ArrayKernel:
    """The shared column store: CSR topology plus flat state columns.

    One instance backs every :class:`ArrayBackedState` of a network; the
    vectorized round operates on these columns directly.
    """

    def __init__(self, ids: np.ndarray, topology: EdgeArrayGraph,
                 n_upper: int):
        # ``topology`` is the graph over node *indices*; ``ids`` (sorted)
        # names each index.  Its cached CSR is the kernel topology, with
        # each row sorted by index and hence by id -- the insertion order
        # of the object backend's per-node view dicts.
        self.ids = ids
        self.node_ids = ids.tolist()
        self.n = len(self.node_ids)
        self.n_upper = int(n_upper)
        self.index = dict(zip(self.node_ids, range(self.n)))
        self.indptr, self.nbr_idx = topology.csr()
        #: The neighbour at each flat view row: its node index and its id.
        self.nbr_ids = ids[self.nbr_idx]
        total = int(self.indptr[-1])
        self.total = total
        #: id of the owning node for every flat view row.
        self.row_owner = np.repeat(
            self.ids, np.diff(self.indptr).astype(_I64))
        # -- own-state columns (MDSTState slots) --------------------------------
        self.root = self.ids.copy()
        self.parent = self.ids.copy()
        self.distance = np.zeros(self.n, dtype=_I64)
        self.sub_max = np.zeros(self.n, dtype=_I64)
        self.dmax = np.zeros(self.n, dtype=_I64)
        self.color = np.ones(self.n, dtype=bool)
        # -- view columns (NeighborState slots), one row per directed edge ------
        self.v_root = np.zeros(total, dtype=_I64)
        self.v_parent = np.zeros(total, dtype=_I64)
        self.v_distance = np.zeros(total, dtype=_I64)
        self.v_degree = np.zeros(total, dtype=_I64)
        self.v_sub_max = np.zeros(total, dtype=_I64)
        self.v_dmax = np.zeros(total, dtype=_I64)
        self.v_color = np.ones(total, dtype=bool)
        self.v_heard = np.zeros(total, dtype=bool)
        # -- scratch written by the vectorized passes ---------------------------
        self.degree = np.zeros(self.n, dtype=_I64)
        self.locally_stab = np.zeros(self.n, dtype=bool)
        #: Whether a node's columns are a fixpoint of :meth:`refresh` and
        #: its ``locally_stab`` and ``degree`` rows are current (see there).
        #: A function of the node's own columns and view rows alone: the
        #: pass sets it, and every write to those columns clears it -- the
        #: state setters, the engine's scatters, ``note_state_write``.
        self.settled = np.zeros(self.n, dtype=bool)
        #: Bumped for a node by every pass that writes its ``settled`` row,
        #: so an answer cached while the node was settled is known to be
        #: from the current settled stretch (``ArrayBackedState``'s tree
        #: queries).
        self.settle_epoch = np.zeros(self.n, dtype=_I64)
        # -- gossip snapshot columns --------------------------------------------
        # The state each node last gossiped (copied by its timeout's mint).
        # A gossip *token* on a channel stands for "the MInfo ``src`` sent
        # last" and resolves against these columns, so the slot engine
        # never builds message objects for the O(m)-per-round gossip.
        self.g_root = np.zeros(self.n, dtype=_I64)
        self.g_parent = np.zeros(self.n, dtype=_I64)
        self.g_distance = np.zeros(self.n, dtype=_I64)
        self.g_degree = np.zeros(self.n, dtype=_I64)
        self.g_sub_max = np.zeros(self.n, dtype=_I64)
        self.g_dmax = np.zeros(self.n, dtype=_I64)
        self.g_color = np.zeros(self.n, dtype=bool)
        # Previous-generation gossip snapshot.  Asynchronous schedules can
        # mint a node's next token while the previous one is still in flight
        # on some channels; shifting the snapshot here (instead of
        # materializing message objects) keeps those late deliveries
        # columnar.  At most two generations are ever live per source: a
        # round delivers every round-start token before the round ends, so a
        # token older than one generation is physically materialized by the
        # mint that would otherwise overwrite this buffer.
        self.go_root = np.zeros(self.n, dtype=_I64)
        self.go_parent = np.zeros(self.n, dtype=_I64)
        self.go_distance = np.zeros(self.n, dtype=_I64)
        self.go_degree = np.zeros(self.n, dtype=_I64)
        self.go_sub_max = np.zeros(self.n, dtype=_I64)
        self.go_dmax = np.zeros(self.n, dtype=_I64)
        self.go_color = np.zeros(self.n, dtype=bool)
        #: The gossip columns of each generation, in ``_GOSSIP_FIELDS``
        #: order: the view rows, the current and the previous snapshot.
        self.v_cols = tuple(getattr(self, "v_" + f) for f in _GOSSIP_FIELDS)
        self.g_cols = tuple(getattr(self, "g_" + f) for f in _GOSSIP_FIELDS)
        self.go_cols = tuple(getattr(self, "go_" + f) for f in _GOSSIP_FIELDS)
        # Scalar-path position lookup, built lazily (see the ``pos``
        # property): construction never needs it, and must stay free of
        # per-edge Python dict fills.
        self._pos_cache: Optional[Dict[Tuple[NodeId, NodeId], int]] = None
        self._full_flat = np.arange(total, dtype=_I64)
        self._full_starts = self.indptr[:-1].astype(np.intp)
        self._all_idx = np.arange(self.n, dtype=_I64)
        self._row_counts = np.diff(self.indptr).astype(_I64)

    @property
    def pos(self) -> Dict[Tuple[NodeId, NodeId], int]:
        """Scalar-path lookup ``(owner id, neighbour id) -> flat view row``.

        Row order follows the CSR layout (owner-major, neighbour-id minor).
        Built on first use -- typically when the first channel
        materializes -- so network *construction* stays O(arrays).
        """
        p = self._pos_cache
        if p is None:
            p = dict(zip(zip(self.row_owner.tolist(), self.nbr_ids.tolist()),
                         range(self.total)))
            self._pos_cache = p
        return p

    # -- flat-row geometry -----------------------------------------------------

    def rows_of(self, S: np.ndarray):
        """Flat view rows of the node-index subset ``S`` plus segment starts.

        Returns ``(flat, starts, counts)`` where ``flat`` concatenates each
        node's CSR segment (neighbour-id order) and ``starts`` indexes the
        segment boundaries inside ``flat`` -- the shape every
        ``ufunc.reduceat`` segment reduction below consumes.
        """
        if len(S) == self.n:
            return self._full_flat, self._full_starts, self._row_counts
        counts = (self.indptr[S + 1] - self.indptr[S]).astype(_I64)
        total = int(counts.sum())
        starts = np.zeros(len(S), dtype=_I64)
        np.cumsum(counts[:-1], out=starts[1:])
        flat = (np.repeat(self.indptr[S] - starts, counts)
                + np.arange(total, dtype=_I64))
        return flat, starts.astype(np.intp), counts

    # -- vectorized rule evaluation --------------------------------------------

    def refresh(self, S: np.ndarray, predicates: bool = False,
                gate: np.ndarray = _NO_NODES) -> np.ndarray:
        """Vectorized ``MDSTNode._refresh`` over the node-index subset ``S``.

        Applies the spanning-tree rules R2 -> R1 -> R3 and the fused degree
        layer exactly as :meth:`~repro.stabilization.spanning_tree.TreeRules.
        _apply_tree_rules` (the one scalar R1-R3, which MDST shares with the
        standalone substrate) and ``MDSTNode._update_degree_layer`` do per
        node, writing the state columns of ``S`` in place.  With ``predicates=True`` the
        pass also refreshes :attr:`locally_stab` (the reduction-layer gate)
        for ``S``, and marks in :attr:`settled` the nodes whose new state
        is a fixpoint -- a second pass over the same view rows would change
        nothing.  That is every node except one that R3's distance overflow
        just reset to a fresh root, which R1 may move on the next pass.  The
        flag stays set until something writes the node's columns, so the
        slot engine skips the pass for a settled node and reads its gate
        verdict from :attr:`locally_stab`.

        ``gate`` names nodes, disjoint from ``S``, whose rules do *not* run:
        the pass returns their ``locally_stabilized`` verdict on the state
        as it stands (the batched twin of
        :meth:`ArrayMDSTNode.locally_stabilized`) and writes nothing for
        them.  The verdict is the conjunction of the coherence terms that
        already feed R2 and R3 with the own-colour and neighbourhood
        clauses, so a slot's rules and its control gate share one pass.

        The rule order licenses two simplifications the scalar code pays for
        per node: after R2 no node is a new-root candidate, and every node
        R1 or R2 touched has a coherent distance -- so R3 applies exactly to
        the untouched nodes whose *original* distance was incoherent.

        A parent pointer resolves through the segment mask
        ``repeat(parent, counts) == nbr_ids`` (:func:`segment_row`).

        When ``S`` and ``gate`` together cover a large fraction of the
        network the pass computes over the *full* columns in place (no
        gather of the subset's view rows -- the per-row results are
        independent, so computing the extra rows is cheaper than building
        the subset geometry) and writes back only the rows of ``S``.
        """
        n_s = len(S)
        n_g = len(gate)
        if self.total == 0 or n_s + n_g == 0:
            # Without edges no message can reach a gate node either.
            return np.zeros(n_g, dtype=bool)
        n_upper = self.n_upper
        if 4 * (n_s + n_g) >= self.n:
            # Full-column geometry: basic slices are views, nothing is
            # gathered; a node's position in the pass is its index.
            own = flat = slice(None)
            starts = self._full_starts
            counts = self._row_counts
            rows = self._full_flat
            at_s, at_g = S, gate
        else:
            own = np.concatenate((S, gate)) if n_g else S
            flat, starts, counts = self.rows_of(own)
            rows = np.arange(len(flat), dtype=_I64)
            at_s, at_g = slice(0, n_s), slice(n_s, None)
        me = self.ids[own]
        r = self.root[own]
        p = self.parent[own]
        d = self.distance[own]
        vr = self.v_root[flat]
        vp = self.v_parent[flat]
        vd = self.v_distance[flat]
        vh = self.v_heard[flat]
        nbr = self.nbr_ids[flat]
        vsub = self.v_sub_max[flat]
        vdm = self.v_dmax[flat]
        vcol = self.v_color[flat]

        # -- coherence of the original state (feeds R2, R3 and the gate) -----
        # ``prow`` is -1 without a parent row; indexing with it reads the
        # last row, which every use masks out.
        on_p = p.repeat(counts) == nbr
        prow = segment_row(on_p, rows, starts)
        pvalid = prow >= 0
        pvh = pvalid & vh[prow]
        pvd = vd[prow]
        self_parent = p == me
        cp = np.where(r > me, False,
                      np.where(self_parent, (r == me) & (d == 0),
                               pvalid & (~pvh | (vr[prow] == r))))
        cd = np.where(d >= n_upper, False,
                      np.where(self_parent, d == 0,
                               pvalid & (~pvh | (d == pvd + 1))))
        verdict = np.zeros(0, dtype=bool)
        if n_g:
            # locally_stabilized before any rule: coherent parent and
            # distance, own colour set, and no heard neighbour with a
            # smaller root, another dmax or a false colour.
            bad = np.logical_or.reduceat(
                vh & ((vr < r.repeat(counts))
                      | (vdm != self.dmax[own].repeat(counts)) | ~vcol),
                starts)
            verdict = (cp & cd & self.color[own] & ~bad)[at_g]
            if n_s == 0:
                return verdict
        ncr = ~cp | (d >= n_upper)
        moved = False  # whether a rule fired, so parent rows may differ

        # -- R2: reset to a fresh root -----------------------------------------
        if ncr.any():
            r = np.where(ncr, me, r)
            p = np.where(ncr, me, p)
            d = np.where(ncr, 0, d)
            moved = True

        # -- R1: adopt the best smaller-root neighbour -------------------------
        cand = vh & (vr < r.repeat(counts)) & (vd + 1 < n_upper)
        br = np.minimum.reduceat(np.where(cand, vr, _INT_MAX), starts)
        fired1 = br < _INT_MAX
        if fired1.any():
            cand &= vr == br.repeat(counts)
            best = np.minimum.reduceat(np.where(cand, nbr, _INT_MAX), starts)
            best_d = np.minimum.reduceat(
                np.where(cand & (nbr == best.repeat(counts)), vd, _INT_MAX),
                starts)
            r = np.where(fired1, br, r)
            p = np.where(fired1, best, p)
            d = np.where(fired1, best_d + 1, d)
            moved = True

        # -- R3: gentle distance repair on the untouched incoherent nodes ------
        fire3 = ~ncr & ~fired1 & ~cd
        reset = None
        if fire3.any():
            d = np.where(fire3, pvd + 1, d)
            reset = fire3 & (d >= n_upper)
            r = np.where(reset, me, r)
            p = np.where(reset, me, p)
            d = np.where(reset, 0, d)
            moved = True

        # -- fused degree layer (degree, sub_max, dmax, color) -----------------
        # A row is a tree edge when the neighbour names this node as its
        # parent (child) or this node names the neighbour (on_p).
        if moved:
            on_p = p.repeat(counts) == nbr
            prow = segment_row(on_p, rows, starts)
            pvh = (prow >= 0) & vh[prow]
        child = vh & (vp == me.repeat(counts))
        degree = np.add.reduceat((child | on_p).astype(_I64), starts)
        child_max = np.maximum.reduceat(
            np.where(child, vsub, np.int64(-1)), starts)
        sub_max = np.maximum(degree, child_max)
        dmax = np.where(p == me, sub_max, np.where(pvh, vdm[prow], sub_max))
        color = ~np.logical_or.reduceat(vh & (vdm != dmax.repeat(counts)),
                                        starts)

        if predicates:
            # locally_stabilized = tree_stabilized & color & degree_stabilized
            # & color_stabilized.  Post-rules every node has a coherent parent
            # and distance, so tree_stabilized reduces to "no better parent";
            # color equals degree_stabilized by construction (it was just set
            # to it and nothing changed since).
            stab = color & ~np.logical_or.reduceat(
                vh & ((vr < r.repeat(counts)) | (vcol != color.repeat(counts))),
                starts)

        if n_s == self.n:
            self.root = r
            self.parent = p
            self.distance = d
            self.sub_max = sub_max
            self.dmax = dmax
            self.color = color
            self.degree = degree
            if predicates:
                self.locally_stab = stab
        else:
            self.root[S] = r[at_s]
            self.parent[S] = p[at_s]
            self.distance[S] = d[at_s]
            self.sub_max[S] = sub_max[at_s]
            self.dmax[S] = dmax[at_s]
            self.color[S] = color[at_s]
            self.degree[S] = degree[at_s]
            if predicates:
                self.locally_stab[S] = stab[at_s]
        self.settled[S] = (predicates if reset is None or not predicates
                           else ~reset[at_s])
        self.settle_epoch[S] += 1
        return verdict

    def compute_degrees(self, S: np.ndarray) -> np.ndarray:
        """Tree degree of every node in ``S`` (the derived ``deg_v``)."""
        if len(S) == 0:
            return np.zeros(0, dtype=_I64)
        if len(S) == self.n:
            # Dense path: no gather, the full columns are read in place.
            child = self.v_heard & (self.v_parent == self.row_owner)
            pmask = (~child) & (np.repeat(self.parent, self._row_counts)
                                == self.nbr_ids)
            return np.add.reduceat((child | pmask).astype(_I64),
                                   self._full_starts)
        flat, starts, counts = self.rows_of(S)
        child = self.v_heard[flat] & (self.v_parent[flat]
                                      == np.repeat(self.ids[S], counts))
        pmask = (~child) & (np.repeat(self.parent[S], counts)
                            == self.nbr_ids[flat])
        return np.add.reduceat((child | pmask).astype(_I64), starts)


def _column(name: str, cast):
    """A state property over the kernel column ``name`` at ``self._at``.

    Reads convert to Python scalars (``cast``) so values flowing into
    messages, snapshots and JSON rows are indistinguishable from the object
    backend.  Writes clear :attr:`ArrayKernel.settled` of the owning node
    ``self._i``: every per-field write of a state object goes through here
    (``ArrayBackedState.corrupt`` writes whole columns and clears the flag
    itself).
    """

    def get(self):
        return cast(getattr(self._k, name)[self._at])

    def put(self, value) -> None:
        k = self._k
        getattr(k, name)[self._at] = value
        k.settled[self._i] = False

    return property(get, put)


class NeighborProxy:
    """A :class:`~repro.core.state.NeighborState` view over the flat row
    ``_at`` of node index ``_i``."""

    __slots__ = ("_k", "_at", "_i")

    def __init__(self, kernel: ArrayKernel, flat: int, owner: int):
        self._k = kernel
        self._at = flat
        self._i = owner

    root = _column("v_root", int)
    parent = _column("v_parent", int)
    distance = _column("v_distance", int)
    degree = _column("v_degree", int)
    sub_max = _column("v_sub_max", int)
    dmax = _column("v_dmax", int)
    color = _column("v_color", bool)
    heard = _column("v_heard", bool)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"NeighborProxy(root={self.root}, parent={self.parent}, "
                f"distance={self.distance}, degree={self.degree}, "
                f"sub_max={self.sub_max}, dmax={self.dmax}, "
                f"color={self.color}, heard={self.heard})")


class ArrayViewMap:
    """Dict-like per-node view (``{neighbour id -> NeighborProxy}``).

    Iteration order is neighbour-id order, exactly the insertion order of
    the object backend's ``{u: NeighborState() for u in sorted(...)}``.
    """

    __slots__ = ("_k", "_lo", "_nbrs", "_proxies", "_local")

    def __init__(self, kernel: ArrayKernel, node_index: int):
        self._k = kernel
        self._lo = int(kernel.indptr[node_index])
        hi = int(kernel.indptr[node_index + 1])
        self._nbrs = tuple(int(u) for u in kernel.nbr_ids[self._lo:hi])
        self._proxies = tuple(NeighborProxy(kernel, self._lo + i, node_index)
                              for i in range(hi - self._lo))
        self._local = {u: i for i, u in enumerate(self._nbrs)}

    def __getitem__(self, u: NodeId) -> NeighborProxy:
        return self._proxies[self._local[u]]

    def get(self, u: NodeId, default=None):
        i = self._local.get(u)
        return self._proxies[i] if i is not None else default

    def __contains__(self, u: NodeId) -> bool:
        return u in self._local

    def __iter__(self):
        return iter(self._nbrs)

    def __len__(self) -> int:
        return len(self._nbrs)

    def keys(self):
        return self._nbrs

    def values(self):
        return self._proxies

    def items(self):
        return list(zip(self._nbrs, self._proxies))


class ArrayBackedState:
    """Drop-in :class:`~repro.core.state.MDSTState` over the shared columns.

    Implements the full state API -- own-variable properties, the view
    mapping, the derived tree queries, ``corrupt``/``state_bits``/
    ``snapshot`` -- so the unmodified :class:`~repro.core.node_algorithm.
    MDSTNode` logic runs against array storage.  The derived queries use
    numpy over the node's CSR slice, which also speeds up the scalar
    fallback paths (searches, removals) at high degree.
    """

    __slots__ = ("_k", "_i", "_at", "_lo", "_hi", "node_id", "neighbors",
                 "n_upper", "view", "_nbr_arr", "_tree", "_tree_epoch")

    def __init__(self, kernel: ArrayKernel, node_id: NodeId):
        self._k = kernel
        self._i = self._at = kernel.index[node_id]
        self._lo = int(kernel.indptr[self._i])
        self._hi = int(kernel.indptr[self._i + 1])
        self.node_id = node_id
        self.n_upper = kernel.n_upper
        self.view = ArrayViewMap(kernel, self._i)
        self.neighbors = self.view.keys()
        self._nbr_arr = kernel.nbr_ids[self._lo:self._hi]
        #: Tree neighbours cached while the node is settled, and the
        #: ``settle_epoch`` they were read at (-1: nothing cached).
        self._tree: Tuple[int, ...] = ()
        self._tree_epoch = -1

    # -- own variables ---------------------------------------------------------

    root = _column("root", int)
    parent = _column("parent", int)
    distance = _column("distance", int)
    sub_max = _column("sub_max", int)
    dmax = _column("dmax", int)
    color = _column("color", bool)

    # -- derived quantities (vectorized over the CSR slice) --------------------

    def _tree_mask(self) -> np.ndarray:
        k = self._k
        lo, hi = self._lo, self._hi
        return ((k.parent[self._i] == self._nbr_arr)
                | (k.v_heard[lo:hi]
                   & (k.v_parent[lo:hi] == self.node_id)))

    def is_tree_edge(self, u: NodeId) -> bool:
        f = self.view._local.get(u)
        if f is None:
            return False
        if int(self._k.parent[self._i]) == u:
            return True
        pos = self._lo + f
        return bool(self._k.v_heard[pos]) and int(self._k.v_parent[pos]) == self.node_id

    def tree_neighbors(self) -> list:
        # A settled node's parent and view rows have not been written since
        # the pass that settled it, so neither have its tree neighbours:
        # they are read once per settled stretch (``settle_epoch``).
        k = self._k
        i = self._i
        if not k.settled[i]:
            return [int(u) for u in self._nbr_arr[self._tree_mask()]]
        epoch = int(k.settle_epoch[i])
        if self._tree_epoch != epoch:
            self._tree = tuple(int(u) for u in self._nbr_arr[self._tree_mask()])
            self._tree_epoch = epoch
        return list(self._tree)

    def children(self) -> list:
        k = self._k
        lo, hi = self._lo, self._hi
        mask = k.v_heard[lo:hi] & (k.v_parent[lo:hi] == self.node_id)
        return [int(u) for u in self._nbr_arr[mask]]

    @property
    def degree(self) -> int:
        # The pass that settled the node wrote its tree degree.
        k = self._k
        i = self._i
        if k.settled[i]:
            return int(k.degree[i])
        return int(self._tree_mask().sum())

    def non_tree_neighbors(self) -> list:
        return [int(u) for u in self._nbr_arr[~self._tree_mask()]]

    # -- dynamic topology (unsupported on the array backend) -------------------

    def neighbor_added(self, neighbors, u: NodeId) -> None:
        raise SimulationError(
            "the array backend does not support live topology churn")

    def neighbor_removed(self, neighbors, u: NodeId) -> None:
        raise SimulationError(
            "the array backend does not support live topology churn")

    # -- corruption / accounting (byte-identical to MDSTState) -----------------

    def corrupt(self, rng: np.random.Generator) -> None:
        # Exactly the draw sequence of MDSTState.corrupt, written into the
        # columns with one store per column and one clear of the node's
        # settled flag.
        k = self._k
        i, lo, hi = self._i, self._lo, self._hi
        top = max(2, self.n_upper)
        pool = np.array(list(self.neighbors) + [
            self.node_id, int(rng.integers(-5, self.n_upper + 5))])
        k.root[i] = rng.choice(pool)
        k.parent[i] = rng.choice(list(self.neighbors) + [self.node_id])
        k.distance[i] = rng.integers(0, top)
        k.sub_max[i] = rng.integers(0, top)
        k.dmax[i] = rng.integers(0, top)
        k.color[i] = rng.integers(0, 2)
        rows = [(rng.choice(pool), rng.choice(pool), rng.integers(0, top),
                 rng.integers(0, top), rng.integers(0, top),
                 rng.integers(0, top), rng.integers(0, 2), rng.integers(0, 2))
                for _ in range(hi - lo)]
        for col, values in zip(k.v_cols + (k.v_heard,), zip(*rows)):
            col[lo:hi] = values
        k.settled[i] = False

    def state_bits(self, network_size: int) -> int:
        idbits = id_bits(network_size)
        own = 5 * idbits + 1
        per_neighbor = 6 * idbits + 2
        return own + per_neighbor * len(self.neighbors)

    def snapshot(self, degree: int) -> Dict[str, object]:
        return {
            "root": self.root,
            "parent": self.parent,
            "distance": self.distance,
            "degree": degree,
            "sub_max": self.sub_max,
            "dmax": self.dmax,
            "color": self.color,
        }


class ArrayMDSTNode(MDSTNode):
    """A real :class:`MDSTNode` whose state lives in the shared columns.

    Every handler, predicate and corruption hook is inherited unchanged;
    only the storage differs.  This is what makes the scalar fallback paths
    of the array backend correct by construction.
    """

    __slots__ = ("_kernel",)

    def __init__(self, node_id: NodeId, neighbors: Sequence[NodeId],
                 kernel: ArrayKernel, n_upper: int | None = None,
                 search_period: int = 3, deblock_cooldown: int = 30,
                 enable_reduction: bool = True):
        self._kernel = kernel
        super().__init__(node_id, neighbors, n_upper=n_upper,
                         search_period=search_period,
                         deblock_cooldown=deblock_cooldown,
                         enable_reduction=enable_reduction)

    def _make_state(self) -> "ArrayBackedState":
        # Column-backed state from the start -- the base constructor's
        # root/parent/distance writes land on kernel columns that are
        # pre-initialised to those exact values (own id, own id, 0).
        return ArrayBackedState(self._kernel, self.node_id)

    @property
    def _settled(self) -> bool:
        """The node's :attr:`~ArrayKernel.settled` row.

        The engine writes the columns without this object, so a flag of
        its own could go stale; every column write clears the kernel row.
        Writes are ignored.  The scalar ``_refresh`` computes no
        ``locally_stab``, so it must never settle the row, and every clear
        of the base class sits at a column write, which clears the row
        itself.
        """
        return bool(self._kernel.settled[self.s._i])

    @_settled.setter
    def _settled(self, value: bool) -> None:
        pass

    def _tree_neighbors(self) -> list:
        # The engine re-settles rows without ``_refresh``, which drops the
        # object node's cache; the state caches per settled stretch instead.
        return self.s.tree_neighbors()

    def locally_stabilized(self) -> bool:
        """Vectorized twin of :meth:`MDSTNode._locally_stabilized`.

        The predicate is pure, so evaluating its five clauses over the
        node's CSR slice (instead of per-field proxy reads) returns the
        identical boolean.  It gates every Search a control handler
        forwards, which makes it the hottest scalar call of the array
        backend.  A :attr:`~ArrayKernel.settled` node answers from
        ``locally_stab``: nothing has written its columns since the pass
        that computed that verdict.  The object node's cache is never
        read here, for the engine re-settles rows without ``_refresh``.
        """
        s = self.s
        k = s._k
        i = s._i
        if k.settled[i]:
            return bool(k.locally_stab[i])
        lo, hi = s._lo, s._hi
        root = k.root[i]
        d = k.distance[i]
        me = self.node_id
        # _new_root_candidate: incoherent parent or distance out of bounds.
        if d >= s.n_upper or root > me:
            return False
        parent = k.parent[i]
        if parent == me:
            if root != me or d != 0:
                return False
        else:
            j = s.view._local.get(int(parent))
            if j is None:
                return False
            f = lo + j
            if k.v_heard[f]:
                # _coherent_parent and _coherent_distance.
                if k.v_root[f] != root or d != k.v_distance[f] + 1:
                    return False
        if not k.color[i]:
            return False
        # _better_parent, _degree_stabilized and color_stabilized, fused
        # into one pass over the slice (color[i] is True here, so the color
        # clause reduces to a heard neighbour voting False).
        vh = k.v_heard[lo:hi]
        bad = vh & ((k.v_root[lo:hi] < root)
                    | (k.v_dmax[lo:hi] != k.dmax[i])
                    | (~k.v_color[lo:hi]))
        return not bad.any()


class ArrayChannel(Channel):
    """A channel whose gossip traffic is *virtual*.

    The vectorized rounds never touch channel queues for gossip: one
    counter per source records how many gossip tokens it minted
    (``ArrayNetwork._vg_sent_src``) and one counter per directed edge
    (``ArrayNetwork._vg_del_row``) how many this channel consumed.  The
    difference is the channel's in-flight token count, at most two -- the
    current generation (the source's ``g_*`` snapshot columns) and the
    previous one (``go_*``).  This class makes that bookkeeping observable
    through the ordinary :class:`Channel` surface, and length/iteration/
    peek include the in-flight tokens.  It overrides only the ``stats``
    read property, which folds the token counters into the channel's
    :class:`~repro.sim.channel.ChannelStats` on each read.  The physical
    send and delivery paths update those counters in place without a
    fold: every counter is a sum or a maximum, so the order in which the
    virtual and the physical updates reach it does not change its value.

    Tokens are ordered against the physical queue by one per-edge count,
    ``ArrayNetwork._vg_ahead``: the oldest ``ahead`` tokens logically
    *precede* the physical queue, every other token follows it, so the
    delivery order is "ahead tokens, physical queue, remaining tokens",
    oldest token first.  A send onto an empty queue turns the in-flight
    tokens into ahead tokens (no message object is built); a send onto a
    non-empty queue with tokens behind it first materializes the tokens; a
    mint appends the newest token, and a mint that would overwrite a
    still-unconsumed previous generation materializes that oldest token.
    Materialization always takes the oldest tokens, ahead ones to the
    *front* of the queue, so the tokens left in flight are the newest and
    a pop's generation follows from the in-flight count alone.  The ahead
    count is non-zero only while the physical queue is non-empty, since
    the queue pops only after the ahead tokens.

    ``max_queue_length`` is best-effort in the engine (a queue that only
    ever carried virtual gossip reports its token peak); per-channel
    queue-depth peaks are not part of the byte-identity contract (no
    run-result field reads them), while ``sent``/``delivered``/
    ``max_message_bits`` stay exact.
    """

    __slots__ = ("_net", "_src_i", "_row", "_vs_base", "_vd_base")

    def __init__(self, src: NodeId, dst: NodeId, network_size: int,
                 net: "ArrayNetwork", src_i: int, row: int):
        super().__init__(src, dst, network_size=network_size)
        self._net = net
        self._src_i = src_i
        #: Flat view row of this channel at the destination (the per-edge
        #: slot of the consumed counter).
        self._row = row
        self._vs_base = 0
        self._vd_base = 0

    @property
    def stats(self):
        # Deltas are clamped to >= 0 independently: a materialized channel
        # carries a *lookahead* delivered base (the round trip completes as
        # a physical delivery instead), so its delivered base may run ahead
        # of the consumed counter until the physical pop happens.
        st = self._stats
        net = self._net
        vs = int(net._vg_sent_src[self._src_i])
        if vs > self._vs_base:
            st.sent += vs - self._vs_base
            self._vs_base = vs
            if st.max_queue_length < 1:
                st.max_queue_length = 1
            bits = net._minfo_bits
            if bits > st.max_message_bits:
                st.max_message_bits = bits
        vd = int(net._vg_del_row[self._row])
        if vd > self._vd_base:
            st.delivered += vd - self._vd_base
            self._vd_base = vd
        return st

    def _pending(self) -> int:
        """In-flight token count (0, 1 or 2; 1 is always the current
        generation, 2 adds the previous one in front of it)."""
        net = self._net
        return int(net._vg_sent_src[self._src_i]) - int(net._vg_del_row[self._row])

    # The overrides below keep ``ArrayNetwork._row_physical[row]`` equal to
    # "the physical queue is non-empty and no token is ahead of it"; the
    # owning network's routes do the rest of the kernel's accounting.

    def send(self, message) -> int:
        # The message goes behind the in-flight tokens: onto an empty queue
        # they become ahead tokens; tokens behind a non-empty queue (or any
        # placement a channel model decides) materialize first.
        net = self._net
        row = self._row
        p = self._pending()
        if p and (self._model is not None
                  or (self._queue and p > net._vg_ahead[row])):
            net._materialize_channel(self)
            p = 0
        was_empty = not self._queue
        placed = super().send(message)
        if was_empty and self._queue:
            if p:
                net._vg_ahead[row] = p
            else:
                net._row_physical[row] = True
        return placed

    def deliver(self):
        net = self._net
        row = self._row
        if net._vg_ahead[row] or (not self._queue and self._pending()):
            net._materialize_channel(self)
        message = super().deliver()
        if not self._queue:
            net._row_physical[row] = False
        return message

    def peek(self):
        return next(iter(self), None)

    def preload(self, messages) -> None:
        if self._pending():
            self._net._materialize_channel(self)
        super().preload(messages)
        if self._queue:
            self._net._row_physical[self._row] = True

    def clear(self) -> int:
        if self._pending():
            self._net._materialize_channel(self)
        self._net._row_physical[self._row] = False
        return super().clear()

    def __len__(self) -> int:
        return len(self._queue) + self._pending()

    def __bool__(self) -> bool:
        return bool(self._queue) or self._pending() > 0

    def __iter__(self):
        p = self._pending()
        tokens = [self._net._gossip_minfo(self._src_i, old=p - g >= 2)
                  for g in range(p)]
        ahead = int(self._net._vg_ahead[self._row])
        yield from tokens[:ahead]
        yield from self._queue
        yield from tokens[ahead:]


def channel_rows(network: Network):
    """Per flat view row: its channel, creation rank and destination index.

    Returns ``(row_channel, row_order, row_dst)`` for a network whose
    ``kernel`` lays the views out in CSR rows: ``row_channel[f]`` is the
    channel object that writes row ``f``, ``row_order[f]`` its rank in the
    network's channel-creation order (the order of ``enabled_deliveries``)
    and ``row_dst[f]`` the node index of its destination.  The topology is
    frozen, so the structure is built once per network.
    """
    cache = getattr(network, "_channel_rows", None)
    if cache is None:
        k = network.kernel
        pos = k.pos
        row_channel: List[Optional[Channel]] = [None] * k.total
        row_order = np.zeros(k.total, dtype=_I64)
        order = network._channel_order
        for (src, dst), ch in network.channels.items():
            row = pos[(dst, src)]
            row_channel[row] = ch
            row_order[row] = order[(src, dst)]
        cache = (row_channel, row_order, np.repeat(k._all_idx, k._row_counts))
        network._channel_rows = cache
    return cache


class _LazyMap(dict):
    """A fixed-key mapping whose values materialize on first access.

    Backs the array network's ``processes`` / ``channels`` /
    ``adjacency`` maps: the key set is frozen at construction (the array
    topology is immutable), values are built by ``factory(key)`` on first
    ``[]`` and cached in the underlying dict.  Iteration and membership
    consult the frozen key list without materializing anything; ``values``
    / ``items`` (and generic mapping copies, which go through ``keys`` +
    ``__getitem__`` because ``__iter__`` is overridden) materialize
    everything.  The structural mutators raise: the network rejects live
    topology churn before any of them could be reached legitimately.
    """

    __slots__ = ("_keys", "_keyset", "_factory")

    def __init__(self, keys, factory):
        super().__init__()
        self._keys = tuple(keys)
        self._keyset = None  # built on first membership test
        self._factory = factory

    def _valid(self, key) -> bool:
        ks = self._keyset
        if ks is None:
            ks = self._keyset = frozenset(self._keys)
        return key in ks

    def __missing__(self, key):
        if not self._valid(key):
            raise KeyError(key)
        value = self._factory(key)
        dict.__setitem__(self, key, value)
        return value

    def __contains__(self, key):
        return self._valid(key)

    def __len__(self):
        return len(self._keys)

    def __iter__(self):
        return iter(self._keys)

    def keys(self):
        return self._keys

    def values(self):
        return [self[k] for k in self._keys]

    def items(self):
        return [(k, self[k]) for k in self._keys]

    def get(self, key, default=None):
        try:
            return self[key]
        except KeyError:
            return default

    def copy(self):
        return {k: self[k] for k in self._keys}

    def _frozen(self, *args, **kwargs):
        raise SimulationError("the array backend's maps are frozen")

    __setitem__ = __delitem__ = _frozen
    pop = popitem = clear = update = setdefault = _frozen


class ArrayNetwork(Network):
    """A :class:`~repro.sim.network.Network` whose nodes share array state.

    Subclasses the object kernel rather than duck-typing it: channels,
    enabled-event tracking, dirty-set snapshot caches, quiescence and the
    whole monitor/fault stack are inherited and therefore behave (and
    count) identically.  What changes is (a) node state storage and (b)
    *virtual gossip*: a timeout's ``MInfo`` broadcast is a token minted
    from the sender's snapshot columns (:meth:`_mint`), which the slot
    engine of :mod:`repro.sim.array_engine` consumes without building a
    message object, and which materializes on demand whenever the object
    code path looks at the channel.  Live topology mutation is rejected:
    the flat layout is frozen at construction.
    """

    def __init__(self, graph: "nx.Graph | EdgeArrayGraph", *, n_upper: int,
                 search_period: int = 3, deblock_cooldown: int = 30,
                 enable_reduction: bool = True):
        if isinstance(graph, nx.Graph):
            # The one conversion.  ``check_network`` rejects what edge-array
            # canonicalization would silently drop (self-loops) or never
            # sees (a directed or empty graph).  Ids need not be 0..n-1, so
            # the arrays index the sorted ids; the channels follow the nx
            # edge order, as the object build's do.
            check_network(graph)
            ids = np.array(sorted(graph.nodes), dtype=_I64)
            ends = np.fromiter(itertools.chain.from_iterable(graph.edges),
                               dtype=_I64, count=2 * graph.number_of_edges())
            us, vs = ends[0::2], ends[1::2]
            topology = EdgeArrayGraph(len(ids), np.searchsorted(ids, us),
                                      np.searchsorted(ids, vs), validate=False)
            self._graph: Optional[nx.Graph] = graph
        else:
            topology = graph.validate()
            ids = np.arange(graph.n, dtype=_I64)
            us, vs = graph.edges_u, graph.edges_v
            self._graph = None  # materialized by the ``graph`` property
        self._topology = topology
        self.kernel = kernel = ArrayKernel(ids, topology, n_upper)
        self._enable_reduction = enable_reduction
        #: All MInfo gossip is the same shape, so its bit size is a per-run
        #: constant; computing it once keeps it off the batched hot path.
        self._minfo_bits: int = _minfo_bits_for(kernel.n)
        # -- virtual gossip token state (read by ArrayChannel) ------------------
        #: Gossip tokens each source has minted so far (one per mint on each
        #: of its out-channels).
        self._vg_sent_src = np.zeros(kernel.n, dtype=_I64)
        #: Tokens each directed edge (indexed by its flat view row at the
        #: destination) has consumed -- by a vectorized pop, a scalar
        #: delivery or a materialization.  ``sent[src] - del_row[row]`` is
        #: the channel's in-flight token count; the invariant
        #: ``del_row >= sent - 2`` (tokens older than one generation are
        #: materialized at mint time) keeps two snapshot generations
        #: sufficient.
        self._vg_del_row = np.zeros(kernel.total, dtype=_I64)
        #: Total in-flight (virtual) tokens across all channels.
        self._vg_virtual_total = 0
        #: In-flight tokens per directed edge that logically precede its
        #: physical queue (see :class:`ArrayChannel`).
        self._vg_ahead = np.zeros(kernel.total, dtype=_I64)
        #: Whether the next pop of each directed edge is physical (a
        #: non-empty queue and no ahead token): the engine pops those one
        #: by one and all others virtually.
        self._row_physical = np.zeros(kernel.total, dtype=bool)
        #: Lazy CSR transpose for :meth:`_mint`.
        self._out_rows_cache = None
        #: The slot engine's column work, built by its first batched round
        #: (:func:`repro.sim.array_engine.get_ops`).
        self._ops = None
        #: ``snapshot_key`` cache: ``(version, key)`` over the state columns.
        self._acols_key_cache = None

        def factory(node_id: NodeId, neighbors: Sequence[NodeId]) -> ArrayMDSTNode:
            return ArrayMDSTNode(node_id, neighbors, kernel, n_upper=n_upper,
                                 search_period=search_period,
                                 deblock_cooldown=deblock_cooldown,
                                 enable_reduction=enable_reduction)

        # The object network's fields, with the per-object maps replaced by
        # lazy ones over frozen key lists: processes materialize when the
        # simulator starts them, channels when the first round's structures
        # are assembled, so construction costs O(arrays) for any n and m.
        self.n = kernel.n
        self.m = topology.number_of_edges()
        self.node_ids = list(kernel.node_ids)
        self._init_kernel_state(factory)
        indptr, nbr_ids, index = kernel.indptr, kernel.nbr_ids, kernel.index

        def adjacency_of(v: NodeId):
            i = index[v]
            return tuple(nbr_ids[int(indptr[i]):int(indptr[i + 1])].tolist())

        self.adjacency = _LazyMap(self.node_ids, adjacency_of)
        self.processes = _LazyMap(self.node_ids, self._make_process)
        # Directed channel keys in creation order -- (u, v) then (v, u) per
        # edge -- assembled with C-level zips, no per-edge loop.
        us, vs = us.tolist(), vs.tolist()
        keys = itertools.chain.from_iterable(zip(zip(us, vs), zip(vs, us)))
        self.channels = _LazyMap(keys, self._make_channel)
        self._channel_order_cache: Optional[Dict] = None

    def _make_channel(self, key) -> "ArrayChannel":
        """Build one directed channel (the lazy-map factory).

        Virtual-gossip counters are global (indexed by source and flat
        row), so a channel materializing mid-run observes exactly the token
        history one built at the start would have.
        """
        src, dst = key
        channel = ArrayChannel(src, dst, self.n, self,
                               int(self.kernel.index[src]),
                               self.kernel.pos[(dst, src)])
        if self._channel_model is not None:
            channel.set_model(self._channel_model)
        return channel

    # -- lazy structures --------------------------------------------------------

    @property
    def graph(self) -> nx.Graph:
        """The nx view of the topology: the caller's graph, or one
        materialized on first use from an edge-array input.

        Legitimacy predicates and fault planners are the consumers, none of
        which run at construction; identity is stable after the first
        access, which the identity-keyed predicate memos rely on.
        """
        if self._graph is None:
            self._graph = self._topology.to_networkx()
        return self._graph

    @property
    def _channel_order(self) -> Dict:
        """Channel-creation order: the rank of each key of ``channels``."""
        d = self._channel_order_cache
        if d is None:
            d = self._channel_order_cache = dict(
                zip(self.channels.keys(), itertools.count()))
        return d

    def initialize_isolated_columns(self) -> None:
        """Vectorized twin of :func:`repro.protocols.mdst.initialize_isolated`.

        One assignment per column instead of one Python loop per node; the
        written values are the definition of the isolated configuration, so
        both routes land on identical columns.
        """
        k = self.kernel
        k.root[:] = k.ids
        k.parent[:] = k.ids
        k.distance[:] = 0
        k.sub_max[:] = 0
        k.dmax[:] = 0
        k.color[:] = True
        k.v_heard[:] = False
        self.note_state_write()

    def _unsettle(self, node: Optional[NodeId]) -> None:
        # The nodes' settled flags are the kernel column (see
        # ``ArrayMDSTNode._settled``): no process is touched, or built.
        if node is None:
            self.kernel.settled[:] = False
        else:
            self.kernel.settled[self.kernel.index[node]] = False

    # -- dynamic topology is rejected ------------------------------------------

    def add_edge(self, u: NodeId, v: NodeId) -> None:
        raise SimulationError(
            "the array backend does not support live topology churn")

    def remove_edge(self, u: NodeId, v: NodeId) -> None:
        raise SimulationError(
            "the array backend does not support live topology churn")

    def add_node(self, v: NodeId, neighbors=()):
        raise SimulationError(
            "the array backend does not support live topology churn")

    def remove_node(self, v: NodeId):
        raise SimulationError(
            "the array backend does not support live topology churn")

    # -- vectorized snapshot refresh -------------------------------------------

    def _refresh_dirty(self) -> None:
        """Vectorize the derived-degree part of the dirty-set refresh.

        The object backend pays O(deg) per dirty node to derive ``deg_v``;
        here one segment reduction covers the whole dirty set, and the
        per-node dict compare/build matches the parent class exactly.
        """
        dirty = self._dirty
        if not dirty:
            return
        k = self.kernel
        order = sorted(dirty)
        S = np.fromiter((k.index[v] for v in order), dtype=_I64,
                        count=len(order))
        degs = k.compute_degrees(S)
        roots = k.root[S].tolist()
        parents = k.parent[S].tolist()
        dists = k.distance[S].tolist()
        subs = k.sub_max[S].tolist()
        dmaxs = k.dmax[S].tolist()
        colors = k.color[S].tolist()
        degl = degs.tolist()
        node_snaps = self._node_snaps
        from types import MappingProxyType
        for j, v in enumerate(order):
            snap = {"root": roots[j], "parent": parents[j],
                    "distance": dists[j], "degree": degl[j],
                    "sub_max": subs[j], "dmax": dmaxs[j], "color": colors[j]}
            if node_snaps.get(v) == snap:
                continue
            node_snaps[v] = snap
            self._node_views[v] = MappingProxyType(snap)
            self._node_keys.pop(v, None)
            self._snaps_stale = True
        dirty.clear()

    # -- virtual gossip --------------------------------------------------------

    def _out_rows(self):
        """The CSR transpose, built once: every source's out-channel rows
        (``flat``), grouped by source index (``starts``/``counts``)."""
        cache = self._out_rows_cache
        if cache is None:
            k = self.kernel
            counts = np.bincount(k.nbr_idx, minlength=k.n).astype(_I64)
            starts = np.zeros(k.n, dtype=_I64)
            np.cumsum(counts[:-1], out=starts[1:])
            cache = (np.argsort(k.nbr_idx, kind="stable"), starts, counts)
            self._out_rows_cache = cache
        return cache

    def _gossip_minfo(self, si: int, old: bool = False) -> MInfo:
        """The ``MInfo`` a token of source ``si`` means: the current
        generation's snapshot columns, or with ``old`` the previous one's."""
        r, p, d, deg, sm, dm, c = (self.kernel.go_cols if old
                                   else self.kernel.g_cols)
        return MInfo(root=int(r[si]), parent=int(p[si]), distance=int(d[si]),
                     degree=int(deg[si]), sub_max=int(sm[si]),
                     dmax=int(dm[si]), color=bool(c[si]))

    def _materialize_channel(self, ch: ArrayChannel,
                             count: Optional[int] = None) -> None:
        """Turn the ``count`` oldest in-flight tokens of ``ch`` (all of them
        by default) into ``MInfo`` objects on its queue.

        Ahead tokens go to the front of the queue and the others to its
        back, so the queue keeps the delivery order; when the oldest token
        is an ahead token, all ahead tokens go, so the tokens left in
        flight are always the newest (the generation of a pop depends on
        it).  The channel's delivered base runs ahead of the consumed
        counter afterwards (a *lookahead*): the round trips complete as
        physical deliveries instead, so the counter bumps must not be
        folded into its stats a second time.
        """
        row = ch._row
        si = ch._src_i
        p = int(self._vg_sent_src[si]) - int(self._vg_del_row[row])
        count = p if count is None else min(count, p)
        if count <= 0:
            return
        ahead = int(self._vg_ahead[row])
        count = max(count, ahead)
        st = ch.stats  # flush the pending virtual ``sent`` first
        q = ch._queue
        tokens = [self._gossip_minfo(si, old=p - g >= 2)
                  for g in range(count)]
        q.extendleft(reversed(tokens[:ahead]))
        q.extend(tokens[ahead:])
        self._vg_ahead[row] = 0
        self._vg_del_row[row] += count
        ch._vd_base += count
        self._vg_virtual_total -= count
        length = len(q)
        if length > st.max_queue_length:
            st.max_queue_length = length
        self._active.add(ch.key)
        self._row_physical[row] = True

    def _mint(self, S: np.ndarray) -> int:
        """Mint one gossip token per out-channel of the node indices ``S``.

        The array twin of a physical gossip broadcast: any out-channel
        still holding the source's *previous*-generation token materializes
        it (its snapshot buffer is about to be reused), the snapshot
        generations shift (current -> previous), the post-refresh state
        columns become the new current generation, and the sent counters
        advance.  Returns the number of (virtual) sends; the caller
        accounts version/stats/trace.
        """
        k = self.kernel
        vm = self._vg_sent_src
        dr = self._vg_del_row
        out_flat, out_starts, out_counts = self._out_rows()
        cnts = out_counts[S]
        tot = int(cnts.sum())
        starts = np.zeros(len(S), dtype=_I64)
        np.cumsum(cnts[:-1], out=starts[1:])
        R = out_flat[np.repeat(out_starts[S] - starts, cnts)
                     + np.arange(tot, dtype=_I64)]
        stale = R[dr[R] < vm[k.nbr_idx[R]] - 1]
        if len(stale):
            row_channel = channel_rows(self)[0]
            for row in stale.tolist():
                self._materialize_channel(row_channel[row], 1)
        for name, g, go in zip(_GOSSIP_FIELDS, k.g_cols, k.go_cols):
            go[S] = g[S]
            g[S] = getattr(k, name)[S]
        vm[S] += 1
        self._vg_virtual_total += tot
        self._pending_total += tot
        return tot

    def backlog(self) -> np.ndarray:
        """Deliverable messages per flat view row: in-flight tokens plus
        the physical queue of every active channel."""
        k = self.kernel
        counts = self._vg_sent_src[k.nbr_idx] - self._vg_del_row
        channels = self.channels
        for key in self._active:
            ch = channels[key]
            counts[ch._row] += len(ch._queue)
        return counts

    def enabled_deliveries(self):
        """Enabled deliveries with in-flight virtual tokens made visible.

        The parent enumerates the active set, which tracks *physical*
        queues only; had the tokens been physical sends their channels
        would all be active, so the object schedulers of the fallback
        rounds must see them.  Channel order, the disabled-destination skip
        and the per-channel counts (``len`` includes the tokens) match the
        parent exactly.
        """
        if not self._vg_virtual_total:
            return super().enabled_deliveries()
        counts = self.backlog()
        row_channel, row_order, _ = channel_rows(self)
        rows = np.nonzero(counts)[0]
        rows = rows[np.argsort(row_order[rows])]
        disabled = self._disabled
        enabled = []
        for row, cnt in zip(rows.tolist(), counts[rows].tolist()):
            ch = row_channel[row]
            if ch.dst not in disabled:
                enabled.append((ch.src, ch.dst, cnt))
        return enabled

    def snapshot_key(self) -> tuple:
        """Fingerprint the configuration straight from the state columns.

        The per-node snapshot is exactly the seven ``MDSTState`` fields
        (six own columns plus the derived tree degree), so a digest over
        those columns is a sound equality key for the predicate cache:
        equal keys imply equal snapshot maps.  This skips the parent
        class's per-node dict assembly entirely on the hot path.
        """
        cached = self._acols_key_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        k = self.kernel
        degrees = k.compute_degrees(k._all_idx)
        h = hashlib.md5()
        h.update(k.root.tobytes())
        h.update(k.parent.tobytes())
        h.update(k.distance.tobytes())
        h.update(degrees.tobytes())
        h.update(k.sub_max.tobytes())
        h.update(k.dmax.tobytes())
        h.update(k.color.tobytes())
        key = ("array-cols", h.digest())
        self._acols_key_cache = (self._version, key)
        return key

