"""Array-backed vectorized kernel backend for large-``n`` runs.

The object-per-node simulator pays an interpreter-level constant for every
message delivery and every rule evaluation; at n >= 256 that constant is the
throughput ceiling (BENCH_scaling.json).  This module provides the
``backend="array"`` alternative behind the *same*
:class:`~repro.sim.network.Network` / :class:`~repro.sim.scheduler.Scheduler`
contracts:

* **Topology** lives in a CSR adjacency structure (built through
  :mod:`scipy.sparse` when available): ``indptr``/``nbr_idx``/``nbr_ids``
  arrays over the sorted node ids.  A node's neighbour views are the flat
  rows of its CSR segment, and every vectorized pass works on segments.
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
  (``corrupt``), the initial-configuration installers, the monitors and
  every non-synchronous scheduler therefore run the *identical* algorithm
  code against array storage -- the vectorized fast path below is an
  optimization of the synchronous round only, and any configuration it does
  not cover falls back to the shared scalar code path.
* **The synchronous round is batched** (:meth:`ArrayNetwork.run_sync_round`):
  the round-start ``MInfo`` backlog is applied as vectorized per-slot
  scatter writes followed by one vectorized rule evaluation per slot
  (sequential per-message semantics are preserved: slot ``j`` applies the
  ``j``-th delivery of every destination, exactly the per-destination order
  of :meth:`~repro.sim.scheduler.Scheduler._deliver_round_start_backlog`),
  the spanning-tree rules R1/R2/R3 and the PIF degree layer are evaluated
  with CSR segment reductions (``np.ufunc.reduceat``), and the
  legitimacy-relevant predicate columns (``locally_stabilized``) come out of
  the same pass.  Control messages stay scalar -- they are rare by design
  (the gossip is the O(m)-per-round traffic).

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

from ..core.messages import Deblock, MInfo, Search, UpdateDist
from ..core.node_algorithm import MDSTNode
from ..exceptions import ProtocolError, SimulationError
from ..graphs.edge_array import EdgeArrayGraph
from ..types import NodeId
from .channel import Channel
from .messages import GarbageMessage
from .network import EnabledEvents, Network
from .scheduler import RoundStats, SynchronousScheduler
from .trace import TraceRecorder

__all__ = [
    "ArrayChannel",
    "ArrayKernel",
    "ArrayBackedState",
    "ArrayMDSTNode",
    "ArrayNetwork",
    "ArraySyncScheduler",
    "build_array_mdst_network",
]

_I64 = np.int64
_INT_MAX = np.iinfo(np.int64).max
#: The empty node-index set (``ArrayKernel.refresh`` with no gate nodes).
_NO_NODES = np.zeros(0, dtype=_I64)


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


def _build_csr(graph: nx.Graph, node_ids: List[NodeId]):
    """CSR adjacency (indptr, neighbour indices, neighbour ids) over sorted ids.

    Goes through :mod:`scipy.sparse` when available (the exemplar layout --
    APGL's sparse-matrix graphs); otherwise assembles the same arrays
    directly.  Neighbour lists come out sorted by id either way, matching
    the insertion order of the object backend's per-node view dicts.
    """
    n = len(node_ids)
    index = {v: i for i, v in enumerate(node_ids)}
    try:  # pragma: no cover - exercised when scipy is installed (CI lane)
        from scipy.sparse import csr_matrix

        rows, cols = [], []
        for u, v in graph.edges:
            ui, vi = index[u], index[v]
            rows.append(ui)
            cols.append(vi)
            rows.append(vi)
            cols.append(ui)
        data = np.ones(len(rows), dtype=np.int8)
        adj = csr_matrix((data, (rows, cols)), shape=(n, n))
        adj.sort_indices()
        indptr = adj.indptr.astype(_I64)
        nbr_idx = adj.indices.astype(_I64)
    except ImportError:
        counts = np.zeros(n + 1, dtype=_I64)
        for u, v in graph.edges:
            counts[index[u] + 1] += 1
            counts[index[v] + 1] += 1
        indptr = np.cumsum(counts).astype(_I64)
        nbr_idx = np.zeros(int(indptr[-1]), dtype=_I64)
        cursor = indptr[:-1].copy()
        for u, v in graph.edges:
            ui, vi = index[u], index[v]
            nbr_idx[cursor[ui]] = vi
            cursor[ui] += 1
            nbr_idx[cursor[vi]] = ui
            cursor[vi] += 1
        for i in range(n):
            seg = nbr_idx[indptr[i]:indptr[i + 1]]
            seg.sort()
    ids = np.asarray(node_ids, dtype=_I64)
    nbr_ids = ids[nbr_idx]
    return index, indptr, nbr_idx, nbr_ids


class ArrayKernel:
    """The shared column store: CSR topology plus flat state columns.

    One instance backs every :class:`ArrayBackedState` of a network; the
    vectorized round operates on these columns directly.
    """

    def __init__(self, graph: "nx.Graph | EdgeArrayGraph", n_upper: int):
        if isinstance(graph, EdgeArrayGraph):
            # CSR-direct: the container's cached CSR *is* the kernel
            # topology.  Node ids are the contiguous 0..n-1, so index,
            # neighbour indices and neighbour ids all coincide and no
            # per-edge Python loop runs.
            self.node_ids = list(range(graph.n))
            self.n = graph.n
            self.n_upper = int(n_upper)
            indptr, nbr = graph.csr()
            self.index = {v: v for v in self.node_ids}
            self.indptr = indptr
            self.nbr_idx = nbr
            self.nbr_ids = nbr
        else:
            self.node_ids = sorted(graph.nodes)
            self.n = len(self.node_ids)
            self.n_upper = int(n_upper)
            self.index, self.indptr, self.nbr_idx, self.nbr_ids = _build_csr(
                graph, self.node_ids)
        self.ids = np.asarray(self.node_ids, dtype=_I64)
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
        # -- gossip snapshot columns --------------------------------------------
        # The state each node last gossiped (copied at the end of the
        # vectorized timeout phase).  A gossip *token* on a channel stands
        # for "the MInfo ``src`` sent last round" and resolves against these
        # columns, so the synchronous fast path never builds message objects
        # for the O(m)-per-round gossip traffic.
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
        #: node *index* (not id) of the neighbour at each flat view row.
        #: ``nbr_ids = ids[nbr_idx]`` with ``ids`` sorted and unique, so the
        #: index of each neighbour id is just ``nbr_idx`` itself (both
        #: arrays are frozen topology; sharing is safe).
        self.nbr_node_idx = self.nbr_idx
        # Scalar-path position lookup, built lazily (see the ``pos``
        # property): construction never needs it, and the CSR-direct build
        # path must stay free of per-edge Python dict fills.
        self._pos_cache: Optional[Dict[Tuple[NodeId, NodeId], int]] = None
        self._full_flat = np.arange(total, dtype=_I64)
        self._full_starts = self.indptr[:-1].astype(np.intp)
        self._all_idx = np.arange(self.n, dtype=_I64)
        self._row_counts = np.diff(self.indptr).astype(_I64)

    @property
    def pos(self) -> Dict[Tuple[NodeId, NodeId], int]:
        """Scalar-path lookup ``(owner id, neighbour id) -> flat view row``.

        Row order follows the CSR layout (owner-major, neighbour-id minor),
        exactly the order the eager per-edge fill used to produce.  Built on
        first use -- typically when the first channel materializes -- so
        network *construction* stays O(arrays).
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
        layer exactly as :meth:`~repro.core.node_algorithm.MDSTNode.
        _apply_tree_rules` / ``_update_degree_layer`` do per node, writing
        the state columns of ``S`` in place.  With ``predicates=True`` the
        pass also refreshes :attr:`locally_stab` (the reduction-layer gate)
        for ``S``.

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


class NeighborProxy:
    """A :class:`~repro.core.state.NeighborState` view over one flat row."""

    __slots__ = ("_k", "_f")

    def __init__(self, kernel: ArrayKernel, flat: int):
        self._k = kernel
        self._f = flat

    # Getters convert to Python scalars so values flowing into messages,
    # snapshots and JSON rows are indistinguishable from the object backend.
    @property
    def root(self) -> int:
        return int(self._k.v_root[self._f])

    @root.setter
    def root(self, value) -> None:
        self._k.v_root[self._f] = value

    @property
    def parent(self) -> int:
        return int(self._k.v_parent[self._f])

    @parent.setter
    def parent(self, value) -> None:
        self._k.v_parent[self._f] = value

    @property
    def distance(self) -> int:
        return int(self._k.v_distance[self._f])

    @distance.setter
    def distance(self, value) -> None:
        self._k.v_distance[self._f] = value

    @property
    def degree(self) -> int:
        return int(self._k.v_degree[self._f])

    @degree.setter
    def degree(self, value) -> None:
        self._k.v_degree[self._f] = value

    @property
    def sub_max(self) -> int:
        return int(self._k.v_sub_max[self._f])

    @sub_max.setter
    def sub_max(self, value) -> None:
        self._k.v_sub_max[self._f] = value

    @property
    def dmax(self) -> int:
        return int(self._k.v_dmax[self._f])

    @dmax.setter
    def dmax(self, value) -> None:
        self._k.v_dmax[self._f] = value

    @property
    def color(self) -> bool:
        return bool(self._k.v_color[self._f])

    @color.setter
    def color(self, value) -> None:
        self._k.v_color[self._f] = value

    @property
    def heard(self) -> bool:
        return bool(self._k.v_heard[self._f])

    @heard.setter
    def heard(self, value) -> None:
        self._k.v_heard[self._f] = value

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
        self._proxies = tuple(NeighborProxy(kernel, self._lo + i)
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

    __slots__ = ("_k", "_i", "_lo", "_hi", "node_id", "neighbors", "n_upper",
                 "view", "_nbr_arr")

    def __init__(self, kernel: ArrayKernel, node_id: NodeId):
        self._k = kernel
        self._i = kernel.index[node_id]
        self._lo = int(kernel.indptr[self._i])
        self._hi = int(kernel.indptr[self._i + 1])
        self.node_id = node_id
        self.n_upper = kernel.n_upper
        self.view = ArrayViewMap(kernel, self._i)
        self.neighbors = self.view.keys()
        self._nbr_arr = kernel.nbr_ids[self._lo:self._hi]

    # -- own variables ---------------------------------------------------------

    @property
    def root(self) -> int:
        return int(self._k.root[self._i])

    @root.setter
    def root(self, value) -> None:
        self._k.root[self._i] = value

    @property
    def parent(self) -> int:
        return int(self._k.parent[self._i])

    @parent.setter
    def parent(self, value) -> None:
        self._k.parent[self._i] = value

    @property
    def distance(self) -> int:
        return int(self._k.distance[self._i])

    @distance.setter
    def distance(self, value) -> None:
        self._k.distance[self._i] = value

    @property
    def sub_max(self) -> int:
        return int(self._k.sub_max[self._i])

    @sub_max.setter
    def sub_max(self, value) -> None:
        self._k.sub_max[self._i] = value

    @property
    def dmax(self) -> int:
        return int(self._k.dmax[self._i])

    @dmax.setter
    def dmax(self, value) -> None:
        self._k.dmax[self._i] = value

    @property
    def color(self) -> bool:
        return bool(self._k.color[self._i])

    @color.setter
    def color(self, value) -> None:
        self._k.color[self._i] = value

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
        return [int(u) for u in self._nbr_arr[self._tree_mask()]]

    def children(self) -> list:
        k = self._k
        lo, hi = self._lo, self._hi
        mask = k.v_heard[lo:hi] & (k.v_parent[lo:hi] == self.node_id)
        return [int(u) for u in self._nbr_arr[mask]]

    @property
    def degree(self) -> int:
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
        # Exactly the draw sequence of MDSTState.corrupt, scattered into
        # the columns.
        pool = list(self.neighbors) + [self.node_id,
                                       int(rng.integers(-5, self.n_upper + 5))]
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
        import math
        idbits = max(1, math.ceil(math.log2(max(network_size, 2)))) + 1
        own = 5 * idbits + 1
        per_neighbor = 6 * idbits + 2
        return own + per_neighbor * len(self.neighbors)

    def snapshot(self) -> Dict[str, object]:
        return {
            "root": self.root,
            "parent": self.parent,
            "distance": self.distance,
            "degree": self.degree,
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

    def locally_stabilized(self) -> bool:
        """Vectorized twin of :meth:`MDSTNode.locally_stabilized`.

        The predicate is pure, so evaluating its five clauses over the
        node's CSR slice (instead of per-field proxy reads) returns the
        identical boolean.  It gates every Search delivery, which makes it
        the hottest scalar call of the array backend's sync fast path.
        """
        s = self.s
        k = s._k
        i = s._i
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


#: The slot descriptor behind :attr:`Channel.stats`, used by
#: :class:`ArrayChannel` to reach the raw counters under its lazy property.
_RAW_STATS = Channel.__dict__["stats"]


class ArrayChannel(Channel):
    """A channel whose gossip traffic is *virtual*.

    The vectorized rounds never touch channel queues for gossip: one
    counter per source records how many gossip tokens it minted
    (``ArrayNetwork._vg_sent_src``) and one counter per directed edge
    (``ArrayNetwork._vg_del_row``) how many this channel consumed.  The
    difference is the channel's in-flight token count, at most two -- the
    current generation (the source's ``g_*`` snapshot columns) and the
    previous one (``go_*``).  This class makes that bookkeeping observable
    through the ordinary :class:`Channel` surface: ``stats`` lazily folds
    the counters into the raw :class:`~repro.sim.channel.ChannelStats`,
    and length/iteration/peek include the in-flight tokens.

    The standing FIFO invariant is that every physically queued message
    logically *precedes* every in-flight token: control traffic enqueued
    behind a token first materializes the tokens, a mint appends the
    newest token, and a mint that would overwrite a still-unconsumed
    previous generation materializes that oldest token at the back of the
    physical queue.  Delivery order is therefore always "physical queue
    first, then tokens oldest-first".

    ``max_queue_length`` is best-effort on the fast path (a queue that only
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
        st = _RAW_STATS.__get__(self)
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

    @stats.setter
    def stats(self, value):
        _RAW_STATS.__set__(self, value)

    def _pending(self) -> int:
        """In-flight token count (0, 1 or 2; 1 is always the current
        generation, 2 adds the previous one in front of it)."""
        net = self._net
        return int(net._vg_sent_src[self._src_i]) - int(net._vg_del_row[self._row])

    def _enqueue(self, message, index=None) -> None:
        # Non-gossip traffic goes behind the in-flight tokens; make them
        # physical first so the queue order is the send order.
        if self._pending():
            self._net._materialize_channel(self)
        super()._enqueue(message, index)

    def deliver(self):
        if not self._queue and self._pending():
            self._net._materialize_channel(self)
        return super().deliver()

    def peek(self):
        if self._queue:
            return super().peek()
        p = self._pending()
        if p >= 2:
            return self._net._gossip_minfo_old(self._src_i)
        if p:
            return self._net._gossip_minfo(self._src_i)
        return super().peek()

    def preload(self, messages) -> None:
        if self._pending():
            self._net._materialize_channel(self)
        super().preload(messages)

    def clear(self) -> int:
        if self._pending():
            self._net._materialize_channel(self)
        return super().clear()

    def __len__(self) -> int:
        return len(self._queue) + self._pending()

    def __bool__(self) -> bool:
        return bool(self._queue) or self._pending() > 0

    def __iter__(self):
        yield from self._queue
        p = self._pending()
        if p >= 2:
            yield self._net._gossip_minfo_old(self._src_i)
        if p:
            yield self._net._gossip_minfo(self._src_i)


def mdst_slot_pass(network: "ArrayNetwork", rules: np.ndarray,
                   scalars: List[Tuple[NodeId, NodeId, object]]) -> List[bool]:
    """The one kernel pass of a slot: refresh ``rules``, judge ``scalars``.

    ``rules`` are the node indices whose rules the slot runs (its gossip
    destinations and its timeout actors); they are refreshed with the
    reduction-layer predicate on.  The return value says which of the
    popped control messages ``(dst, src, msg)`` are no-ops.  The MDST
    handlers drop a large share of Search-storm traffic at the door:
    ``Search``/``Deblock`` return immediately at a destination that is not
    locally stabilized, ``UpdateDist`` is ignored unless it arrives from
    the destination's current parent, garbage never matches a handler, and
    with the reduction layer disabled *every* non-gossip message is
    ignored.  Those early-returns read state but never write it, so the
    dropped messages can be accounted without running a handler; messages
    that would reach a real handler body are kept scalar.

    The ``Search``/``Deblock`` verdicts come out of the same
    :meth:`ArrayKernel.refresh` call as the rules, as its gate nodes.  A
    slot holds one event per node, so those destinations are distinct and
    disjoint from ``rules``.  Each verdict reads only its destination's own
    columns and view rows, which no other event of the slot writes, so it
    equals the predicate the handler would evaluate on arrival; and the
    timeout refresh may run ahead of the slot's control handlers because a
    handler writes only its own node's state and out-channels.
    """
    k = network.kernel
    nsc = len(scalars)
    if not network._enable_reduction:
        # MDSTNode.on_message returns before dispatch for every non-MInfo
        # message when the reduction layer is off.
        k.refresh(rules)
        return [True] * nsc
    drop = [False] * nsc
    gated: List[int] = []
    for j, (dst, src, msg) in enumerate(scalars):
        t = type(msg)
        if t is GarbageMessage:
            drop[j] = True
        elif t is Search or t is Deblock:
            gated.append(j)
        elif t is UpdateDist:
            drop[j] = int(k.parent[k.index[dst]]) != src
    G = np.fromiter((k.index[scalars[j][0]] for j in gated), dtype=_I64,
                    count=len(gated))
    stab = k.refresh(rules, predicates=True, gate=G)
    for j, ok in zip(gated, stab.tolist()):
        drop[j] = not ok
    return drop


def account_dropped_deliveries(network: Network,
                               trace: Optional[TraceRecorder],
                               stats: RoundStats,
                               dropped: List[Tuple[NodeId, NodeId, object]]
                               ) -> None:
    """Batched accounting for deliveries whose handler body was skipped.

    Exactly :meth:`Scheduler._deliver_one` minus the handler call and the
    (empty) outbox flush: the destination still takes an atomic step, the
    kernel still sees it, and the trace still counts the delivery with zero
    emitted messages.  Channel ``deliver()`` accounting happened at pop
    time.  Callers guarantee ``trace.keep_events`` is off (gated paths fall
    back to the scalar scheduler for full event logs).
    """
    count = len(dropped)
    processes = network.processes
    for dst, _src, _msg in dropped:
        processes[dst].steps_taken += 1
    network._dirty.update(dst for dst, _src, _msg in dropped)
    network._version += count
    stats.steps += count
    stats.deliveries += count
    if trace is not None:
        mtc = trace.message_type_counts
        nsz = trace.network_size
        for _dst, _src, msg in dropped:
            name = msg.type_name()
            mtc[name] = mtc.get(name, 0) + 1
            bits = msg.size_bits(nsz)
            if bits > trace.max_message_bits:
                trace.max_message_bits = bits
        trace.total_deliveries += count
        if trace.rounds:
            rec = trace.rounds[-1]
            rec.steps += count
            rec.deliveries += count


class _LazyMap(dict):
    """A fixed-key mapping whose values materialize on first access.

    Backs the CSR-direct build path's ``processes`` / ``channels`` /
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
    count) identically.  What changes is (a) node state storage and (b) the
    vectorized synchronous round (:meth:`run_sync_round`) that
    :class:`ArraySyncScheduler` drives.  Live topology mutation is rejected:
    the flat layout is frozen at construction.
    """

    def __init__(self, graph: "nx.Graph | EdgeArrayGraph", *, n_upper: int,
                 search_period: int = 3, deblock_cooldown: int = 30,
                 enable_reduction: bool = True):
        # Backing stores for the ``graph`` / ``_channel_order`` properties
        # (the CSR-direct path materializes both lazily).
        self._graph_store: Optional[nx.Graph] = None
        self._channel_order_store: Optional[Dict] = None
        self._edge_arrays: Optional[EdgeArrayGraph] = None
        self.kernel = ArrayKernel(graph, n_upper)
        self._enable_reduction = enable_reduction
        kernel = self.kernel
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
        #: Steady-state cache for :meth:`enabled_deliveries`: the full
        #: channel list in channel order, one token per channel.
        self._all_deliv_cache = None
        #: Lazy per-row structures for the virtual-gossip machinery.
        self._vg_structs_cache = None

        def factory(node_id: NodeId, neighbors: Sequence[NodeId]) -> ArrayMDSTNode:
            return ArrayMDSTNode(node_id, neighbors, kernel, n_upper=n_upper,
                                 search_period=search_period,
                                 deblock_cooldown=deblock_cooldown,
                                 enable_reduction=enable_reduction)

        if isinstance(graph, EdgeArrayGraph):
            self._init_from_arrays(graph, factory)
        else:
            super().__init__(graph, factory)
        #: Lazily built per-node channel lists for the sync fast path.
        self._sync_structs_cache = None
        #: ``snapshot_key`` cache: ``(version, key)`` over the state columns.
        self._acols_key_cache = None

    def _init_from_arrays(self, eg: EdgeArrayGraph,
                          factory: "ProcessFactory") -> None:
        """CSR-direct construction: :class:`Network.__init__` field for
        field, with the per-object maps replaced by lazy ones.

        No process, state view, channel or nx structure is built here --
        only the frozen key lists.  Processes materialize when the
        simulator starts them, channels when the first round's structures
        are assembled, so *construction* cost is O(arrays) regardless of
        ``n`` and ``m``.
        """
        eg.validate()  # connectivity (cheap union-find; no-op if validated)
        self._edge_arrays = eg
        k = self.kernel
        self.n = k.n
        self.m = eg.number_of_edges()
        self.node_ids = list(k.node_ids)
        indptr, nbr = k.indptr, k.nbr_ids

        def adjacency_of(v: NodeId):
            return tuple(nbr[int(indptr[v]):int(indptr[v + 1])].tolist())

        self.adjacency = _LazyMap(self.node_ids, adjacency_of)
        self._process_factory = factory
        self.processes = _LazyMap(self.node_ids, self._make_process)
        self._version = 0
        self._topology_version = 0
        self._graph_owned = False
        self.dropped_messages = 0
        self._retired_messages_sent = 0
        self._retired_max_message_bits = 0
        self._disabled = set()
        self._channel_model = None
        self._active = set()
        self._pending_total = 0
        # _channel_order materializes from the edge arrays on first access;
        # the sequence counter continues past the 2m construction slots.
        self._channel_order_store = None
        self._channel_seq = 2 * self.m
        self._dirty = set(self.node_ids)
        self._node_snaps = {}
        self._node_views = {}
        self._node_keys = {}
        self._snaps_stale = True
        self._snaps_view = None
        self._snaps_version = -1
        self._key_cache = None
        self._nonempty_outboxes = 0
        # Directed channel keys in creation order -- (u, v) then (v, u) per
        # canonical edge -- assembled with C-level zips, no per-edge loop.
        us, vs = eg.edges_u.tolist(), eg.edges_v.tolist()
        keys = itertools.chain.from_iterable(zip(zip(us, vs), zip(vs, us)))
        self.channels = _LazyMap(keys, self._make_channel)

    def _make_process(self, v: NodeId) -> ArrayMDSTNode:
        """Materialize node ``v``'s process (the lazy-map factory)."""
        proc = self._process_factory(v, self.adjacency[v])
        if proc.node_id != v:
            raise ProtocolError(
                f"process factory returned node id {proc.node_id} for node {v}")
        proc.outbox.watch(self._outbox_changed)
        if len(proc.outbox):
            self._nonempty_outboxes += 1
        return proc

    def _make_channel(self, key) -> "ArrayChannel":
        """Materialize one directed channel (the lazy-map factory).

        Mirrors :meth:`_install_channel` minus the order/registration
        bookkeeping, which the lazy maps carry structurally.  Virtual-gossip
        counters are global (indexed by source and flat row), so a channel
        materializing mid-run observes exactly the token history an eagerly
        built one would have.
        """
        src, dst = key
        channel = ArrayChannel(src, dst, self.n, self,
                               int(self.kernel.index[src]),
                               self.kernel.pos[(dst, src)])
        channel.watch(self._channel_changed)
        if self._channel_model is not None:
            channel.set_model(self._channel_model)
        return channel

    # -- lazy structures of the CSR-direct path --------------------------------

    @property
    def graph(self) -> nx.Graph:
        """The nx view of the topology, materialized on first use.

        The CSR-direct path defers building it (legitimacy predicates and
        fault planners are the consumers, none of which run at
        construction); identity is stable after the first access, which the
        identity-keyed predicate memos rely on.
        """
        g = self._graph_store
        if g is None and self._edge_arrays is not None:
            g = self._edge_arrays.to_networkx()
            self._graph_store = g
        return g

    @graph.setter
    def graph(self, value: nx.Graph) -> None:
        self._graph_store = value

    @property
    def _channel_order(self) -> Dict:
        """Channel-creation order; on the CSR-direct path it is derived
        from the canonical edge arrays (edge ``i`` yields slots ``2i`` and
        ``2i + 1``), exactly the order the eager loop would have minted."""
        d = self._channel_order_store
        if d is None:
            eg = self._edge_arrays
            d = {}
            seq = 0
            for a, b in zip(eg.edges_u.tolist(), eg.edges_v.tolist()):
                d[(a, b)] = seq
                d[(b, a)] = seq + 1
                seq += 2
            self._channel_order_store = d
        return d

    @_channel_order.setter
    def _channel_order(self, value: Dict) -> None:
        self._channel_order_store = value

    def initialize_isolated_columns(self) -> None:
        """Vectorized twin of :func:`repro.core.protocol.initialize_isolated`.

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

    def _install_channel(self, key) -> Channel:
        """Create an :class:`ArrayChannel` (virtual-gossip aware)."""
        src, dst = key
        channel = ArrayChannel(src, dst, self.n, self,
                               int(self.kernel.index[src]),
                               self.kernel.pos[(dst, src)])
        channel.watch(self._channel_changed)
        if self._channel_model is not None:
            channel.set_model(self._channel_model)
        self._channel_order[key] = self._channel_seq
        self._channel_seq += 1
        self.channels[key] = channel
        return channel

    def _channel_changed(self, channel: Channel, delta: int) -> None:
        # The parent watcher keys the active set on channel truthiness;
        # ArrayChannel truthiness includes in-flight tokens, which would
        # leave keys active after a physical pop empties the queue.  The
        # active set here tracks *physical* queues only (in-flight tokens
        # are enumerated by ``enabled_deliveries`` straight from the
        # counters), so key on the queue.
        self._pending_total += delta
        key = (channel.src, channel.dst)
        if channel._queue:
            self._active.add(key)
        else:
            self._active.discard(key)
        self._version += 1

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

    # -- the vectorized synchronous round --------------------------------------

    def _sync_structs(self):
        """Per-node channel lists for the fast path, built once.

        The topology is frozen, so the in-channel list of every destination
        (ascending source, paired with the destination's flat view row) and
        the out-channel list of every source (neighbour order) are static.
        """
        cache = self._sync_structs_cache
        if cache is None:
            k = self.kernel
            channels = self.channels
            in_lists = []
            for i, dst in enumerate(k.node_ids):
                lo, hi = int(k.indptr[i]), int(k.indptr[i + 1])
                chans = tuple(
                    (channels[(int(k.nbr_ids[f]), dst)], f, int(k.nbr_ids[f]),
                     int(k.nbr_node_idx[f]))
                    for f in range(lo, hi))
                in_lists.append((dst, i, chans))
            out_lists = {
                v: tuple(channels[(v, u)] for u in self.adjacency[v])
                for v in k.node_ids}
            all_keys = frozenset(channels)
            all_nodes = tuple(k.node_ids)
            cache = (in_lists, out_lists, all_keys, all_nodes)
            self._sync_structs_cache = cache
        return cache

    def _vg_structs(self):
        """Per-row structures for the virtual-gossip machinery, built once.

        ``out_flat``/``out_starts``/``out_counts`` are the CSR transpose
        (the out-channel rows of every source, grouped by source index);
        ``row_channel`` maps a flat view row to its channel object,
        ``row_key`` to its ``(src, dst)`` key and ``row_order`` to the
        network's channel-creation order (the sort key of
        ``enabled_deliveries``).
        """
        cache = self._vg_structs_cache
        if cache is None:
            k = self.kernel
            order = np.argsort(k.nbr_node_idx, kind="stable")
            out_counts = np.bincount(k.nbr_node_idx,
                                     minlength=k.n).astype(_I64)
            out_starts = np.zeros(k.n, dtype=_I64)
            np.cumsum(out_counts[:-1], out=out_starts[1:])
            row_channel: List[Optional[ArrayChannel]] = [None] * k.total
            row_key: List[Optional[Tuple[NodeId, NodeId]]] = [None] * k.total
            row_order = np.zeros(k.total, dtype=_I64)
            chorder = self._channel_order
            for key, ch in self.channels.items():
                row_channel[ch._row] = ch
                row_key[ch._row] = key
                row_order[ch._row] = chorder[key]
            cache = (order, out_starts, out_counts, row_channel, row_key,
                     row_order)
            self._vg_structs_cache = cache
        return cache

    def _gossip_minfo(self, si: int) -> MInfo:
        """The ``MInfo`` a current-generation token of source ``si`` means."""
        k = self.kernel
        return MInfo(root=int(k.g_root[si]), parent=int(k.g_parent[si]),
                     distance=int(k.g_distance[si]),
                     degree=int(k.g_degree[si]),
                     sub_max=int(k.g_sub_max[si]),
                     dmax=int(k.g_dmax[si]), color=bool(k.g_color[si]))

    def _gossip_minfo_old(self, si: int) -> MInfo:
        """The ``MInfo`` a previous-generation token of source ``si`` means."""
        k = self.kernel
        return MInfo(root=int(k.go_root[si]), parent=int(k.go_parent[si]),
                     distance=int(k.go_distance[si]),
                     degree=int(k.go_degree[si]),
                     sub_max=int(k.go_sub_max[si]),
                     dmax=int(k.go_dmax[si]), color=bool(k.go_color[si]))

    def _materialize_channel(self, ch: ArrayChannel) -> None:
        """Materialize every in-flight token of ``ch`` onto its queue.

        Tokens append *behind* any physical traffic, oldest generation
        first -- by the FIFO invariant everything physically queued
        predates them.  The channel's delivered base runs ahead of the
        consumed counter afterwards (a *lookahead*): the round trips
        complete as physical deliveries instead, so the counter bumps must
        not be folded into its stats a second time.
        """
        p = (int(self._vg_sent_src[ch._src_i])
             - int(self._vg_del_row[ch._row]))
        if p <= 0:
            return
        st = ch.stats  # flush the pending virtual ``sent`` first
        si = ch._src_i
        q = ch._queue
        if p >= 2:
            q.append(self._gossip_minfo_old(si))
        q.append(self._gossip_minfo(si))
        self._vg_del_row[ch._row] += p
        ch._vd_base += p
        self._vg_virtual_total -= p
        length = len(q)
        if length > st.max_queue_length:
            st.max_queue_length = length
        self._active.add((ch.src, ch.dst))

    def _materialize_oldest(self, ch: ArrayChannel) -> None:
        """Materialize only the *oldest* in-flight token of ``ch``.

        Called by :meth:`_mint` just before the generation shift would
        overwrite that token's snapshot; the newer token (if any) stays
        virtual and survives the shift as the previous generation.
        """
        st = ch.stats  # flush the pending virtual ``sent`` first
        q = ch._queue
        q.append(self._gossip_minfo_old(ch._src_i))
        self._vg_del_row[ch._row] += 1
        ch._vd_base += 1
        self._vg_virtual_total -= 1
        length = len(q)
        if length > st.max_queue_length:
            st.max_queue_length = length
        self._active.add((ch.src, ch.dst))

    def materialize_gossip(self) -> None:
        """Materialize every in-flight virtual gossip token.

        Called before any fallback to the scalar scheduler (full event
        logs, disabled nodes) so the object code path only ever sees real
        message objects on physical queues.  Token content is the sender's
        gossip snapshot columns, exactly what the fast path would have
        scattered.
        """
        if not self._vg_virtual_total:
            return
        k = self.kernel
        pending = self._vg_sent_src[k.nbr_node_idx] - self._vg_del_row
        row_channel = self._vg_structs()[3]
        for row in np.nonzero(pending > 0)[0].tolist():
            self._materialize_channel(row_channel[row])

    def _mint(self, S: np.ndarray, full: bool = False) -> int:
        """Mint one gossip token per out-channel of the node indices ``S``.

        The asynchronous/synchronous twin of a physical gossip broadcast:
        any out-channel still holding the source's *previous*-generation
        token materializes it (its snapshot buffer is about to be
        reused), the snapshot generations shift (current -> previous), the
        post-refresh state columns become the new current generation, and
        the sent counters advance.  Returns the number of (virtual) sends;
        the caller accounts version/stats/trace.
        """
        k = self.kernel
        vm = self._vg_sent_src
        dr = self._vg_del_row
        structs = self._vg_structs()
        if full:
            stale = np.nonzero(dr < vm[k.nbr_node_idx] - 1)[0]
        else:
            out_flat, out_starts, out_counts = structs[0], structs[1], structs[2]
            cnts = out_counts[S]
            tot = int(cnts.sum())
            starts = np.zeros(len(S), dtype=_I64)
            np.cumsum(cnts[:-1], out=starts[1:])
            R = out_flat[np.repeat(out_starts[S] - starts, cnts)
                         + np.arange(tot, dtype=_I64)]
            stale = R[dr[R] < vm[k.nbr_node_idx[R]] - 1]
        if len(stale):
            row_channel = structs[3]
            for row in stale.tolist():
                self._materialize_oldest(row_channel[row])
        if full:
            np.copyto(k.go_root, k.g_root)
            np.copyto(k.go_parent, k.g_parent)
            np.copyto(k.go_distance, k.g_distance)
            np.copyto(k.go_degree, k.g_degree)
            np.copyto(k.go_sub_max, k.g_sub_max)
            np.copyto(k.go_dmax, k.g_dmax)
            np.copyto(k.go_color, k.g_color)
            np.copyto(k.g_root, k.root)
            np.copyto(k.g_parent, k.parent)
            np.copyto(k.g_distance, k.distance)
            np.copyto(k.g_degree, k.degree)
            np.copyto(k.g_sub_max, k.sub_max)
            np.copyto(k.g_dmax, k.dmax)
            np.copyto(k.g_color, k.color)
            vm += 1
            sends = k.total
        else:
            k.go_root[S] = k.g_root[S]
            k.go_parent[S] = k.g_parent[S]
            k.go_distance[S] = k.g_distance[S]
            k.go_degree[S] = k.g_degree[S]
            k.go_sub_max[S] = k.g_sub_max[S]
            k.go_dmax[S] = k.g_dmax[S]
            k.go_color[S] = k.g_color[S]
            k.g_root[S] = k.root[S]
            k.g_parent[S] = k.parent[S]
            k.g_distance[S] = k.distance[S]
            k.g_degree[S] = k.degree[S]
            k.g_sub_max[S] = k.sub_max[S]
            k.g_dmax[S] = k.dmax[S]
            k.g_color[S] = k.color[S]
            vm[S] += 1
            sends = int(k._row_counts[S].sum())
        self._vg_virtual_total += sends
        self._pending_total += sends
        return sends

    def enabled_deliveries(self):
        """Enabled deliveries with in-flight virtual tokens made visible.

        The parent enumerates the active set, which tracks *physical*
        queues only; had the tokens been physical sends their channels
        would all be active, so the asynchronous schedulers (whose event
        pools, and therefore rng draws, depend on this list) must see
        them.  Channel order, the disabled-destination skip and the
        per-channel counts (``len`` includes the tokens) match the parent
        exactly.  In gossip-only steady state -- one token in flight on
        every channel, no physical backlog -- the answer is the static
        full channel list with count 1, served from a cache.
        """
        if not self._vg_virtual_total:
            return super().enabled_deliveries()
        k = self.kernel
        counts = self._vg_sent_src[k.nbr_node_idx] - self._vg_del_row
        if (not self._active and not self._disabled
                and self._vg_virtual_total == k.total
                and bool((counts == 1).all())):
            cache = self._all_deliv_cache
            if cache is None:
                order = self._channel_order
                keys = sorted(self.channels, key=order.__getitem__)
                cache = [(src, dst, 1) for src, dst in keys]
                self._all_deliv_cache = cache
            return list(cache)
        channels = self.channels
        if self._active:
            for key in self._active:
                ch = channels[key]
                counts[ch._row] += len(ch._queue)
        structs = self._vg_structs()
        row_key, row_order = structs[4], structs[5]
        rows = np.nonzero(counts > 0)[0]
        rows = rows[np.argsort(row_order[rows])]
        disabled = self._disabled
        enabled = []
        counts_l = counts[rows].tolist()
        for row, cnt in zip(rows.tolist(), counts_l):
            src, dst = row_key[row]
            if dst in disabled:
                continue
            enabled.append((src, dst, int(cnt)))
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

    def run_sync_round(self, events: EnabledEvents,
                       trace: Optional[TraceRecorder],
                       stats: RoundStats) -> None:
        """One synchronous round, message delivery and refresh batched.

        Reproduces :class:`~repro.sim.scheduler.SynchronousScheduler`
        step-for-step: the round-start backlog is consumed per destination
        (destinations ascending, sources ascending, frozen counts), then
        every enabled node runs its timeout action in id order.  Gossip
        deliveries and the refresh they trigger are applied as per-slot
        vector operations -- slot ``j`` holds the ``j``-th backlog message
        of every destination, so each node still observes its own delivery
        sequence in order, and cross-node batching is sound because a
        gossip step touches only the destination's own columns.
        Destinations whose entire backlog is gossip are batched without any
        per-message work; a destination that received control traffic is
        replayed through the slot loop, control handlers running the real
        scalar code.
        """
        k = self.kernel
        processes = self.processes
        in_lists, out_lists, all_keys, all_nodes = self._sync_structs()
        minfo_bits = self._minfo_bits
        dirty = self._dirty
        active = self._active
        vm = self._vg_sent_src
        dr = self._vg_del_row
        # -- phase 1: drain the round-start backlog ----------------------------
        # The gossip backlog is *virtual* (the sent/consumed counters): in
        # the steady state this phase is a handful of array operations and
        # never touches a channel object.  Physical messages exist only on
        # the channels in the active set (control traffic, fault preloads,
        # materialized tokens); their destinations are replayed through the
        # slot loop in exact (dst, src, FIFO) order -- everything physically
        # queued on a channel predates its in-flight token (the standing
        # FIFO invariant), matching the send order of the object backend.
        mixed: List[Tuple[NodeId, List[object]]] = []
        phys_delivered = 0
        nvirt = 0
        rows = counts = dsti_arr = starts = None
        tok_dst_ids: Sequence[NodeId] = ()
        ntok = 0
        virt_total = self._vg_virtual_total
        if (not active and virt_total == k.total
                and bool((vm[k.nbr_node_idx] - dr == 1).all())):
            # Steady state: every destination's backlog is exactly one
            # (current-generation) token per in-edge, so the geometry is the
            # cached full CSR layout.
            rows = k._full_flat
            counts = k._row_counts
            starts = k._full_starts
            dsti_arr = k._all_idx
            tok_dst_ids = all_nodes
            ntok = k.total
            nvirt = k.total
            dr += 1
            self._vg_virtual_total = 0
        else:
            if virt_total:
                # A synchronous history never leaves two generations in
                # flight on one channel (each round drains everything the
                # previous round minted); materialize the exception so the
                # single-token fast geometry below stays sound.
                multi = np.nonzero(vm[k.nbr_node_idx] - dr > 1)[0]
                if len(multi):
                    row_channel = self._vg_structs()[3]
                    for row in multi.tolist():
                        self._materialize_channel(row_channel[row])
            mixed_idx = (sorted({int(k.index[d]) for (_, d) in active})
                         if active else [])
            if self._vg_virtual_total:
                tok_mask = vm[k.nbr_node_idx] > dr
                for i in mixed_idx:
                    tok_mask[int(k.indptr[i]):int(k.indptr[i + 1])] = False
                counts_all = np.add.reduceat(tok_mask.astype(_I64),
                                             k._full_starts)
                sel = counts_all > 0
                rows = np.nonzero(tok_mask)[0]
                counts = counts_all[sel]
                dsti_arr = k._all_idx[sel]
                starts = np.zeros(len(counts), dtype=_I64)
                np.cumsum(counts[:-1], out=starts[1:])
                tok_dst_ids = [k.node_ids[i] for i in dsti_arr.tolist()]
                ntok = len(rows)
                if ntok:
                    dr[rows] += 1
                    nvirt += ntok
                    self._vg_virtual_total -= ntok
            # Destinations with physical backlog: per-channel scalar drain,
            # physical messages first, then the channel's in-flight token.
            for i in mixed_idx:
                dst = k.node_ids[i]
                seq: List[object] = []
                for ch, row, src, si in in_lists[i][2]:
                    q = ch._queue
                    cnt = len(q)
                    if cnt:
                        st = ch.stats
                        st.delivered += cnt
                        phys_delivered += cnt
                        for _ in range(cnt):
                            seq.append((src, q.popleft()))
                    if vm[si] > dr[row]:
                        seq.append(row)
                        dr[row] += 1
                        nvirt += 1
                        self._vg_virtual_total -= 1
                if seq:
                    mixed.append((dst, seq))
        delivered = nvirt + phys_delivered
        if delivered:
            # Batched twin of per-message Channel.deliver() accounting: every
            # backlog queue is drained completely, so no channel stays active.
            self._pending_total -= delivered
            active.clear()
            self._version += delivered
        # -- phase 2a: pure-gossip destinations, fully vectorized --------------
        if ntok:
            nbr_node_idx = k.nbr_node_idx
            for j in range(int(counts.max())):
                if j == 0:
                    P = rows[starts]
                    S = dsti_arr
                else:
                    m = counts > j
                    P = rows[starts[m] + j]
                    S = dsti_arr[m]
                src_idx = nbr_node_idx[P]
                nr = k.g_root[src_idx]
                npa = k.g_parent[src_idx]
                nd = k.g_distance[src_idx]
                ndeg = k.g_degree[src_idx]
                nsm = k.g_sub_max[src_idx]
                ndm = k.g_dmax[src_idx]
                nc = k.g_color[src_idx]
                # A refresh with an unchanged view is a no-op (the rules are
                # idempotent: R1 adopts the minimum heard root, after which
                # neither R1 nor R2 fires again, and the degree layer is a
                # direct function of view and parent), so only destinations
                # whose view row this write actually changed re-run it.
                changed = ((k.v_root[P] != nr) | (k.v_parent[P] != npa)
                           | (k.v_distance[P] != nd) | (k.v_degree[P] != ndeg)
                           | (k.v_sub_max[P] != nsm) | (k.v_dmax[P] != ndm)
                           | (k.v_color[P] != nc) | ~k.v_heard[P])
                k.v_root[P] = nr
                k.v_parent[P] = npa
                k.v_distance[P] = nd
                k.v_degree[P] = ndeg
                k.v_sub_max[P] = nsm
                k.v_dmax[P] = ndm
                k.v_color[P] = nc
                k.v_heard[P] = True
                if changed.any():
                    k.refresh(S[changed])
            for dst, cnt in zip(tok_dst_ids, counts.tolist()):
                processes[dst].steps_taken += cnt
            dirty.update(tok_dst_ids)
            self._version += ntok
            stats.steps += ntok
            stats.deliveries += ntok
            if trace is not None:
                mtc = trace.message_type_counts
                mtc["MInfo"] = mtc.get("MInfo", 0) + ntok
                if minfo_bits > trace.max_message_bits:
                    trace.max_message_bits = minfo_bits
                trace.total_deliveries += ntok
                if trace.rounds:
                    rec = trace.rounds[-1]
                    rec.steps += ntok
                    rec.deliveries += ntok
        # -- phase 2b: destinations with control traffic, slot by slot ---------
        slot = 0
        while mixed:
            batch_rows: List[int] = []
            batch_dsti: List[int] = []
            batch_dst_ids: List[NodeId] = []
            batch_pos: List[int] = []
            batch_fields: List[Tuple] = []
            scalars: List[Tuple[NodeId, NodeId, object]] = []
            active = False
            for dst, seq in mixed:
                if slot >= len(seq):
                    continue
                active = True
                e = seq[slot]
                if type(e) is int:
                    batch_rows.append(e)
                    batch_dsti.append(k.index[dst])
                    batch_dst_ids.append(dst)
                elif type(e[1]) is MInfo:
                    msg = e[1]
                    batch_rows.append(k.pos[(dst, e[0])])
                    batch_dsti.append(k.index[dst])
                    batch_dst_ids.append(dst)
                    batch_pos.append(len(batch_rows) - 1)
                    batch_fields.append((msg.root, msg.parent, msg.distance,
                                         msg.degree, msg.sub_max, msg.dmax,
                                         msg.color))
                else:
                    scalars.append((dst, e[0], e[1]))
            if not active:
                break
            S = _NO_NODES
            if batch_rows:
                P = np.asarray(batch_rows, dtype=np.intp)
                src_idx = k.nbr_node_idx[P]
                k.v_root[P] = k.g_root[src_idx]
                k.v_parent[P] = k.g_parent[src_idx]
                k.v_distance[P] = k.g_distance[src_idx]
                k.v_degree[P] = k.g_degree[src_idx]
                k.v_sub_max[P] = k.g_sub_max[src_idx]
                k.v_dmax[P] = k.g_dmax[src_idx]
                k.v_color[P] = k.g_color[src_idx]
                k.v_heard[P] = True
                if batch_fields:
                    # Real MInfo objects (start-up traffic, materialized
                    # fallbacks) override the token scatter at their rows.
                    pos = P[np.asarray(batch_pos, dtype=np.intp)]
                    cols = list(zip(*batch_fields))
                    k.v_root[pos] = cols[0]
                    k.v_parent[pos] = cols[1]
                    k.v_distance[pos] = cols[2]
                    k.v_degree[pos] = cols[3]
                    k.v_sub_max[pos] = cols[4]
                    k.v_dmax[pos] = cols[5]
                    k.v_color[pos] = np.asarray(cols[6], dtype=bool)
                S = np.asarray(batch_dsti, dtype=_I64)
            # One kernel pass per slot: the gossip destinations' rules and
            # the batched control gate (Search/Deblock at a non-stabilized
            # destination, UpdateDist from a non-parent and garbage are
            # handler no-ops -- account them in bulk, skip the dispatch).
            # Unlike phase 2a the refresh is unconditional: a control
            # handler earlier in this round can change the destination's
            # *own* state so that a rule fires on a later gossip delivery
            # even when that delivery leaves the view row unchanged.
            drop = mdst_slot_pass(self, S, scalars)
            if batch_rows:
                count = len(batch_rows)
                for dst in batch_dst_ids:
                    processes[dst].steps_taken += 1
                dirty.update(batch_dst_ids)
                self._version += count
                stats.steps += count
                stats.deliveries += count
                if trace is not None:
                    mtc = trace.message_type_counts
                    mtc["MInfo"] = mtc.get("MInfo", 0) + count
                    if minfo_bits > trace.max_message_bits:
                        trace.max_message_bits = minfo_bits
                    trace.total_deliveries += count
                    if trace.rounds:
                        rec = trace.rounds[-1]
                        rec.steps += count
                        rec.deliveries += count
            if True in drop:
                dropped = [s for s, dr in zip(scalars, drop) if dr]
                scalars = [s for s, dr in zip(scalars, drop) if not dr]
                account_dropped_deliveries(self, trace, stats, dropped)
            for dst, src, msg in scalars:
                process = processes[dst]
                process.on_message(src, msg)
                process.steps_taken += 1
                self.note_step(dst)
                sent = self.flush_outbox(dst)
                stats.steps += 1
                stats.deliveries += 1
                stats.messages_sent += sent
                if trace is not None:
                    trace.record_delivery(src, dst, msg, sent)
            slot += 1
        # -- phase 3: the timeout actions, gossip as tokens --------------------
        timeouts = events.timeouts
        if not timeouts:
            return
        full = timeouts == all_nodes
        if full:
            S = k._all_idx
        else:
            S = np.fromiter((k.index[v] for v in timeouts), dtype=_I64,
                            count=len(timeouts))
        enable_reduction = self._enable_reduction
        k.refresh(S, predicates=enable_reduction)
        ls = k.locally_stab
        dmax = k.dmax
        n_to = len(timeouts)
        # Virtual gossip send: one in-flight token per node, standing for one
        # MInfo on each of its out-channels.  Channel objects are untouched;
        # the mint shifts the gossip generations and snapshots the senders'
        # post-refresh state into the current-generation columns.  Channels
        # that carried control traffic earlier this round need no special
        # step: the new token is logically *behind* every physical message
        # (the standing FIFO invariant), exactly matching the send order.
        gossip_sends = self._mint(S, full=full)
        sent_total = gossip_sends
        for j, v in enumerate(timeouts):
            process = processes[v]
            process._timeout_count += 1
            if enable_reduction:
                if process._jitter.random() < 1.0 / process.search_period:
                    i = j if full else int(S[j])
                    if ls[i] and dmax[i] >= 3:
                        process._initiate_searches(idblock=None, limit=1)
                        if process.outbox._items:
                            sent_total += self.flush_outbox(v)
            process.steps_taken += 1
        # Batched twin of the per-step accounting (note_step + RoundStats and
        # trace counters); the active set tracks physical queues only, so
        # virtual sends do not touch it.
        self._version += gossip_sends + n_to
        dirty.update(timeouts)
        stats.steps += n_to
        stats.timeouts += n_to
        stats.messages_sent += sent_total
        if trace is not None:
            trace.total_timeouts += n_to
            trace.total_messages_sent += sent_total
            if trace.rounds:
                rec = trace.rounds[-1]
                rec.steps += n_to
                rec.timeouts += n_to
                rec.messages_sent += sent_total


class ArraySyncScheduler(SynchronousScheduler):
    """Synchronous scheduler driving the vectorized round of an
    :class:`ArrayNetwork`; any other network (or a full-event-log trace,
    which needs per-message events) falls back to the scalar parent."""

    name = "synchronous"

    def run_round(self, network: Network,
                  trace: Optional[TraceRecorder] = None) -> RoundStats:
        if not isinstance(network, ArrayNetwork):
            return super().run_round(network, trace)
        if network._disabled or (trace is not None and trace.keep_events):
            # Scalar fallback: virtual gossip tokens must become physical
            # messages *before* the parent builds its enabled-event set,
            # or the round would not see them as deliverable.
            network.materialize_gossip()
            return super().run_round(network, trace)
        # Building the enabled-event set costs a sort over every active
        # channel; the vectorized round scans the frozen channel lists
        # directly, so on the fast path we skip it entirely.
        stats = RoundStats()
        all_nodes = network._sync_structs()[3]
        events = EnabledEvents(timeouts=all_nodes, deliveries=())
        network.run_sync_round(events, trace, stats)
        return stats

    def schedule_round(self, network: Network, events: EnabledEvents,
                       trace: Optional[TraceRecorder],
                       stats: RoundStats) -> None:
        if not isinstance(network, ArrayNetwork):
            # Substrate array networks (spanning tree, PIF) carry a column
            # driver instead of virtual gossip; route them through the
            # generic slot engine with a synchronous-shaped plan.
            ops = getattr(network, "_array_ops", None)
            if (ops is None or network._disabled
                    or (trace is not None and trace.keep_events)):
                super().schedule_round(network, events, trace, stats)
                return
            from .array_engine import execute_plan, sync_plan
            execute_plan(network, ops, sync_plan(network, events), trace, stats)
            return
        if ((trace is not None and trace.keep_events)
                or network._disabled):
            # Scalar fallback: full event logs need per-message records,
            # disabled nodes need the parent's per-event gating.  Queued
            # gossip tokens must become real messages first.
            network.materialize_gossip()
            super().schedule_round(network, events, trace, stats)
            return
        network.run_sync_round(events, trace, stats)


def build_array_mdst_network(graph: "nx.Graph | EdgeArrayGraph", *,
                             n_upper: int,
                             search_period: int = 3,
                             deblock_cooldown: int = 30,
                             enable_reduction: bool = True) -> ArrayNetwork:
    """Build the array-backed MDST network (the adapter's ``backend="array"``
    counterpart of :func:`repro.core.protocol.build_mdst_network`).

    Accepts either an ``nx.Graph`` (eager per-object construction) or an
    :class:`~repro.graphs.edge_array.EdgeArrayGraph` (the CSR-direct fast
    path: kernel columns come straight from the container's cached CSR and
    the per-object maps materialize lazily)."""
    return ArrayNetwork(graph, n_upper=n_upper, search_period=search_period,
                        deblock_cooldown=deblock_cooldown,
                        enable_reduction=enable_reduction)
