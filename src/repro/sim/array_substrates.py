"""Array-backend column drivers for the substrate protocols.

The MDST array backend (:mod:`.array_kernel` / :mod:`.array_engine`) splits
into two halves: a protocol-agnostic slot engine (plan builders +
``execute_plan``) and a protocol-specific column driver (the ``ops``
object).  This module supplies column drivers for the two substrate
protocols -- the standalone self-stabilizing spanning tree and the
PIF-style max-degree aggregation -- so ``backend="array"`` covers every
registry protocol.

Design
------
Each driver pairs a small column kernel (own-state and per-edge view
columns over the same CSR geometry as :class:`~.array_kernel.ArrayKernel`)
with *proxy-backed* processes: the real
:class:`~repro.stabilization.spanning_tree.SpanningTreeProcess` /
:class:`~repro.stabilization.pif.MaxDegreeProcess` classes run with their
variables and neighbour views redirected into the columns.  Every scalar
path -- fault corruption (exact rng draw order), snapshots, state-bits
accounting, the fallback object scheduler -- therefore executes the
untouched upstream code, while the batched engine replaces the per-event
handler bodies with one vectorized rules pass per slot.

Unlike the MDST driver these substrates do **not** use virtual gossip
tokens (``virtual_gossip = False``): their channels are plain object
:class:`~.channel.Channel` instances and timeout gossip goes through the
ordinary ``broadcast`` + ``flush_outbox`` machinery, which makes channel
statistics, trace counters and rng evolution byte-identical to the object
backend by construction.  The batching win comes from the vectorized rule
application on the delivery and timeout slots; per-event ordering
equivalence follows from the same commutation argument as the MDST engine
(events at distinct actors touch disjoint own-state, and a gossip send
only appends behind already-queued traffic).

As for the MDST driver, per-channel ``max_queue_length`` peaks are *not*
part of the byte-identity contract (no run-result field reads them): the
slot-major execution reaches the same final state through a reordered
event sequence, and an instantaneous queue-depth peak is sensitive to
that order.  ``sent``/``delivered``/``max_message_bits`` stay exact.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

import networkx as nx
import numpy as np

from ..exceptions import SimulationError
from ..stabilization.pif import DegreeInfo, MaxDegreeProcess
from ..stabilization.spanning_tree import STInfo, SpanningTreeProcess
from ..types import NodeId
from .array_kernel import _build_csr, segment_row
from .messages import GarbageMessage
from .network import Network

__all__ = [
    "STKernel",
    "PIFKernel",
    "ArraySpanningTreeProcess",
    "ArrayMaxDegreeProcess",
    "SpanningTreeArrayNetwork",
    "PIFArrayNetwork",
    "build_array_st_network",
    "build_array_pif_network",
]

_I64 = np.int64
_INT_MAX = np.iinfo(np.int64).max
_INT_MIN = np.iinfo(np.int64).min


class SubstrateKernel:
    """CSR topology plus the flat-row geometry helpers the drivers share."""

    def __init__(self, graph: nx.Graph):
        self.node_ids: List[NodeId] = sorted(graph.nodes)
        self.n = len(self.node_ids)
        self.index, self.indptr, self.nbr_idx, self.nbr_ids = _build_csr(
            graph, self.node_ids)
        self.ids = np.asarray(self.node_ids, dtype=_I64)
        self.total = int(self.indptr[-1])
        #: scalar-path lookup ``(owner id, neighbour id) -> flat row``.
        self.pos: Dict[Tuple[NodeId, NodeId], int] = {}
        for i, v in enumerate(self.node_ids):
            for f in range(int(self.indptr[i]), int(self.indptr[i + 1])):
                self.pos[(v, int(self.nbr_ids[f]))] = f
        self._full_flat = np.arange(self.total, dtype=_I64)
        self._full_starts = self.indptr[:-1].astype(np.intp)
        self._all_idx = np.arange(self.n, dtype=_I64)
        self._row_counts = np.diff(self.indptr).astype(_I64)

    def rows_of(self, S: np.ndarray):
        """Flat view rows of the node-index subset ``S`` plus segment starts.

        Same shape contract as :meth:`~.array_kernel.ArrayKernel.rows_of`;
        callers normalise a full-size ``S`` to the sorted index vector
        before using the fast path.
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


class STKernel(SubstrateKernel):
    """Column store + vectorized rules of the spanning-tree substrate."""

    def __init__(self, graph: nx.Graph, n_upper: int):
        super().__init__(graph)
        self.n_upper = int(n_upper)
        # -- own state (TreeVars) -----------------------------------------------
        self.root = self.ids.copy()
        self.parent = self.ids.copy()
        self.distance = np.zeros(self.n, dtype=_I64)
        # -- neighbour views (NeighborView), one row per directed edge ----------
        self.v_root = self.nbr_ids.copy()
        self.v_parent = self.nbr_ids.copy()
        self.v_distance = np.zeros(self.total, dtype=_I64)
        self.v_heard = np.zeros(self.total, dtype=bool)

    def refresh(self, S: np.ndarray) -> None:
        """Vectorized ``SpanningTreeProcess.apply_rules`` over the subset ``S``.

        Replicates the scalar R2 -> R1 -> R3 pass exactly, with the
        between-rule predicate recomputation that pass implies:

        * After the R2 phase ``new_root_candidate`` is ``False`` for every
          node (a reset state is trivially coherent; a node that did not
          reset was already coherent), so the R1 gate reduces to a
          non-empty candidate set and the R3 gate to ``not
          coherent_distance``.
        * After R1 the adopted state is again coherent (the candidate
          filter enforces the distance bound and the adopted root matches
          the new parent's advertised root), so R3 sees ``nrc == False``
          too; and since coherent-parent forces ``distance == 0`` whenever
          ``parent == self``, R3 can only fire on a heard non-self parent
          whose advertised distance disagrees.
        """
        if len(S) == self.n:
            S = self._all_idx
        ids = self.ids
        n_up = self.n_upper
        root, parent, dist = self.root, self.parent, self.distance
        vh, vr, vd = self.v_heard, self.v_root, self.v_distance
        flat, starts, counts = self.rows_of(S)
        nbr = self.nbr_ids[flat]
        sid = ids[S]
        r = root[S]
        p = parent[S]
        d = dist[S]
        # -- R2: new_root_candidate == (not coherent_parent) or d >= n_upper ----
        selfp = p == sid
        cp = r <= sid
        cp &= np.where(selfp, (r == sid) & (d == 0), True)
        prow = segment_row(np.repeat(p, counts) == nbr, flat, starts)
        valid = prow >= 0
        other = ~selfp
        ok = np.where(other, valid, True)
        m = other & valid
        if m.any():
            pr = prow[m]
            ok[m] = (~vh[pr]) | (vr[pr] == r[m])
        cp &= ok
        nrc = (~cp) | (d >= n_up)
        if nrc.any():
            t = S[nrc]
            root[t] = ids[t]
            parent[t] = ids[t]
            dist[t] = 0
            r = root[S]
        # -- R1: adopt the smallest advertised root (min root, then min id) ------
        fh = vh[flat]
        fr = vr[flat]
        fd = vd[flat]
        cand = fh & (fr < np.repeat(r, counts)) & (fd + 1 < n_up)
        seg_min = np.minimum.reduceat(np.where(cand, fr, _INT_MAX), starts)
        fired = seg_min != _INT_MAX
        if fired.any():
            # Rows are sorted by neighbour id, so the first row achieving
            # the segment-minimum root is the scalar tie-break winner.
            tie = np.where(cand & (fr == np.repeat(seg_min, counts)),
                           np.arange(len(flat), dtype=_I64), len(flat))
            seg_pos = np.minimum.reduceat(tie, starts)
            frows = flat[seg_pos[fired]]
            t = S[fired]
            root[t] = vr[frows]
            parent[t] = self.nbr_ids[frows]
            dist[t] = vd[frows] + 1
        # -- R3: distance repair --------------------------------------------------
        p = parent[S]
        d = dist[S]
        selfp = p == sid
        prow = segment_row(np.repeat(p, counts) == nbr, flat, starts)
        m = (~selfp) & (prow >= 0)
        heard_p = np.zeros(len(S), dtype=bool)
        pd = np.zeros(len(S), dtype=_I64)
        if m.any():
            pr = prow[m]
            heard_p[m] = vh[pr]
            pd[m] = vd[pr]
        fire = m & heard_p & (d != pd + 1)
        if fire.any():
            nd = pd[fire] + 1
            t = S[fire]
            dist[t] = nd
            over = nd >= n_up
            if over.any():
                t2 = t[over]
                root[t2] = ids[t2]
                parent[t2] = ids[t2]
                dist[t2] = 0


class PIFKernel(SubstrateKernel):
    """Column store + vectorized aggregation of the max-degree substrate."""

    def __init__(self, graph: nx.Graph):
        super().__init__(graph)
        # -- own state (fixed tree + mutable aggregation) ------------------------
        self.parent = np.zeros(self.n, dtype=_I64)
        self.degree = np.zeros(self.n, dtype=_I64)
        self.sub_max = np.zeros(self.n, dtype=_I64)
        self.dmax = np.zeros(self.n, dtype=_I64)
        # -- neighbour views, one row per directed edge --------------------------
        self.vp_parent = np.zeros(self.total, dtype=_I64)
        self.vp_sub_max = np.zeros(self.total, dtype=_I64)
        self.vp_dmax = np.zeros(self.total, dtype=_I64)
        #: Flat view row of each node's (fixed) tree parent, -1 for the root.
        self.parent_row = np.full(self.n, -1, dtype=_I64)

    def finalize(self) -> None:
        """Precompute parent rows once the processes copied the tree in."""
        for i in range(self.n):
            p = int(self.parent[i])
            if p != int(self.ids[i]):
                row = self.pos.get((self.node_ids[i], p))
                if row is not None:
                    self.parent_row[i] = row

    def refresh(self, S: np.ndarray) -> None:
        """Vectorized ``MaxDegreeProcess._recompute`` over the subset ``S``."""
        if len(S) == self.n:
            S = self._all_idx
        flat, starts, counts = self.rows_of(S)
        sid = self.ids[S]
        child = self.vp_parent[flat] == np.repeat(sid, counts)
        masked = np.where(child, self.vp_sub_max[flat], _INT_MIN)
        seg = np.maximum.reduceat(masked, starts)
        sm = np.maximum(self.degree[S], seg)
        self.sub_max[S] = sm
        prow = self.parent_row[S]
        copy_parent = (self.parent[S] != sid) & (prow >= 0)
        dm = np.where(copy_parent, self.vp_dmax[np.maximum(prow, 0)], sm)
        self.dmax[S] = dm


# -- column-backed proxies -----------------------------------------------------


class _STVars:
    """Column-backed stand-in for :class:`~..stabilization.spanning_tree.TreeVars`."""

    __slots__ = ("_k", "_i")

    def __init__(self, kernel: STKernel, i: int):
        object.__setattr__(self, "_k", kernel)
        object.__setattr__(self, "_i", i)

    @property
    def root(self) -> int:
        return int(self._k.root[self._i])

    @root.setter
    def root(self, value: int) -> None:
        self._k.root[self._i] = value

    @property
    def parent(self) -> int:
        return int(self._k.parent[self._i])

    @parent.setter
    def parent(self, value: int) -> None:
        self._k.parent[self._i] = value

    @property
    def distance(self) -> int:
        return int(self._k.distance[self._i])

    @distance.setter
    def distance(self, value: int) -> None:
        self._k.distance[self._i] = value


class _STView:
    """Column-backed stand-in for one :class:`NeighborView` (one flat row)."""

    __slots__ = ("_k", "_f")

    def __init__(self, kernel: STKernel, f: int):
        object.__setattr__(self, "_k", kernel)
        object.__setattr__(self, "_f", f)

    @property
    def root(self) -> int:
        return int(self._k.v_root[self._f])

    @root.setter
    def root(self, value: int) -> None:
        self._k.v_root[self._f] = value

    @property
    def parent(self) -> int:
        return int(self._k.v_parent[self._f])

    @parent.setter
    def parent(self, value: int) -> None:
        self._k.v_parent[self._f] = value

    @property
    def distance(self) -> int:
        return int(self._k.v_distance[self._f])

    @distance.setter
    def distance(self, value: int) -> None:
        self._k.v_distance[self._f] = value

    @property
    def heard(self) -> bool:
        return bool(self._k.v_heard[self._f])

    @heard.setter
    def heard(self, value: bool) -> None:
        self._k.v_heard[self._f] = value


class _STViewMap:
    """Dict-like neighbour-view map over one node's CSR row segment.

    Iteration order is the row order (neighbour ids ascending), which is
    exactly the insertion order of the object backend's view dict.
    """

    __slots__ = ("_views", "_by_id")

    def __init__(self, kernel: STKernel, lo: int, hi: int):
        self._views = [_STView(kernel, f) for f in range(lo, hi)]
        self._by_id = {int(kernel.nbr_ids[f]): view
                       for f, view in zip(range(lo, hi), self._views)}

    def __getitem__(self, u: NodeId) -> _STView:
        return self._by_id[u]

    def get(self, u: NodeId, default=None):
        return self._by_id.get(u, default)

    def __contains__(self, u: NodeId) -> bool:
        return u in self._by_id

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self):
        return iter(self._by_id)

    def keys(self):
        return self._by_id.keys()

    def values(self):
        return list(self._views)

    def items(self):
        return list(self._by_id.items())


class _ColumnMap:
    """Dict-like view over one per-edge column segment (keys: neighbour ids)."""

    __slots__ = ("_col", "_off")

    def __init__(self, col: np.ndarray, lo: int, nbr_ids: np.ndarray):
        self._col = col
        self._off = {int(u): lo + j for j, u in enumerate(nbr_ids)}

    def __getitem__(self, u: NodeId) -> int:
        return int(self._col[self._off[u]])

    def __setitem__(self, u: NodeId, value: int) -> None:
        self._col[self._off[u]] = value

    def get(self, u: NodeId, default=None):
        f = self._off.get(u)
        return default if f is None else int(self._col[f])

    def __contains__(self, u: NodeId) -> bool:
        return u in self._off

    def __len__(self) -> int:
        return len(self._off)

    def __iter__(self):
        return iter(self._off)

    def keys(self):
        return self._off.keys()

    def values(self):
        return [int(self._col[f]) for f in self._off.values()]

    def items(self):
        return [(u, int(self._col[f])) for u, f in self._off.items()]

    def update(self, mapping: Mapping[NodeId, int]) -> None:
        for u, value in mapping.items():
            self[u] = value


class ArraySpanningTreeProcess(SpanningTreeProcess):
    """A :class:`SpanningTreeProcess` whose state lives in :class:`STKernel`.

    The parent constructor builds the plain ``vars``/``view`` objects with
    the protocol's initial values; they are then swapped for column proxies
    (the columns are initialised to the same values), after which every
    inherited scalar path -- rules, corruption, snapshots -- reads and
    writes the shared columns.
    """

    def __init__(self, node_id: NodeId, neighbors: Sequence[NodeId],
                 kernel: STKernel):
        super().__init__(node_id, neighbors, n_upper=kernel.n_upper)
        i = int(kernel.index[node_id])
        self.vars = _STVars(kernel, i)
        self.view = _STViewMap(kernel, int(kernel.indptr[i]),
                               int(kernel.indptr[i + 1]))

    def add_neighbor(self, u: NodeId) -> None:
        raise SimulationError(
            "the array backend does not support live topology churn")

    def remove_neighbor(self, u: NodeId) -> None:
        raise SimulationError(
            "the array backend does not support live topology churn")


class ArrayMaxDegreeProcess(MaxDegreeProcess):
    """A :class:`MaxDegreeProcess` whose state lives in :class:`PIFKernel`.

    ``sub_max``/``dmax`` and the three view maps are class-level properties
    backed by the columns, so the parent constructor's own assignments
    already populate the kernel; the fixed per-node fields (``parent``,
    ``degree``) are mirrored into their columns afterwards.
    """

    def __init__(self, node_id: NodeId, neighbors: Sequence[NodeId],
                 parent_map: Mapping[NodeId, NodeId], kernel: PIFKernel):
        i = int(kernel.index[node_id])
        lo = int(kernel.indptr[i])
        seg = kernel.nbr_ids[lo:int(kernel.indptr[i + 1])]
        self._k = kernel
        self._i = i
        self._vp = _ColumnMap(kernel.vp_parent, lo, seg)
        self._vs = _ColumnMap(kernel.vp_sub_max, lo, seg)
        self._vd = _ColumnMap(kernel.vp_dmax, lo, seg)
        super().__init__(node_id, neighbors, parent_map)
        kernel.parent[i] = self.parent
        kernel.degree[i] = self.degree

    @property
    def sub_max(self) -> int:
        return int(self._k.sub_max[self._i])

    @sub_max.setter
    def sub_max(self, value: int) -> None:
        self._k.sub_max[self._i] = value

    @property
    def dmax(self) -> int:
        return int(self._k.dmax[self._i])

    @dmax.setter
    def dmax(self, value: int) -> None:
        self._k.dmax[self._i] = value

    @property
    def view_parent(self) -> _ColumnMap:
        return self._vp

    @view_parent.setter
    def view_parent(self, mapping: Mapping[NodeId, NodeId]) -> None:
        self._vp.update(mapping)

    @property
    def view_sub_max(self) -> _ColumnMap:
        return self._vs

    @view_sub_max.setter
    def view_sub_max(self, mapping: Mapping[NodeId, int]) -> None:
        self._vs.update(mapping)

    @property
    def view_dmax(self) -> _ColumnMap:
        return self._vd

    @view_dmax.setter
    def view_dmax(self, mapping: Mapping[NodeId, int]) -> None:
        self._vd.update(mapping)

    def add_neighbor(self, u: NodeId) -> None:
        raise SimulationError(
            "the array backend does not support live topology churn")

    def remove_neighbor(self, u: NodeId) -> None:
        raise SimulationError(
            "the array backend does not support live topology churn")


# -- engine drivers ------------------------------------------------------------


class _SubstrateOps:
    """Shared column-driver plumbing for the substrate protocols.

    Satisfies the ops contract of :func:`~.array_engine.execute_plan`.
    Every channel is a plain physical queue and timeout gossip goes through
    the ordinary object machinery (``broadcast`` + ``flush_outbox``), so
    the only protocol-specific parts are the vectorized rules pass, the
    gossip scatter and the message (de)construction.
    """

    virtual_gossip = False

    def __init__(self, network: "Network"):
        self.network = network
        self.kernel = network.kernel
        self.gossip_bits = self._proto_msg().size_bits(network.n)

    def slot_pass(self, R: np.ndarray,
                  scalars: List[Tuple[NodeId, NodeId, object]]) -> List[bool]:
        """Refresh the rule nodes ``R``; return which ``scalars`` are no-ops.

        The substrate handlers ignore anything that is not their gossip
        type; garbage is the only such traffic, and dropping it batched
        matches the scalar no-op handler byte for byte.
        """
        if len(R):
            self.kernel.refresh(R)
        return [type(msg) is GarbageMessage for _dst, _src, msg in scalars]

    def run_timeouts(self, T: np.ndarray) -> int:
        """Broadcast the timeout gossip of the node indices ``T`` through
        the object path; returns the number of messages sent.

        The scalar timeout handler interleaves rule application and
        broadcast per node; batching all rule passes before all broadcasts
        commutes because a broadcast reads only its own sender's (already
        refreshed) state and sends only append behind queued traffic.
        """
        network = self.network
        processes = network.processes
        node_ids = self.kernel.node_ids
        flush = network.flush_outbox
        total = 0
        for i in T.tolist():
            v = node_ids[i]
            process = processes[v]
            process.broadcast(self._gossip_of(process))
            total += flush(v)
        return total


class STArrayOps(_SubstrateOps):
    """Column driver wiring the engine to a :class:`SpanningTreeArrayNetwork`."""

    gossip_type = STInfo
    gossip_name = "STInfo"

    @staticmethod
    def _proto_msg() -> STInfo:
        return STInfo(root=0, parent=0, distance=0)

    @staticmethod
    def _gossip_of(process: ArraySpanningTreeProcess) -> STInfo:
        v = process.vars
        return STInfo(root=v.root, parent=v.parent, distance=v.distance)

    def fields_of(self, msg: STInfo) -> tuple:
        return (msg.root, msg.parent, msg.distance)

    def scatter_fields(self, P: np.ndarray, fields: List[tuple]) -> None:
        k = self.kernel
        cols = list(zip(*fields))
        k.v_root[P] = cols[0]
        k.v_parent[P] = cols[1]
        k.v_distance[P] = cols[2]
        k.v_heard[P] = True


class PIFArrayOps(_SubstrateOps):
    """Column driver wiring the engine to a :class:`PIFArrayNetwork`."""

    gossip_type = DegreeInfo
    gossip_name = "DegreeInfo"

    @staticmethod
    def _proto_msg() -> DegreeInfo:
        return DegreeInfo(parent=0, degree=0, sub_max=0, dmax=0)

    @staticmethod
    def _gossip_of(process: ArrayMaxDegreeProcess) -> DegreeInfo:
        return DegreeInfo(parent=process.parent, degree=process.degree,
                          sub_max=process.sub_max, dmax=process.dmax)

    def fields_of(self, msg: DegreeInfo) -> tuple:
        # The scalar handler ignores ``msg.degree``.
        return (msg.parent, msg.sub_max, msg.dmax)

    def scatter_fields(self, P: np.ndarray, fields: List[tuple]) -> None:
        k = self.kernel
        cols = list(zip(*fields))
        k.vp_parent[P] = cols[0]
        k.vp_sub_max[P] = cols[1]
        k.vp_dmax[P] = cols[2]


# -- networks ------------------------------------------------------------------


class _SubstrateNetwork(Network):
    """Plain-channel network carrying a column driver for the slot engine.

    The flat column layout is frozen at construction, so live topology
    churn is rejected exactly like :class:`~.array_kernel.ArrayNetwork`.
    """

    def backlog(self) -> np.ndarray:
        """Queued messages per flat view row (the active channels')."""
        k = self.kernel
        counts = np.zeros(k.total, dtype=_I64)
        channels = self.channels
        for src, dst in self._active:
            counts[k.pos[(dst, src)]] += len(channels[(src, dst)]._queue)
        return counts

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


class SpanningTreeArrayNetwork(_SubstrateNetwork):
    """Array-backed network of the standalone spanning-tree protocol."""

    def __init__(self, graph: nx.Graph, *, n_upper: int):
        kernel = STKernel(graph, n_upper)
        self.kernel = kernel

        def factory(node_id: NodeId,
                    neighbors: Sequence[NodeId]) -> ArraySpanningTreeProcess:
            return ArraySpanningTreeProcess(node_id, neighbors, kernel)

        super().__init__(graph, factory)
        self._array_ops = STArrayOps(self)


class PIFArrayNetwork(_SubstrateNetwork):
    """Array-backed network of the standalone max-degree protocol."""

    def __init__(self, graph: nx.Graph,
                 parent_map: Mapping[NodeId, NodeId]):
        kernel = PIFKernel(graph)
        self.kernel = kernel

        def factory(node_id: NodeId,
                    neighbors: Sequence[NodeId]) -> ArrayMaxDegreeProcess:
            return ArrayMaxDegreeProcess(node_id, neighbors, parent_map,
                                         kernel)

        super().__init__(graph, factory)
        kernel.finalize()
        self._array_ops = PIFArrayOps(self)


def build_array_st_network(graph: nx.Graph, *,
                           n_upper: int) -> SpanningTreeArrayNetwork:
    """Array twin of ``Network(graph, spanning_tree_process_factory(...))``."""
    return SpanningTreeArrayNetwork(graph, n_upper=n_upper)


def build_array_pif_network(graph: nx.Graph,
                            parent_map: Mapping[NodeId, NodeId]
                            ) -> PIFArrayNetwork:
    """Array twin of ``Network(graph, max_degree_process_factory(...))``."""
    return PIFArrayNetwork(graph, parent_map)
