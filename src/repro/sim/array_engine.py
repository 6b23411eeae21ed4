"""Vectorized asynchronous scheduling for the array backend.

PR 7's array kernel batched only the synchronous round; every other
scheduler still walked the per-object path, so ``backend="array"`` lost its
edge the moment a run asked for asynchrony.  This module closes that gap
with a *slot-major* batched engine that the asynchronous schedulers drive
through the exact per-event ordering semantics of the object kernel:

* **Plans.**  Each scheduler first *plans* its round exactly as the object
  implementation would execute it -- same pool construction, same rng
  draws, same slow-link bookkeeping -- but instead of executing events one
  by one it extracts, per node, that node's subsequence of events (its
  timeout actions and the deliveries addressed to it, in plan order).
* **Commutation.**  Two enabled events at *distinct* nodes always commute:
  a delivery writes only the destination's own state and view row and pops
  a message whose content was frozen at send time, and a timeout writes
  only the acting node's state and appends to its own out-channels.  Every
  event that touches node ``v``'s state has actor ``v``, per-channel pops
  happen only in the destination's events (FIFO order preserved) and
  appends only in the source's (send order preserved), and a round's plan
  never pops beyond the round-start backlog -- so any interleaving that
  preserves each node's own subsequence produces byte-identical results.
* **Slots.**  The engine therefore executes *slot* ``j`` of every node
  together, with at most one vectorized kernel pass per slot: the gossip
  deliveries become one batched scatter, then a single rules pass
  (:func:`~repro.sim.array_kernel.mdst_slot_pass`) refreshes the gossip
  destinations and the timeout actors together and, in the same pass,
  returns the no-op gate verdict of the slot's ``Search``/``Deblock``
  destinations; the gate drops the Search-storm traffic a non-stabilized
  destination would ignore, the surviving control messages run the real
  scalar handlers, and the timeouts finish with a batched gossip send and
  the search-initiation hook.  Moving the timeout refresh and the gate
  ahead of the handlers is the commutation argument again: a slot holds
  one event per node, a handler writes only its own node's state and
  out-channels, and the gate reads only its destination's own columns and
  view rows, which no other event of the slot writes.
* **Virtual gossip.**  On an :class:`~repro.sim.array_kernel.ArrayNetwork`
  the round's gossip never becomes message objects at all: timeout slots
  mint the same per-source virtual tokens the synchronous fast path uses
  (:meth:`~repro.sim.array_kernel.ArrayNetwork._mint`), and delivery
  slots consume them straight from the gossip snapshot columns.  An
  asynchronous plan consumes a source's tokens one channel at a time, so
  consumption is a per-directed-edge counter and a channel can hold up to
  *two* generations at once -- the source's current snapshot (``g_*``)
  and, when the source minted again before this channel delivered, the
  previous one (``go_*``); the scatter splits its batch by generation.
  By the FIFO invariant (physical traffic always logically precedes the
  in-flight tokens) a planned delivery pops the physical queue first and
  goes virtual only once it is empty, and all channel statistics fold
  lazily from the counters -- the slot loop never touches a channel
  object for pure gossip.

The engine is protocol-agnostic: it talks to the columns through a small
*ops* driver (:class:`MDSTArrayOps` here; the spanning-tree and PIF
substrate drivers live in :mod:`repro.sim.array_substrates` and run the
same engine with plain physical channels, ``virtual_gossip = False``).
Any configuration outside the batched contract -- full event logs,
disabled nodes, a slow-link backlog carrying stateful control payloads --
falls back to the scalar scheduler, which stays byte-identical because
virtual tokens materialize on demand under scalar delivery and are
counted by ``ArrayNetwork.enabled_deliveries``.

What stays scalar, honestly: ``Search``/``Back``/``Remove`` forwarding
carries variable-length path/visited tuples that have no fixed column
shape, so messages that reach a real handler body run the object code.
The wins come from batching the dense gossip and dropping the storm's
no-op deliveries in bulk, which is where the volume is.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.messages import MInfo
from ..types import NodeId
from .array_kernel import (
    ArrayNetwork,
    ArraySyncScheduler,
    account_dropped_deliveries,
    mdst_slot_pass,
)
from .messages import GarbageMessage
from .network import EnabledEvents, Network
from .scheduler import (
    AdversarialScheduler,
    RandomAsyncScheduler,
    RoundStats,
    Scheduler,
    SynchronousScheduler,
    WeightedFairScheduler,
)
from .trace import TraceRecorder

__all__ = [
    "ArrayAdversarialScheduler",
    "ArrayRandomAsyncScheduler",
    "ArrayWeightedFairScheduler",
    "MDSTArrayOps",
    "execute_plan",
    "get_ops",
    "sync_plan",
    "wrap_scheduler_for_array",
]

_I64 = np.int64

#: A per-node event plan: each node maps to its own event subsequence,
#: entries ``("t",)`` (one timeout action) or ``("d", channel, src)``
#: (deliver the head message of ``channel``).
Plan = Dict[NodeId, List[tuple]]


class MDSTArrayOps:
    """Column driver wiring the engine to an MDST :class:`ArrayNetwork`."""

    gossip_type = MInfo
    gossip_name = "MInfo"
    #: Timeout gossip is minted as per-source virtual tokens, not objects.
    virtual_gossip = True

    def __init__(self, network: ArrayNetwork):
        self.network = network
        self.kernel = network.kernel
        self.enable_reduction = network._enable_reduction
        self.gossip_bits = network._minfo_bits

    def view_row(self, src: NodeId, dst: NodeId) -> int:
        return self.kernel.pos[(dst, src)]

    def fields_of(self, msg: MInfo) -> tuple:
        """The scatter-column values carried by one physical gossip object."""
        return (msg.root, msg.parent, msg.distance, msg.degree, msg.sub_max,
                msg.dmax, msg.color)

    def scatter(self, P: np.ndarray, pos: List[int], fields: List[tuple],
                vsel: Optional[np.ndarray] = None) -> None:
        """Write the slot's gossip batch into the view rows ``P``.

        Rows default to their senders' *current*-generation token content
        (the ``g_*`` snapshot columns).  ``vsel`` indexes the rows that
        are virtual token pops: any of them whose channel still holds two
        generations consumes the *older* one (``go_*``) instead, and all
        of them advance the consumed counters -- the whole per-channel
        bookkeeping of a gossip pop is these few array ops, the channel
        statistics fold lazily from the counters later.  The rows at
        ``P[pos]`` were real ``MInfo`` objects (start-up traffic,
        materialized tokens) and carry their own frozen ``fields``, which
        override the column scatter.
        """
        k = self.kernel
        src_idx = k.nbr_node_idx[P]
        k.v_root[P] = k.g_root[src_idx]
        k.v_parent[P] = k.g_parent[src_idx]
        k.v_distance[P] = k.g_distance[src_idx]
        k.v_degree[P] = k.g_degree[src_idx]
        k.v_sub_max[P] = k.g_sub_max[src_idx]
        k.v_dmax[P] = k.g_dmax[src_idx]
        k.v_color[P] = k.g_color[src_idx]
        if vsel is not None:
            net = self.network
            dr = net._vg_del_row
            rows_v = P[vsel]
            old = dr[rows_v] + 1 < net._vg_sent_src[src_idx[vsel]]
            if old.any():
                at = rows_v[old]
                osrc = src_idx[vsel[old]]
                k.v_root[at] = k.go_root[osrc]
                k.v_parent[at] = k.go_parent[osrc]
                k.v_distance[at] = k.go_distance[osrc]
                k.v_degree[at] = k.go_degree[osrc]
                k.v_sub_max[at] = k.go_sub_max[osrc]
                k.v_dmax[at] = k.go_dmax[osrc]
                k.v_color[at] = k.go_color[osrc]
            # Rows are unique within a slot (one event per actor), so the
            # batched bump is exact.
            dr[rows_v] += 1
            nv = len(rows_v)
            net._vg_virtual_total -= nv
            net._pending_total -= nv
            net._version += nv
        if fields:
            at = P[np.asarray(pos, dtype=np.intp)]
            cols = list(zip(*fields))
            k.v_root[at] = cols[0]
            k.v_parent[at] = cols[1]
            k.v_distance[at] = cols[2]
            k.v_degree[at] = cols[3]
            k.v_sub_max[at] = cols[4]
            k.v_dmax[at] = cols[5]
            k.v_color[at] = np.asarray(cols[6], dtype=bool)
        k.v_heard[P] = True

    def slot_pass(self, R: np.ndarray,
                  scalars: List[Tuple[NodeId, NodeId, object]]) -> List[bool]:
        """Refresh the rule nodes ``R``; return which ``scalars`` are no-ops.

        Unconditional (unlike the sync fast path's changed-mask): a control
        handler earlier in the round can change a destination's own state
        so that a rule fires on an unchanged view row.
        """
        return mdst_slot_pass(self.network, R, scalars)

    def send_gossip(self, T: np.ndarray, t_nodes: List[NodeId]) -> int:
        """Mint the slot's timeout gossip as virtual tokens.

        The asynchronous twin of the synchronous phase 3 send:
        :meth:`~repro.sim.array_kernel.ArrayNetwork._mint` materializes
        any still-unconsumed previous-generation token of these sources
        (its snapshot buffer is about to be reused), shifts the snapshot
        generations and advances the sent counters.  Channels already
        carrying physical traffic need no special step: the new token is
        logically *behind* that traffic by the FIFO invariant, exactly
        matching the send order.  Returns the number of (virtual) sends.
        """
        return self.network._mint(T)

    def timeout_pre(self, process) -> None:
        process._timeout_count += 1

    def timeout_hook(self, process, v: NodeId, i: int) -> int:
        """The search-initiation hook of ``MDSTNode.on_timeout`` (post-gossip)."""
        if not self.enable_reduction:
            return 0
        if process._jitter.random() < 1.0 / process.search_period:
            k = self.kernel
            if k.locally_stab[i] and k.dmax[i] >= 3:
                process._initiate_searches(idblock=None, limit=1)
                if process.outbox._items:
                    return self.network.flush_outbox(v)
        return 0


def get_ops(network: Network):
    """The network's engine driver, or ``None`` for plain object networks."""
    ops = getattr(network, "_array_ops", None)
    if ops is None and isinstance(network, ArrayNetwork):
        ops = MDSTArrayOps(network)
        network._array_ops = ops
    return ops


def execute_plan(network: Network, ops, seqs: Plan,
                 trace: Optional[TraceRecorder], stats: RoundStats) -> None:
    """Execute a per-node event plan slot by slot, batching each slot.

    Slot ``j`` runs the ``j``-th planned event of every node: gossip
    deliveries (virtual tokens and physical messages alike) as one
    scatter, then one ``ops.slot_pass`` call -- the rules of the
    gossip destinations and the timeout actors plus the no-op gate of the
    control deliveries -- then the surviving scalar handlers, and last the
    timeouts' gossip send and hooks (ascending node id).  Per-node event
    order is the plan's order, which the commutation argument in the
    module docstring makes equivalent to the object scheduler's total
    order -- byte for byte, including channel statistics, trace counters
    and rng evolution.
    """
    kernel = ops.kernel
    index = kernel.index
    processes = network.processes
    dirty = network._dirty
    gossip_type = ops.gossip_type
    use_virtual = ops.virtual_gossip
    actors = list(seqs.items())
    slot = 0
    while actors:
        g_rows: List[int] = []
        g_dsts: List[NodeId] = []
        g_pos: List[int] = []
        g_fields: List[tuple] = []
        n_virtual = 0
        scalars: List[Tuple[NodeId, NodeId, object]] = []
        t_nodes: List[NodeId] = []
        nxt: List[Tuple[NodeId, List[tuple]]] = []
        nslot = slot + 1
        for item in actors:
            v, seq = item
            ev = seq[slot]
            if len(seq) > nslot:
                nxt.append(item)
            if ev[0] == "t":
                t_nodes.append(v)
                continue
            ch = ev[1]
            if use_virtual and not ch._queue:
                # Virtual token pop: content comes straight from the
                # sender's gossip snapshot columns, no message object.
                # (The plan never pops beyond the round-start backlog, so
                # an empty physical queue here implies a pending token.)
                g_rows.append(ch._row)
                g_dsts.append(v)
                n_virtual += 1
                continue
            if not ch:  # the object path's emptiness guard
                continue
            src = ev[2]
            msg = ch.deliver()
            if type(msg) is gossip_type:
                g_rows.append(ops.view_row(src, v))
                g_dsts.append(v)
                g_pos.append(len(g_rows) - 1)
                g_fields.append(ops.fields_of(msg))
            else:
                scalars.append((v, src, msg))
        actors = nxt
        if g_rows:
            vsel = None
            if n_virtual:
                if n_virtual == len(g_rows):
                    vsel = np.arange(n_virtual, dtype=np.intp)
                else:
                    mark = np.ones(len(g_rows), dtype=bool)
                    mark[np.asarray(g_pos, dtype=np.intp)] = False
                    vsel = np.nonzero(mark)[0]
            ops.scatter(np.asarray(g_rows, dtype=np.intp), g_pos, g_fields,
                        vsel)
        t_nodes.sort()
        ng = len(g_dsts)
        nt = len(t_nodes)
        drop = ()
        if ng or nt or scalars:
            # The slot's one rules pass: gossip destinations and timeout
            # actors together, plus the control gate.
            R = np.fromiter((index[v] for v in chain(g_dsts, t_nodes)),
                            dtype=_I64, count=ng + nt)
            drop = ops.slot_pass(R, scalars)
        if ng:
            for dst in g_dsts:
                processes[dst].steps_taken += 1
            dirty.update(g_dsts)
            network._version += ng
            stats.steps += ng
            stats.deliveries += ng
            if trace is not None:
                mtc = trace.message_type_counts
                mtc[ops.gossip_name] = mtc.get(ops.gossip_name, 0) + ng
                if ops.gossip_bits > trace.max_message_bits:
                    trace.max_message_bits = ops.gossip_bits
                trace.total_deliveries += ng
                if trace.rounds:
                    rec = trace.rounds[-1]
                    rec.steps += ng
                    rec.deliveries += ng
        if True in drop:
            dropped = [s for s, dr in zip(scalars, drop) if dr]
            scalars = [s for s, dr in zip(scalars, drop) if not dr]
            account_dropped_deliveries(network, trace, stats, dropped)
        for dst, src, msg in scalars:
            process = processes[dst]
            process.on_message(src, msg)
            process.steps_taken += 1
            network.note_step(dst)
            sent = network.flush_outbox(dst)
            stats.steps += 1
            stats.deliveries += 1
            stats.messages_sent += sent
            if trace is not None:
                trace.record_delivery(src, dst, msg, sent)
        if nt:
            # The timeouts' refresh ran in the slot pass; their gossip
            # mint and search-initiation hook run after the handlers.
            T = R[ng:]
            gossip_sends = ops.send_gossip(T, t_nodes)
            total_sent = gossip_sends
            for v, i in zip(t_nodes, T.tolist()):
                process = processes[v]
                ops.timeout_pre(process)
                total_sent += ops.timeout_hook(process, v, i)
                process.steps_taken += 1
            dirty.update(t_nodes)
            # Physical gossip sends tick the version through the channel
            # watcher; virtual mints must be counted here.
            network._version += nt + (gossip_sends if use_virtual else 0)
            stats.steps += nt
            stats.timeouts += nt
            stats.messages_sent += total_sent
            if trace is not None:
                trace.total_timeouts += nt
                trace.total_messages_sent += total_sent
                if trace.rounds:
                    rec = trace.rounds[-1]
                    rec.steps += nt
                    rec.timeouts += nt
                    rec.messages_sent += total_sent
        slot += 1


# -- plan builders: each replicates its scheduler's execution order exactly ----


#: The shared timeout plan entry (entries are read-only, so one tuple
#: object serves every slot of every plan).
_T = ("t",)


def sync_plan(network: Network, events: EnabledEvents) -> Plan:
    """The synchronous order: backlog per destination, then all timeouts."""
    seqs: Plan = {}
    channels = network.channels
    for dst, sources in Scheduler._deliveries_by_dst(events):
        seq = seqs.setdefault(dst, [])
        for src, count in sources:
            entry = ("d", channels[(src, dst)], src)
            if count == 1:
                seq.append(entry)
            else:
                seq.extend([entry] * count)
    for v in events.timeouts:
        seqs.setdefault(v, []).append(_T)
    return seqs


class _ArrayAsyncBase:
    """Shared engine routing for the array async schedulers.

    ``schedule_round`` routes to the engine when the network has a column
    driver and the configuration is inside the batched contract; otherwise
    the scalar parent runs, and any in-flight virtual gossip stays
    transparent to it (tokens materialize on demand under scalar delivery
    and are counted by ``ArrayNetwork.enabled_deliveries``).
    """

    def schedule_round(self, network: Network, events: EnabledEvents,
                       trace: Optional[TraceRecorder],
                       stats: RoundStats) -> None:
        ops = get_ops(network)
        if (ops is None or network._disabled
                or (trace is not None and trace.keep_events)):
            super().schedule_round(network, events, trace, stats)
            return
        seqs = self._plan(network, ops, events)
        if seqs is None:  # plan refused (outside the batched contract)
            super().schedule_round(network, events, trace, stats)
            return
        execute_plan(network, ops, seqs, trace, stats)


class ArrayRandomAsyncScheduler(_ArrayAsyncBase, RandomAsyncScheduler):
    """:class:`RandomAsyncScheduler` driving the batched engine.

    The event pool and the seeded permutation are built exactly as the
    parent builds them -- same pool order, same single ``rng.permutation``
    draw -- so the rng evolves identically and the per-node subsequences
    are the parent's execution order restricted to each node.
    """

    def _plan(self, network: Network, ops,
              events: EnabledEvents) -> Optional[Plan]:
        channels = network.channels
        pool: List[Tuple[NodeId, tuple]] = [(v, _T) for v in events.timeouts]
        for src, dst, count in events.deliveries:
            item = (dst, ("d", channels[(src, dst)], src))
            if count == 1:
                pool.append(item)
            else:
                pool.extend([item] * count)
        order = self.rng.permutation(len(pool))
        seqs: Plan = {}
        get = seqs.get
        for idx in order.tolist():
            actor, entry = pool[idx]
            seq = get(actor)
            if seq is None:
                seqs[actor] = [entry]
            else:
                seq.append(entry)
        return seqs


class ArrayAdversarialScheduler(_ArrayAsyncBase, AdversarialScheduler):
    """:class:`AdversarialScheduler` driving the batched engine.

    The slow-link age bookkeeping runs at plan time in the parent's exact
    loop order.  Release bursts deliver ``len(channel)`` messages measured
    mid-phase in the parent; that length is plan-time-computable exactly
    when the delivery phase emits no sends, i.e. when every queued message
    is gossip or garbage -- any stateful control payload on a round-start
    queue refuses the plan and falls back to the scalar parent (ages
    untouched: the parent then performs the identical bookkeeping).
    """

    def _plan(self, network: Network, ops,
              events: EnabledEvents) -> Optional[Plan]:
        slow = self.slow_links
        channels = network.channels
        if slow:
            gossip_type = ops.gossip_type
            for src, dst, _count in events.deliveries:
                # Only the physical queue can hold control payloads; a
                # virtual token is gossip by construction.
                for m in channels[(src, dst)]._queue:
                    if (type(m) is not gossip_type
                            and type(m) is not GarbageMessage):
                        return None
        seqs: Plan = {}
        for dst, sources in self._deliveries_by_dst(events):
            for src, count in sources:
                link = (src, dst)
                if link in slow:
                    age = self._age.get(link, 0) + 1
                    if age < self.max_delay:
                        self._age[link] = age
                        continue
                    self._age[link] = 0
                    count = len(channels[link])
                if count:
                    entry = ("d", channels[link], src)
                    seqs.setdefault(dst, []).extend([entry] * count)
        for v in events.timeouts:
            seqs.setdefault(v, []).append(_T)
        return seqs


class ArrayWeightedFairScheduler(_ArrayAsyncBase, WeightedFairScheduler):
    """:class:`WeightedFairScheduler` driving the batched engine.

    The parent's timeout phase runs in passes; per node that is simply
    ``weight(v)`` consecutive timeout events after its deliveries, which is
    exactly the node's subsequence of the pass order (``weight`` is called
    once per node, in the parent's order, so validation errors surface
    identically).
    """

    def _plan(self, network: Network, ops,
              events: EnabledEvents) -> Optional[Plan]:
        seqs = sync_plan(network, events)
        # sync_plan already appended pass 0's timeout for every node.
        for v in events.timeouts:
            extra = self.weight(v) - 1
            if extra > 0:
                seqs[v].extend([_T] * extra)
        return seqs


def wrap_scheduler_for_array(scheduler: Scheduler) -> Scheduler:
    """The array-backend twin of a freshly built scheduler.

    Carries over all live policy state -- the unused rng object, slow-link
    set and ages, weight function -- so the wrapped scheduler's visible
    behaviour (and rng evolution) is identical to the original's.  Unknown
    scheduler types pass through unchanged and simply run the scalar path.
    """
    kind = type(scheduler)
    if kind is SynchronousScheduler:
        return ArraySyncScheduler()
    if kind is RandomAsyncScheduler:
        wrapped = ArrayRandomAsyncScheduler()
        wrapped.rng = scheduler.rng
        return wrapped
    if kind is AdversarialScheduler:
        wrapped = ArrayAdversarialScheduler(max_delay=scheduler.max_delay)
        wrapped.slow_links = scheduler.slow_links
        wrapped.rng = scheduler.rng
        wrapped._age = scheduler._age
        return wrapped
    if kind is WeightedFairScheduler:
        wrapped = ArrayWeightedFairScheduler(
            default_weight=scheduler.default_weight)
        wrapped._weight_fn = scheduler._weight_fn
        return wrapped
    return scheduler
