"""The array backend's one execution engine: array-form plans, run slot by slot.

Every scheduler of the array backend -- synchronous, random, adversarial
and weighted -- runs its rounds through :func:`execute_plan`.  A scheduler
is reduced to a small *plan builder* that reproduces the object
scheduler's execution order exactly, and the engine executes the plan with
a few vectorized passes per slot:

* **Plans.**  A round's plan is one :class:`Plan` of four arrays: the
  acting node indices (ascending), each actor's start and count in the
  flat event array, and the event array itself, whose entries are the
  destination's flat view row for a delivery or ``-1`` for a timeout.
  The entries of one actor are that node's own subsequence of the
  object scheduler's total order.  The synchronous, adversarial and
  weighted builders read the round-start backlog straight from the
  channel counters in CSR segment order (destination ascending, source
  ascending -- the object schedulers' delivery order) and append each
  node's timeouts; the random builder draws the object scheduler's single
  ``rng.permutation`` over the same event pool and groups it by actor
  with a stable argsort.
* **Commutation.**  Two enabled events at *distinct* nodes always commute:
  a delivery writes only the destination's own state and view row and pops
  a message whose content was frozen at send time, and a timeout writes
  only the acting node's state and appends to its own out-channels.  Every
  event that touches node ``v``'s state has actor ``v``, per-channel pops
  happen only in the destination's events (FIFO order preserved) and
  appends only in the source's (send order preserved), and a round's plan
  never pops beyond the round-start backlog -- so any interleaving that
  preserves each node's own subsequence produces byte-identical results.
* **Slots.**  The engine therefore executes *slot* ``j`` -- the ``j``-th
  event of every actor -- together: ``events[starts[counts > j] + j]``.
  Virtual gossip pops become one batched scatter, then a single rules pass
  (:meth:`MDSTArrayOps.slot_pass`) refreshes the gossip destinations and the
  timeout actors together and, in the same pass, returns the no-op verdict
  of the slot's control deliveries; the surviving control messages run the
  real scalar handlers, and the timeouts finish with their gossip send and
  the search-initiation hook.  Moving the timeout refresh and the gate ahead
  of the handlers is the commutation argument again: a slot holds one event
  per node, a handler writes only its own node's state and out-channels, and
  the gate reads only its destination's own columns and view rows, which no
  other event of the slot writes.  A node whose columns are *settled* -- a
  fixpoint of the rules that no write has touched since; a pop that repeats
  what its view row holds is no write -- skips the pass, and its gate
  verdict is the ``locally_stab`` the last pass left; a slot of settled
  nodes runs no pass at all.
* **Virtual gossip.**  On an :class:`~repro.sim.array_kernel.ArrayNetwork`
  the gossip never becomes message objects: timeouts mint per-source
  virtual tokens (:meth:`~repro.sim.array_kernel.ArrayNetwork._mint`) and
  delivery slots consume them straight from the gossip snapshot columns.
  Consumption is a per-directed-edge counter and a channel can hold up to
  *two* generations at once -- the source's current snapshot (``g_*``)
  and, when the source minted again before this channel delivered, the
  previous one (``go_*``).  A planned delivery pops whatever the channel
  holds first -- its tokens ahead of the physical queue, the queue, then
  the remaining tokens (see :class:`~repro.sim.array_kernel.ArrayChannel`)
  -- and a per-edge flag tells the slot which rows pop physically.

Per-event Python is left only where a channel holds a physical queue:
control traffic and materialized tokens.  Per-node Python is left for the
step counters and the timeout hooks, once per round.

The array backend serves MDST alone, and :class:`MDSTArrayOps` holds the
engine's column work over an :class:`~repro.sim.array_kernel.ArrayNetwork`.
An attached event log and disabled nodes fall back to the object
scheduler, which stays byte-identical because virtual tokens materialize
on demand under scalar delivery and are counted by
``ArrayNetwork.enabled_deliveries``.

What stays scalar, honestly: ``Search``/``Back``/``Remove`` forwarding
carries variable-length path/visited tuples that have no fixed column
shape, so messages that reach a real handler body run the object code.
The wins come from batching the dense gossip and dropping the storm's
no-op deliveries in bulk, which is where the volume is.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..core.messages import Deblock, MInfo, Search, UpdateDist
from ..types import NodeId
from .array_kernel import ArrayNetwork, channel_rows
from .messages import GarbageMessage
from .network import Network
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
    "ArraySyncScheduler",
    "ArrayWeightedFairScheduler",
    "MDSTArrayOps",
    "Plan",
    "execute_plan",
    "get_ops",
    "wrap_scheduler_for_array",
]

_I64 = np.int64


class Plan(NamedTuple):
    """One round's events in array form.

    ``events[starts[a]:starts[a] + counts[a]]`` is the event subsequence of
    node index ``actors[a]``: a flat view row (a delivery on the channel
    that row stands for) or ``-1`` (a timeout).  ``actors`` is ascending.
    """

    actors: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    events: np.ndarray


def _exclusive_cumsum(counts: np.ndarray) -> np.ndarray:
    out = np.zeros(len(counts), dtype=_I64)
    np.cumsum(counts[:-1], out=out[1:])
    return out


class MDSTArrayOps:
    """The engine's column work over an MDST :class:`ArrayNetwork`."""

    def __init__(self, network: ArrayNetwork):
        self.network = network
        self.kernel = network.kernel
        self.enable_reduction = network._enable_reduction

    def scatter_tokens(self, P: np.ndarray, D: np.ndarray) -> None:
        """Pop one virtual token into each of the view rows ``P`` (of the
        destinations ``D``).

        Rows take their senders' *current*-generation snapshot (``g_*``)
        unless the channel still holds two generations, in which case the
        pop consumes the *older* one (``go_*``).  Advancing the consumed
        counters is the whole per-channel bookkeeping of a gossip pop; the
        channel statistics fold lazily from the counters later.

        A pop that changes a destination's view row clears its
        :attr:`~repro.sim.array_kernel.ArrayKernel.settled` flag; a pop
        that repeats what the row holds keeps it, so the slot's pass skips
        that destination.
        """
        k = self.kernel
        net = self.network
        src = k.nbr_idx[P]
        dr = net._vg_del_row
        old = dr[P] + 1 < net._vg_sent_src[src]
        tokens = [g[src] for g in k.g_cols]
        if old.any():
            at, osrc = np.nonzero(old)[0], src[old]
            for col, go in zip(tokens, k.go_cols):
                col[at] = go[osrc]
        if k.settled[D].any():
            changed = ~k.v_heard[P]
            for v, col in zip(k.v_cols, tokens):
                changed |= v[P] != col
                v[P] = col
            k.settled[D[changed]] = False
        else:
            for v, col in zip(k.v_cols, tokens):
                v[P] = col
        k.v_heard[P] = True
        # Rows are unique within a slot (one event per actor), so the
        # batched bumps are exact.  A popped ahead token may uncover the
        # physical queue behind it.
        dr[P] += 1
        ahead = net._vg_ahead[P]
        if ahead.any():
            net._vg_ahead[P] = np.maximum(ahead - 1, 0)
            net._row_physical[P[ahead == 1]] = True
        nv = len(P)
        net._vg_virtual_total -= nv
        net._pending_total -= nv
        net._version += nv

    def scatter_fields(self, P: List[int], D: List[int],
                       fields: List[tuple]) -> None:
        """Write popped gossip objects (start-up traffic, materialized
        tokens) into their view rows ``P``, clearing the
        :attr:`~repro.sim.array_kernel.ArrayKernel.settled` flags of their
        destinations ``D``."""
        k = self.kernel
        for v, col in zip(k.v_cols, zip(*fields)):
            v[P] = col
        k.v_heard[P] = True
        k.settled[D] = False

    def slot_pass(self, R: np.ndarray,
                  scalars: List[Tuple[NodeId, NodeId, object]]) -> List[bool]:
        """The one kernel pass of a slot: refresh ``R``, judge ``scalars``.

        ``R`` are the node indices whose rules the slot runs (its gossip
        destinations and its timeout actors); they are refreshed with the
        reduction-layer predicate on.  The return value says which of the
        popped control messages ``(dst, src, msg)`` are no-ops.  The MDST
        handlers drop a large share of Search-storm traffic at the door:
        ``Search``/``Deblock`` return immediately at a destination that is
        not locally stabilized, ``UpdateDist`` is ignored unless it arrives
        from the destination's current parent, garbage never matches a
        handler, and with the reduction layer disabled *every* non-gossip
        message is ignored.  Those early-returns read state but never write
        it, so the dropped messages are accounted without running a
        handler; messages that would reach a real handler body stay scalar.

        The ``Search``/``Deblock`` verdicts come out of the same
        :meth:`~repro.sim.array_kernel.ArrayKernel.refresh` call as the
        rules, as its gate nodes.  A slot holds one event per node, so those
        destinations are distinct and disjoint from ``R``, and each verdict
        reads only its destination's own columns and view rows.

        :attr:`~repro.sim.array_kernel.ArrayKernel.settled` nodes take no
        part in the pass: their rules are a fixpoint, so the refresh of a
        settled member of ``R`` would write back what its columns hold, and
        a settled gate node's verdict is its ``locally_stab``.  The pass
        runs only for the rest, and not at all when nothing is left.
        """
        k = self.kernel
        R = R[~k.settled[R]]
        nsc = len(scalars)
        if not self.enable_reduction:
            # MDSTNode.on_message returns before dispatch for every
            # non-MInfo message when the reduction layer is off.
            if len(R):
                k.refresh(R)
            return [True] * nsc
        if not nsc:
            if len(R):
                k.refresh(R, predicates=True)
            return []
        drop = [False] * nsc
        gated: List[int] = []
        index = k.index
        for j, (dst, src, msg) in enumerate(scalars):
            t = type(msg)
            if t is GarbageMessage:
                drop[j] = True
            elif t is Search or t is Deblock:
                gated.append(j)
            elif t is UpdateDist:
                drop[j] = int(k.parent[index[dst]]) != src
        G = np.fromiter((index[scalars[j][0]] for j in gated), dtype=_I64,
                        count=len(gated))
        on = k.settled[G]
        stab = k.locally_stab[G]
        if len(R) or not on.all():
            stab[~on] = k.refresh(R, predicates=True, gate=G[~on])
        for j, ok in zip(gated, stab.tolist()):
            drop[j] = not ok
        return drop

    def run_timeouts(self, T: np.ndarray) -> int:
        """The timeout actions of the node indices ``T`` after their refresh.

        The gossip goes out as virtual tokens
        (:meth:`~repro.sim.array_kernel.ArrayNetwork._mint`); channels
        already carrying physical traffic need no special step, since the
        new token is logically *behind* that traffic, exactly matching the
        send order.  Then each node runs the search-initiation hook of
        ``MDSTNode.on_timeout``.  Returns the number of messages sent.
        """
        net = self.network
        k = self.kernel
        sent = net._mint(T)
        # Physical sends tick the version in ``flush_outbox``; virtual
        # mints are counted here.
        net._version += sent
        processes = net.processes
        node_ids = k.node_ids
        reduction = self.enable_reduction
        stab, dmax = k.locally_stab, k.dmax
        for i in T.tolist():
            process = processes[node_ids[i]]
            process._timeout_count += 1
            if (reduction
                    and process._jitter.random() < 1.0 / process.search_period
                    and stab[i] and dmax[i] >= 3):
                process._initiate_searches(idblock=None, limit=1)
                if process.outbox._items:
                    sent += net.flush_outbox(node_ids[i])
        return sent


def get_ops(network: Network) -> Optional[MDSTArrayOps]:
    """The array network's :class:`MDSTArrayOps`, built once, or ``None``
    for plain object networks."""
    if not isinstance(network, ArrayNetwork):
        return None
    if network._ops is None:
        network._ops = MDSTArrayOps(network)
    return network._ops


def backlog_plan(kernel, backlog: np.ndarray, timeouts: np.ndarray) -> Plan:
    """The synchronous-style plan: each node's round-start backlog in CSR
    segment order (sources ascending), then ``timeouts[i]`` timeouts."""
    rows = np.repeat(kernel._full_flat, backlog)
    cum = np.zeros(kernel.total + 1, dtype=_I64)
    np.cumsum(backlog, out=cum[1:])
    first = cum[kernel.indptr[:-1]]
    received = cum[kernel.indptr[1:]] - first
    counts = received + timeouts
    starts = _exclusive_cumsum(counts)
    events = np.full(int(cum[-1] + timeouts.sum()), -1, dtype=_I64)
    # Delivery k of node i sits at starts[i] + (k - first[i]).
    events[np.arange(len(rows), dtype=_I64)
           + np.repeat(starts - first, received)] = rows
    return Plan(kernel._all_idx, starts, counts, events)


def execute_plan(network: ArrayNetwork, ops: MDSTArrayOps, plan: Plan,
                 stats: RoundStats) -> None:
    """Execute an array-form plan slot by slot, batching each slot.

    Slot ``j`` runs the ``j``-th planned event of every actor: virtual
    gossip pops as one scatter, physical pops one by one (gossip objects
    join the scatter), then one ``ops.slot_pass`` call -- the rules of the
    gossip destinations and the timeout actors plus the no-op gate of the
    control deliveries -- then the surviving scalar handlers, and last the
    timeouts' gossip send and hooks.  Within a slot the order across nodes
    is immaterial (events at distinct nodes commute).  Per-node event
    order is the plan's order, which the commutation argument in the
    module docstring makes equivalent to the object scheduler's total
    order -- byte for byte, including channel statistics, per-type delivery
    counts and rng evolution.
    """
    kernel = ops.kernel
    node_ids = kernel.node_ids
    row_src = kernel.nbr_ids
    processes = network.processes
    physical = network._row_physical
    row_channel = channel_rows(network)[0]
    # Steps already credited to actors whose control handler ran: the
    # Deblock cooldown reads ``steps_taken``, so it is exact at every
    # handler call; all other steps are credited after the round.
    credited: Dict[NodeId, int] = {}
    n_gossip = n_popped = sent = 0
    by_type = stats.by_type
    events = plan.events
    # Actors by descending event count, so each slot's actors are a prefix.
    by_count = np.argsort(-plan.counts, kind="stable")
    A, S = plan.actors[by_count], plan.starts[by_count]
    sorted_counts = plan.counts[by_count]
    lives = np.searchsorted(-sorted_counts,
                            -np.arange(int(sorted_counts[0])),
                            side="left").tolist() if len(A) else []
    for j, live in enumerate(lives):
        A, S = A[:live], S[:live]
        E = events[S + j]
        is_t = E < 0
        T = A[is_t]
        deliver = ~is_t
        rows = E[deliver]
        dsts = A[deliver]
        f_rows: List[int] = []
        f_dsts: List[int] = []
        fields: List[tuple] = []
        scalars: List[Tuple[NodeId, NodeId, object]] = []
        phys = physical[rows]
        if phys.any():
            vrows, vdsts = rows[~phys], dsts[~phys]
            rows, dsts = rows[phys], dsts[phys]
        else:
            vrows, vdsts = rows, dsts
            rows = dsts = ()
        n_gossip += len(vrows)
        if len(vrows):
            ops.scatter_tokens(vrows, vdsts)
        if len(rows):
            n_popped += len(rows)
            for row, di in zip(rows.tolist(), dsts.tolist()):
                msg = network.pop(row_channel[row])
                if type(msg) is MInfo:
                    f_rows.append(row)
                    f_dsts.append(di)
                    fields.append((msg.root, msg.parent, msg.distance,
                                   msg.degree, msg.sub_max, msg.dmax,
                                   msg.color))
                else:
                    scalars.append((node_ids[di], int(row_src[row]), msg))
            if f_rows:
                ops.scatter_fields(f_rows, f_dsts, fields)
        n_gossip += len(f_rows)
        # The slot's one rules pass: gossip destinations and timeout actors
        # together, plus the control gate.
        R = (np.concatenate((vdsts, np.asarray(f_dsts, dtype=_I64), T))
             if f_dsts else np.concatenate((vdsts, T)))
        drop = ops.slot_pass(R, scalars)
        for s in scalars:
            name = type(s[2]).__name__
            by_type[name] = by_type.get(name, 0) + 1
        if True in drop:
            scalars = [s for s, dropped in zip(scalars, drop) if not dropped]
        for dst, src, msg in scalars:
            # Exactly Scheduler._deliver after the channel pop (which
            # accounted the step).
            process = processes[dst]
            process.steps_taken += j - credited.get(dst, 0)
            process.on_message(src, msg)
            process.steps_taken += 1
            credited[dst] = j + 1
            if process.outbox._items:
                stats.messages_sent += network.flush_outbox(dst)
        if len(T):
            sent += ops.run_timeouts(T)

    # -- per-round accounting of every event without a scalar handler ------
    actor_ids = [node_ids[i] for i in plan.actors.tolist()]
    for v, c in zip(actor_ids, plan.counts.tolist()):
        processes[v].steps_taken += c
    for v, c in credited.items():
        processes[v].steps_taken -= c
    network._dirty.update(actor_ids)
    n_timeouts = int(np.count_nonzero(events < 0))
    # A physical pop has ticked the version for its step already.
    network._version += len(events) - n_popped
    stats.steps += len(events)
    stats.deliveries += len(events) - n_timeouts
    stats.timeouts += n_timeouts
    stats.messages_sent += sent
    if n_gossip:
        by_type["MInfo"] = by_type.get("MInfo", 0) + n_gossip


# -- plan builders: each replicates its scheduler's execution order exactly ----


class _ArrayPlanned:
    """The shared round of the array schedulers: build a plan, execute it.

    The engine runs when the network is an
    :class:`~repro.sim.array_kernel.ArrayNetwork` and the round is inside
    the batched contract; an attached event log (which needs per-event
    records), disabled nodes (which need the object scheduler's per-event
    gating) and a refused plan take the object scheduler instead, and any
    in-flight virtual gossip stays transparent to it (tokens materialize on
    demand under scalar delivery and are counted by
    ``ArrayNetwork.enabled_deliveries``).
    """

    def run_round(self, network: Network,
                  trace: Optional[TraceRecorder] = None) -> RoundStats:
        ops = get_ops(network)
        if ops is None or network._disabled or trace is not None:
            return super().run_round(network, trace)
        plan = self._plan(network, ops)
        if plan is None:  # plan refused (outside the batched contract)
            return super().run_round(network, trace)
        stats = RoundStats()
        execute_plan(network, ops, plan, stats)
        return stats


class ArraySyncScheduler(_ArrayPlanned, SynchronousScheduler):
    """:class:`SynchronousScheduler` driving the batched engine: the
    round-start backlog per destination, then one timeout per node."""

    def _plan(self, network: Network, ops) -> Plan:
        k = ops.kernel
        return backlog_plan(k, network.backlog(), np.ones(k.n, dtype=_I64))


class ArrayRandomAsyncScheduler(_ArrayPlanned, RandomAsyncScheduler):
    """:class:`RandomAsyncScheduler` driving the batched engine.

    The event pool is built in the parent's order -- every node's timeout
    by ascending id, then each channel's backlog in channel creation order
    -- and drawn with the same single ``rng.permutation``, so the rng
    evolves identically; a stable argsort by actor then yields each node's
    subsequence of the parent's execution order.
    """

    def _plan(self, network: Network, ops) -> Plan:
        k = ops.kernel
        _row_channel, row_order, row_dst = channel_rows(network)
        backlog = network.backlog()
        rows = np.nonzero(backlog)[0]
        rows = rows[np.argsort(row_order[rows], kind="stable")]
        reps = backlog[rows]
        pool_events = np.concatenate((np.full(k.n, -1, dtype=_I64),
                                      np.repeat(rows, reps)))
        pool_actors = np.concatenate((k._all_idx,
                                      np.repeat(row_dst[rows], reps)))
        order = self.rng.permutation(len(pool_events))
        actors = pool_actors[order]
        by_actor = np.argsort(actors, kind="stable")
        counts = np.bincount(actors, minlength=k.n).astype(_I64)
        return Plan(k._all_idx, _exclusive_cumsum(counts), counts,
                    pool_events[order][by_actor])


class ArrayAdversarialScheduler(_ArrayPlanned, AdversarialScheduler):
    """:class:`AdversarialScheduler` driving the batched engine.

    The slow-link age bookkeeping runs at plan time, link by link in the
    parent's order.  Release bursts deliver ``len(channel)`` messages
    measured mid-phase in the parent; that length is the plan-time backlog
    exactly when the delivery phase emits no sends, i.e. when every queued
    message is gossip or garbage -- any stateful control payload on a
    round-start queue refuses the plan and falls back to the scalar parent
    (ages untouched: the parent then performs the identical bookkeeping).
    """

    def _plan(self, network: Network, ops) -> Optional[Plan]:
        slow = self.slow_links
        k = ops.kernel
        backlog = network.backlog()
        if slow:
            channels = network.channels
            for key in network._active:
                # Only the physical queue can hold control payloads; a
                # virtual token is gossip by construction.
                for m in channels[key]._queue:
                    if type(m) is not MInfo and type(m) is not GarbageMessage:
                        return None
            links = sorted((k.pos[(dst, src)], (src, dst))
                           for src, dst in slow
                           if (src, dst) in network.channels)
            for row, link in links:
                if not backlog[row]:
                    continue
                age = self._age.get(link, 0) + 1
                if age < self.max_delay:
                    self._age[link] = age
                    backlog[row] = 0
                else:
                    # Released: the whole queue is the plan-time backlog.
                    self._age[link] = 0
        return backlog_plan(k, backlog, np.ones(k.n, dtype=_I64))


class ArrayWeightedFairScheduler(_ArrayPlanned, WeightedFairScheduler):
    """:class:`WeightedFairScheduler` driving the batched engine.

    The parent's timeout phase runs in passes; per node that is simply
    ``weight(v)`` consecutive timeout events after its deliveries, which is
    exactly the node's subsequence of the pass order (``weight`` is called
    once per node, in the parent's order, so validation errors surface
    identically).
    """

    def _plan(self, network: Network, ops) -> Plan:
        k = ops.kernel
        weights = np.fromiter((self.weight(v) for v in k.node_ids),
                              dtype=_I64, count=k.n)
        return backlog_plan(k, network.backlog(), weights)


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
