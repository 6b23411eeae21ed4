"""Network: the collection of processes and the FIFO channels linking them.

A :class:`Network` is built from a :class:`networkx.Graph` and a *process
factory* (a callable ``(node_id, neighbors) -> Process``).  It owns

* one :class:`~repro.sim.node.Process` per graph node,
* two directed :class:`~repro.sim.channel.Channel` objects per graph edge,

and offers the queries the scheduler and the verification layer need
(pending channels, global quiescence, state snapshots, memory statistics).

Activity-aware kernel
---------------------
The network doubles as the *simulation kernel*: it tracks which events are
currently enabled and how often the global configuration has changed, so
that schedulers and monitors never have to poll disabled parts of the
system:

* :attr:`Network.version` is a monotonically increasing **configuration
  version**.  It ticks once per message copy placed on a channel, once
  per delivery, once per atomic step, and once per state write the kernel
  is told about (a receipt step reports through :meth:`pop`, a timeout
  through :meth:`note_step`; out-of-band mutation such as fault injection
  or initial-configuration installers must call :meth:`note_state_write`).
  A step's send ticks land together when :meth:`flush_outbox` has placed
  its messages, so the version is exact at every step boundary.
  :meth:`note_state_write` also clears the written nodes' *settled*
  flags: a protocol may skip its rules pass at a node whose state is a
  fixpoint of them (the MDST node does), and only the node's own steps
  keep that verdict current.  Snapshots and their fingerprint are cached
  keyed on this version, so any number of global checks within one
  configuration cost one traversal.
* **Per-step message accounting.**  Channels and outboxes carry no
  activity callbacks.  The network owns one route per kind of channel
  mutation and does the kernel's bookkeeping (pending count, active set,
  version) there: :meth:`flush_outbox` for a step's sends (one
  ``Channel.send`` per message, the counters once per batch), :meth:`pop`
  for a delivery, :meth:`preload` for fault injection and edge removal
  for ``Channel.clear``.  A channel mutated behind the network's back
  leaves those counters stale.
* Every node carries an **enabled flag** (:meth:`set_node_enabled`).  A
  disabled node takes no steps at all -- no timeout actions, and messages
  addressed to it stay queued.  All nodes start enabled, which reproduces
  the historical semantics exactly.
* The **enabled-event set** (:meth:`enabled_events`) is the kernel's
  contract with the schedulers: the timeout of every enabled node plus one
  delivery per message queued on a channel toward an enabled node.  Active
  channels are tracked incrementally (a channel joins the set when a send
  leaves it non-empty and leaves when a delivery drains it), so building
  the event set costs O(active), not O(m).
* :meth:`has_enabled_events` is the quiescence test the simulator uses to
  short-circuit the round loop: with no enabled event, no future round can
  change the configuration.  The stricter :meth:`is_quiescent` (no message
  in transit, no outbox holding one) scans the outboxes in O(n); there is
  no outbox watcher, and nothing on the simulation path calls it.

Dirty-set incremental snapshots
-------------------------------
Global checks used to pay O(n * state) per configuration change: every
:meth:`snapshots` rebuild re-snapshotted every node and every
:meth:`snapshot_key` re-sorted every node's variable dict.  The kernel now
tracks a **dirty-node set** -- the nodes whose reported state *may* have
changed since the caches were last refreshed (:meth:`note_step` marks the
stepping node, :meth:`note_state_write` marks everything or a named node) --
and keeps three per-node caches:

* the node's last snapshot dict (refreshed only while the node is dirty,
  and *kept* when the fresh snapshot compares equal, which is the common
  case once a region of the network has stabilized);
* a read-only :class:`~types.MappingProxyType` view of that dict (what
  callers of :meth:`snapshots` actually see, so a misbehaving monitor
  cannot corrupt the cache shared with the legitimacy predicate);
* the node's fingerprint tuple (re-sorted only when the snapshot dict
  actually changed).

The global :meth:`snapshot_key` is assembled from the cached per-node
fingerprints, and when *no* per-node fingerprint changed the previous key
tuple object is returned as-is -- downstream verdict caches then compare
mostly-identical objects, which short-circuits element-by-element.

Dynamic topology
----------------
The communication graph is no longer frozen at construction:
:meth:`add_node`, :meth:`remove_node`, :meth:`add_edge` and
:meth:`remove_edge` mutate the live network while keeping every incremental
structure consistent -- the graph (copied on first mutation, so the caller's
object is never touched), the adjacency map, the channel set (in-flight
messages on a removed link are dropped and counted in
:attr:`dropped_messages`), the active-channel set and pending count,
the dirty-node set and per-node snapshot caches, and each
affected process's neighbour set (via
:meth:`~repro.sim.node.Process.add_neighbor` /
:meth:`~repro.sim.node.Process.remove_neighbor`, which protocols override
to evict stale per-neighbour state and re-enter their correction phase).

Every mutation bumps both the configuration :attr:`version` and a separate
:attr:`topology_version`.  The distinction matters because a topology
change can leave every per-node snapshot unchanged (adding a non-tree edge,
say) while still changing the verdict of a predicate that reads the graph
-- so verdict caches key on ``(snapshot_key, topology_version)`` rather
than the snapshot fingerprint alone.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import networkx as nx

from ..exceptions import ChannelError, ProtocolError, SimulationError
from ..graphs.validation import check_network
from ..types import Edge, NodeId, canonical_edge
from .channel import Channel
from .messages import Message
from .node import Process

__all__ = ["Network", "ProcessFactory", "EnabledEvents"]

ProcessFactory = Callable[[NodeId, Sequence[NodeId]], Process]

ChannelKey = Tuple[NodeId, NodeId]


@dataclass(frozen=True)
class EnabledEvents:
    """The kernel's enabled-event set at one configuration.

    Attributes
    ----------
    timeouts:
        Enabled nodes in increasing id order; each contributes one enabled
        timeout action.
    deliveries:
        ``(src, dst, pending)`` triples -- one per non-empty channel whose
        destination is enabled -- in channel creation order (the canonical
        order schedulers have always observed).  ``pending`` is the queue
        length at the time the set was built.
    """

    timeouts: Tuple[NodeId, ...]
    deliveries: Tuple[Tuple[NodeId, NodeId, int], ...]

    @property
    def total(self) -> int:
        """Number of enabled atomic events (timeouts + queued deliveries)."""
        return len(self.timeouts) + sum(count for _, _, count in self.deliveries)

    def __bool__(self) -> bool:
        return bool(self.timeouts) or bool(self.deliveries)


class Network:
    """The simulated distributed system: processes plus FIFO channels.

    Parameters
    ----------
    graph:
        The communication topology (undirected, connected, simple).
    process_factory:
        Callable building the protocol instance for each node.
    """

    def __init__(self, graph: nx.Graph, process_factory: ProcessFactory):
        check_network(graph)
        self.graph = graph
        self.n = graph.number_of_nodes()
        self.m = graph.number_of_edges()
        self.node_ids: List[NodeId] = sorted(graph.nodes)
        self.adjacency: Dict[NodeId, Tuple[NodeId, ...]] = {
            v: tuple(sorted(graph.neighbors(v))) for v in self.node_ids
        }
        self._init_kernel_state(process_factory)
        self._channel_order: Dict[ChannelKey, int] = {}
        self._channel_seq = 0
        self.processes: Dict[NodeId, Process] = {
            v: self._make_process(v) for v in self.node_ids}
        # Two directed channels per undirected edge.
        self.channels: Dict[ChannelKey, Channel] = {}
        for u, v in graph.edges:
            for key in ((u, v), (v, u)):
                self._install_channel(key)

    def _init_kernel_state(self, process_factory: ProcessFactory) -> None:
        """The kernel state every network starts from, whatever its storage.

        Needs ``node_ids``; the caller then builds the processes (through
        :meth:`_make_process`), the channels and the channel order.
        """
        self._process_factory = process_factory
        self._version = 0
        self._topology_version = 0
        self._graph_owned = False
        #: Messages that were in flight on a link when that link was removed;
        #: a removed channel drops its queue and the count lands here.
        self.dropped_messages = 0
        # Cumulative statistics of channels destroyed by edge/node removal:
        # the per-run accounting (max message bits, total sends) must cover
        # traffic that travelled on links that no longer exist.
        self._retired_messages_sent = 0
        self._retired_max_message_bits = 0
        self._disabled: set[NodeId] = set()
        #: Channel delivery model shared by every channel (``None`` keeps the
        #: historical reliable-FIFO fast path); channels created later by
        #: churn inherit it.
        self._channel_model = None
        self._active: set[ChannelKey] = set()
        self._pending_total = 0
        # Dirty-set snapshot caches: nodes whose reported state may have
        # changed since the per-node caches were refreshed, the cached
        # per-node snapshot dicts / read-only views / fingerprint tuples,
        # and the version-keyed assembled results.
        self._dirty: set[NodeId] = set(self.node_ids)
        self._node_snaps: Dict[NodeId, Dict[str, object]] = {}
        self._node_views: Dict[NodeId, Mapping[str, object]] = {}
        self._node_keys: Dict[NodeId, tuple] = {}
        self._snaps_stale = True
        self._snaps_view: Optional[Mapping[NodeId, Mapping[str, object]]] = None
        self._snaps_version = -1
        self._key_cache: Optional[Tuple[int, tuple]] = None

    def _make_process(self, v: NodeId) -> Process:
        """Build node ``v``'s process from ``adjacency[v]``."""
        proc = self._process_factory(v, self.adjacency[v])
        if proc.node_id != v:
            raise ProtocolError(
                f"process factory returned node id {proc.node_id} for node {v}")
        return proc

    # -- configuration version / activity tracking -----------------------------

    @property
    def version(self) -> int:
        """Monotonically increasing configuration version.

        Bumped once per message copy placed on a channel, once per
        delivery, once per atomic step and once per reported state write.
        Equal versions guarantee an unchanged configuration; caches
        throughout the verification layer key on it.
        """
        return self._version

    @property
    def topology_version(self) -> int:
        """Monotonically increasing topology version.

        Bumped by every :meth:`add_node` / :meth:`remove_node` /
        :meth:`add_edge` / :meth:`remove_edge`.  Equal topology versions
        guarantee an unchanged communication graph; predicate caches that
        read the graph (not just the snapshots) must key on this alongside
        :meth:`snapshot_key`, because a topology event can change a verdict
        without changing any per-node snapshot.
        """
        return self._topology_version

    def _make_channel(self, key: ChannelKey) -> Channel:
        """Create one directed channel.

        A channel created by live edge/node churn inherits the network's
        delivery model: an unreliable adversary stays unreliable on links
        that appear mid-run.
        """
        channel = Channel(*key, network_size=self.n)
        if self._channel_model is not None:
            channel.set_model(self._channel_model)
        return channel

    def _install_channel(self, key: ChannelKey) -> Channel:
        """Create, order and register one directed channel."""
        channel = self._make_channel(key)
        self._channel_order[key] = self._channel_seq
        self._channel_seq += 1
        self.channels[key] = channel
        return channel

    def install_channel_model(self, model) -> None:
        """Install a :class:`~repro.sim.adversary.ChannelModel` network-wide.

        Applies to every existing channel and to every channel created later
        by topology churn.  Passing ``None`` restores the model-free
        reliable-FIFO fast path.
        """
        self._channel_model = model
        for channel in self.channels.values():
            channel.set_model(model)

    def note_step(self, v: NodeId) -> None:
        """Record that node ``v`` executed an atomic step (potential state write).

        Called by the scheduler helpers after every timeout action
        (:meth:`pop` does the same for a message receipt); conservatively
        bumps the configuration version and marks ``v`` dirty for the
        incremental snapshot caches.
        """
        self._version += 1
        self._dirty.add(v)

    def note_state_write(self, node: Optional[NodeId] = None) -> None:
        """Record an out-of-band state mutation (faults, initial configurations).

        Any code that writes process state without going through a scheduled
        step -- fault injection, Byzantine corruption, initial-configuration
        installers, test harnesses poking at ``network.processes[v]``
        directly -- must call this so version-keyed caches (snapshots,
        predicate verdicts) are invalidated and the written nodes' settled
        flags are cleared.  Pass ``node`` when exactly one node was written
        to keep the invalidation proportional; the default conservatively
        marks every node dirty and unsettled.
        """
        self._version += 1
        if node is None:
            self._dirty.update(self.node_ids)
        else:
            self._dirty.add(node)
        self._unsettle(node)

    def _unsettle(self, node: Optional[NodeId]) -> None:
        """Clear the settled flag of ``node`` (of every node for ``None``)."""
        if node is None:
            for proc in self.processes.values():
                proc.note_state_write()
        else:
            self.processes[node].note_state_write()

    # -- enabled nodes ----------------------------------------------------------

    def node_enabled(self, v: NodeId) -> bool:
        """Whether node ``v`` currently takes steps."""
        return v not in self._disabled

    def set_node_enabled(self, v: NodeId, enabled: bool = True) -> None:
        """Enable or disable node ``v``.

        A disabled node performs no timeout actions and receives no
        messages (its incoming channels keep their queues); it stops
        contributing events to :meth:`enabled_events`.  Disabling every node
        of a quiet network makes it quiescent, which the simulator detects
        to short-circuit the round loop.
        """
        if v not in self.adjacency:
            raise SimulationError(f"unknown node {v}")
        if enabled:
            self._disabled.discard(v)
        else:
            self._disabled.add(v)
        self._version += 1

    def enabled_nodes(self) -> List[NodeId]:
        """Enabled node ids in increasing order."""
        if not self._disabled:
            return list(self.node_ids)
        return [v for v in self.node_ids if v not in self._disabled]

    # -- enabled events ---------------------------------------------------------

    def enabled_deliveries(self) -> List[Tuple[NodeId, NodeId, int]]:
        """``(src, dst, pending)`` for every enabled delivery, in channel order.

        A delivery is enabled when its channel is non-empty and its
        destination node is enabled.  The list is ordered by channel
        creation (the iteration order schedulers historically observed),
        and costs O(active log active) rather than O(m).
        """
        order = self._channel_order
        keys = sorted(self._active, key=order.__getitem__)
        channels = self.channels
        disabled = self._disabled
        out: List[Tuple[NodeId, NodeId, int]] = []
        for key in keys:
            src, dst = key
            if dst in disabled:
                continue
            # The active set holds the non-empty queues (in-flight array
            # tokens are the array network's own override).
            count = len(channels[key]._queue)
            if count:
                out.append((src, dst, count))
        return out

    def enabled_events(self) -> EnabledEvents:
        """The enabled-event set schedulers act on (see :class:`EnabledEvents`)."""
        return EnabledEvents(timeouts=tuple(self.enabled_nodes()),
                             deliveries=tuple(self.enabled_deliveries()))

    def has_enabled_events(self) -> bool:
        """Whether any event is enabled (the negation is quiescence).

        An enabled node always has its timeout action available, so a
        network with at least one enabled node is never quiescent.  With
        every node disabled no event can ever execute again -- deliveries
        only count toward enabled nodes, and un-flushed outbox messages can
        never be flushed because flushing happens after a step of their
        (disabled) owner -- so the network is quiescent regardless of
        queued messages.
        """
        return len(self._disabled) < self.n

    # -- topology queries ------------------------------------------------------

    def neighbors(self, v: NodeId) -> Tuple[NodeId, ...]:
        """Neighbour ids of ``v`` (sorted)."""
        return self.adjacency[v]

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """Whether ``{u, v}`` is a communication link."""
        return (u, v) in self.channels

    def edges(self) -> Iterator[Edge]:
        """Iterate over the undirected edges (canonical orientation)."""
        for u, v in self.graph.edges:
            yield canonical_edge(u, v)

    def channel(self, src: NodeId, dst: NodeId) -> Channel:
        """The directed channel ``src -> dst``."""
        try:
            return self.channels[(src, dst)]
        except KeyError as exc:
            raise ChannelError(f"no channel {src}->{dst}") from exc

    # -- dynamic topology ------------------------------------------------------

    def _own_graph(self) -> nx.Graph:
        """The mutable graph: copied from the caller's on first mutation."""
        if not self._graph_owned:
            self.graph = self.graph.copy()
            self._graph_owned = True
        return self.graph

    def _note_topology_change(self) -> None:
        """Invalidate every structure keyed on the node set or edge set."""
        self._version += 1
        self._topology_version += 1
        self._snaps_stale = True
        self._snaps_view = None
        self._snaps_version = -1
        self._key_cache = None

    def _drop_channel(self, key: ChannelKey) -> None:
        """Destroy one directed channel, dropping (and counting) its queue.

        The channel's cumulative statistics are folded into the retired
        aggregates so :meth:`max_channel_message_bits` and
        :meth:`total_messages_sent` keep covering its traffic.
        """
        channel = self.channels.pop(key)
        dropped = channel.clear()
        if dropped:
            self.dropped_messages += dropped
            self._pending_total -= dropped
            self._version += 1
        self._retired_messages_sent += channel.stats.sent
        if channel.stats.max_message_bits > self._retired_max_message_bits:
            self._retired_max_message_bits = channel.stats.max_message_bits
        self._channel_order.pop(key, None)
        self._active.discard(key)

    def _sync_channel_network_size(self) -> None:
        """Propagate the current node count to every channel's size model.

        Message bit sizes are a function of the network size (identifier
        width); after node churn every channel must account with the same
        ``n`` or the max-message-bits metric would mix id widths."""
        n = self.n
        for channel in self.channels.values():
            channel._network_size = n

    def add_edge(self, u: NodeId, v: NodeId) -> None:
        """Create the communication link ``{u, v}`` at runtime.

        Installs the two directed channels, extends both adjacency entries
        and tells both processes about their new neighbour
        (:meth:`~repro.sim.node.Process.add_neighbor`).  Both endpoints must
        already be nodes of the network.
        """
        if u == v:
            raise SimulationError(f"cannot add self-loop edge at node {u}")
        for x in (u, v):
            if x not in self.adjacency:
                raise SimulationError(f"unknown node {x}")
        if (u, v) in self.channels:
            raise SimulationError(f"edge {{{u}, {v}}} already exists")
        self._own_graph().add_edge(u, v)
        self.m += 1
        for a, b in ((u, v), (v, u)):
            self.adjacency[a] = tuple(sorted(self.adjacency[a] + (b,)))
            self._install_channel((a, b))
            self.processes[a].add_neighbor(b)
            self._dirty.add(a)
        self._note_topology_change()

    def remove_edge(self, u: NodeId, v: NodeId) -> None:
        """Destroy the communication link ``{u, v}`` at runtime.

        In-flight messages on either direction are dropped and counted in
        :attr:`dropped_messages`; both processes evict the lost neighbour
        (:meth:`~repro.sim.node.Process.remove_neighbor`).  The network may
        become disconnected -- callers who need connectivity (the churn
        plans do) must guard before removing.
        """
        if (u, v) not in self.channels:
            raise SimulationError(f"no edge {{{u}, {v}}} to remove")
        self._own_graph().remove_edge(u, v)
        self.m -= 1
        for a, b in ((u, v), (v, u)):
            self._drop_channel((a, b))
            self.adjacency[a] = tuple(x for x in self.adjacency[a] if x != b)
            self.processes[a].remove_neighbor(b)
            self._dirty.add(a)
        self._note_topology_change()

    def add_node(self, v: NodeId, neighbors: Iterable[NodeId] = ()) -> Process:
        """A new node joins the network, linked to ``neighbors``.

        The process is built by the same factory the network was constructed
        with, its channels installed, and every
        attach-point process learns about its new neighbour.  Returns the
        new process.
        """
        if v in self.adjacency:
            raise SimulationError(f"node {v} already exists")
        attach = tuple(sorted(set(neighbors)))
        if v in attach:
            raise SimulationError(f"node {v} cannot neighbour itself")
        unknown = [u for u in attach if u not in self.adjacency]
        if unknown:
            raise SimulationError(f"cannot attach new node {v} to unknown nodes {unknown}")
        graph = self._own_graph()
        graph.add_node(v)
        for u in attach:
            graph.add_edge(v, u)
        self.n += 1
        self.m += len(attach)
        bisect.insort(self.node_ids, v)
        self.adjacency[v] = attach
        proc = self.processes[v] = self._make_process(v)
        for u in attach:
            self.adjacency[u] = tuple(sorted(self.adjacency[u] + (v,)))
            self.processes[u].add_neighbor(v)
            self._dirty.add(u)
            self._install_channel((v, u))
            self._install_channel((u, v))
        self._dirty.add(v)
        self._sync_channel_network_size()
        self._note_topology_change()
        return proc

    def remove_node(self, v: NodeId) -> Process:
        """Node ``v`` leaves the network, taking its incident links along.

        Every incident channel is destroyed (in-flight messages dropped and
        counted), every ex-neighbour evicts ``v`` from its neighbour set,
        and all per-node kernel state (enabled flag, dirty mark, snapshot
        caches) is released.  Returns the removed process.
        """
        if v not in self.adjacency:
            raise SimulationError(f"unknown node {v}")
        if self.n == 1:
            raise SimulationError("cannot remove the last node of the network")
        ex_neighbors = list(self.adjacency[v])
        for u in ex_neighbors:
            self._drop_channel((v, u))
            self._drop_channel((u, v))
            self.adjacency[u] = tuple(x for x in self.adjacency[u] if x != v)
            self.processes[u].remove_neighbor(v)
            self._dirty.add(u)
        self.m -= len(ex_neighbors)
        proc = self.processes.pop(v)
        self._own_graph().remove_node(v)
        self.n -= 1
        self.node_ids.remove(v)
        del self.adjacency[v]
        self._disabled.discard(v)
        self._dirty.discard(v)
        self._node_snaps.pop(v, None)
        self._node_views.pop(v, None)
        self._node_keys.pop(v, None)
        self._sync_channel_network_size()
        self._note_topology_change()
        return proc

    # -- message plumbing ------------------------------------------------------

    def flush_outbox(self, v: NodeId) -> int:
        """Move every message queued in ``v``'s outbox onto its channels.

        Returns the number of messages emitted.  Called by the simulator
        after every atomic step of ``v`` that emitted something, so that
        emission order is preserved.  This is the kernel's one send route:
        each message goes through :meth:`Channel.send
        <repro.sim.channel.Channel.send>` (queue and channel statistics),
        and the pending count and version grow once per batch by the
        number of copies placed, also when a send raises part-way.
        """
        outbox = self.processes[v].outbox
        items = outbox._items
        if not items:
            return 0
        outbox._items = []
        channels = self.channels
        active = self._active
        placed = 0
        try:
            for dest, message in items:
                try:
                    channel = channels[(v, dest)]
                except KeyError:
                    raise ChannelError(f"no channel {v}->{dest}") from None
                placed += channel.send(message)
                key = channel.key
                if key not in active and channel._queue:
                    active.add(key)
        finally:
            self._pending_total += placed
            self._version += placed
        return len(items)

    def pop(self, channel: Channel) -> Message:
        """Pop the head message of ``channel`` for a receipt step at its
        destination: the kernel's one delivery route.

        The pending count drops, a drained channel leaves the active set,
        the version ticks for the pop and for the step, and the destination
        is marked dirty (what :meth:`note_step` does for a timeout).
        """
        message = channel.deliver()
        self._pending_total -= 1
        if not channel._queue:
            self._active.discard(channel.key)
        self._version += 2
        self._dirty.add(channel.dst)
        return message

    def preload(self, channel: Channel, messages: List[Message]) -> None:
        """Place arbitrary messages on ``channel`` (fault injection, an
        arbitrary initial configuration), with the kernel's accounting."""
        channel.preload(messages)
        if messages:
            self._pending_total += len(messages)
            self._active.add(channel.key)
            self._version += 1

    def pending_channels(self) -> List[Channel]:
        """All channels currently holding at least one message (channel order)."""
        order = self._channel_order
        return [self.channels[key]
                for key in sorted(self._active, key=order.__getitem__)]

    def pending_messages(self) -> int:
        """Total number of messages currently in transit (O(1))."""
        return self._pending_total

    def is_quiescent(self) -> bool:
        """``True`` when no message is in transit and no outbox is non-empty.

        O(n): the pending count is kept per step, the outboxes are scanned
        (nothing on the simulation path asks this question).
        """
        return (self._pending_total == 0
                and not any(len(p.outbox) for p in self.processes.values()))

    # -- global inspection -----------------------------------------------------

    def _refresh_dirty(self) -> None:
        """Re-snapshot every dirty node, keeping caches for unchanged ones.

        A dirty node whose fresh snapshot compares equal to the cached one
        keeps its cached dict, read-only view and fingerprint tuple; only
        genuinely changed nodes invalidate their fingerprint (re-sorted
        lazily by :meth:`snapshot_key`) and mark the assembled global view
        stale.
        """
        dirty = self._dirty
        if not dirty:
            return
        processes = self.processes
        node_snaps = self._node_snaps
        for v in dirty:
            snap = processes[v].snapshot()
            if node_snaps.get(v) == snap:
                continue
            node_snaps[v] = snap
            self._node_views[v] = MappingProxyType(snap)
            self._node_keys.pop(v, None)
            self._snaps_stale = True
        dirty.clear()

    def snapshots(self) -> Mapping[NodeId, Mapping[str, object]]:
        """Per-node protocol variable snapshots (for checks and traces).

        The result is cached keyed on the configuration version and
        refreshed incrementally from the dirty-node set: global checks that
        run several times against an unchanged configuration (the
        legitimacy predicate stages, the convergence and closure monitors)
        share one traversal, and a configuration change only re-snapshots
        the nodes that stepped or were written since the last refresh.

        The returned mapping (and each per-node mapping inside it) is a
        read-only view: callers cannot corrupt the cache shared with the
        legitimacy predicate.  A view reflects the configuration at the
        time of the call; request a fresh one after further mutation.
        """
        if self._snaps_view is not None and self._snaps_version == self._version:
            return self._snaps_view
        self._refresh_dirty()
        if self._snaps_stale or self._snaps_view is None:
            views = self._node_views
            self._snaps_view = MappingProxyType(
                {v: views[v] for v in self.node_ids})
            self._snaps_stale = False
        self._snaps_version = self._version
        return self._snaps_view

    def snapshot_key(self) -> tuple:
        """Canonical fingerprint of the observable configuration.

        Two equal keys guarantee equal per-node snapshots, so any pure
        function of the snapshots (the legitimacy predicate in particular)
        evaluates identically.  Cached keyed on the configuration version
        and assembled from cached per-node fingerprint tuples: only nodes
        whose snapshot actually changed since the previous key are
        re-sorted, and when nothing changed the previous key object itself
        is returned.
        """
        cache = self._key_cache
        if cache is not None and cache[0] == self._version:
            return cache[1]
        self._refresh_dirty()
        keys = self._node_keys
        refreshed = False
        for v in self.node_ids:
            if v not in keys:
                keys[v] = (v, tuple(sorted(self._node_snaps[v].items())))
                refreshed = True
        if refreshed or cache is None:
            key = tuple(keys[v] for v in self.node_ids)
        else:
            # No per-node fingerprint changed since the cached tuple was
            # assembled: the key is identical, reuse the object.
            key = cache[1]
        self._key_cache = (self._version, key)
        return key

    def max_state_bits(self) -> int:
        """Maximum per-node persistent state size in bits (memory claim E3)."""
        return max(p.state_bits(self.n) for p in self.processes.values())

    def total_state_bits(self) -> int:
        """Total persistent state over all nodes in bits."""
        return sum(p.state_bits(self.n) for p in self.processes.values())

    def max_channel_message_bits(self) -> int:
        """Largest message (in bits) ever placed on any channel.

        Covers channels destroyed by topology churn: their statistics are
        retired into an aggregate rather than discarded."""
        live = max((c.stats.max_message_bits for c in self.channels.values()),
                   default=0)
        return max(live, self._retired_max_message_bits)

    def total_messages_sent(self) -> int:
        """Total messages pushed onto channels since construction (live
        channels plus any destroyed by topology churn)."""
        return (sum(c.stats.sent for c in self.channels.values())
                + self._retired_messages_sent)

    def degree(self, v: NodeId) -> int:
        """Graph degree of ``v`` (``|N(v)|``)."""
        return len(self.adjacency[v])

    def max_graph_degree(self) -> int:
        """Maximum graph degree δ (used in the O(δ log n) memory bound)."""
        return max(len(nbrs) for nbrs in self.adjacency.values())

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Network(n={self.n}, m={self.m}, pending={self.pending_messages()})"
