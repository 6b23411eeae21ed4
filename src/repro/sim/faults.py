"""Transient faults and live topology churn.

Self-stabilization (Definition 1 in the paper) requires convergence from an
*arbitrary* configuration: arbitrary local states and arbitrary channel
contents.  This module realises that premise explicitly:

* :func:`corrupt_states` overwrites (a fraction of) node states with random
  values via each process's :meth:`~repro.sim.node.Process.corrupt` hook;
* :func:`corrupt_channels` pre-loads garbage messages onto (a fraction of)
  the FIFO channels;
* :class:`FaultPlan` describes a schedule of mid-run transient faults so the
  recovery experiments (E5) can hit an already-converged system and measure
  re-stabilization time.

The paper's motivating networks (P2P overlays, wireless/sensor deployments)
additionally change *topology* at runtime -- peers leave and join, radio
links appear and die.  :class:`ChurnPlan` is the topology-side sibling of
:class:`FaultPlan`: a schedule of :class:`ChurnEvent` node/edge churn
applied to the live network through its mutation APIs
(:meth:`~repro.sim.network.Network.add_node` and friends).  A plan is
schedulable per round by the :class:`~repro.sim.simulator.Simulator` and
composes freely with a fault plan (both may fire after the same round).
:func:`random_churn_plan` generates a deterministic, connectivity-preserving
mixed plan for a given graph -- the workload behind the churn benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from ..exceptions import ConfigurationError
from ..types import NodeId
from .messages import GarbageMessage
from .network import Network

__all__ = ["corrupt_states", "corrupt_channels", "corrupt_everything",
           "FaultEvent", "FaultPlan",
           "ChurnEvent", "ChurnPlan", "random_churn_plan"]


def corrupt_states(network: Network, rng: np.random.Generator,
                   fraction: float = 1.0,
                   nodes: Optional[Sequence[NodeId]] = None) -> List[NodeId]:
    """Corrupt the local state of a set of nodes.

    Parameters
    ----------
    fraction:
        Fraction of nodes to corrupt when ``nodes`` is not given; 1.0 means
        every node starts from garbage (the paper's worst case).
    nodes:
        Explicit node set to corrupt (overrides ``fraction``).

    Returns the list of corrupted node ids.
    """
    if nodes is None:
        if not (0.0 <= fraction <= 1.0):
            raise ConfigurationError("fraction must be in [0, 1]")
        count = int(round(fraction * len(network.node_ids)))
        chosen = list(rng.choice(network.node_ids, size=count, replace=False)) if count else []
        chosen = [int(v) for v in chosen]
    else:
        chosen = [int(v) for v in nodes]
        unknown = set(chosen) - set(network.node_ids)
        if unknown:
            raise ConfigurationError(f"cannot corrupt unknown nodes {sorted(unknown)}")
    for v in chosen:
        network.processes[v].corrupt(rng)
        # Per-node notification keeps the kernel's snapshot invalidation
        # proportional to the corrupted set rather than the whole network.
        network.note_state_write(v)
    return chosen


def corrupt_channels(network: Network, rng: np.random.Generator,
                     fraction: float = 0.5, max_garbage: int = 3) -> int:
    """Pre-load garbage messages on a fraction of the directed channels.

    Returns the number of garbage messages injected.  Garbage messages are
    instances of :class:`GarbageMessage`, which well-behaved protocols ignore
    (and thereby remove from the channel) on receipt.
    """
    if not (0.0 <= fraction <= 1.0):
        raise ConfigurationError("fraction must be in [0, 1]")
    injected = 0
    for channel in network.channels.values():
        if rng.random() >= fraction:
            continue
        count = int(rng.integers(1, max_garbage + 1))
        payload = [GarbageMessage(payload=tuple(int(x) for x in rng.integers(0, 1000, size=3)))
                   for _ in range(count)]
        network.preload(channel, payload)
        injected += count
    return injected


def corrupt_everything(network: Network, rng: np.random.Generator,
                       channel_fraction: float = 0.5) -> dict:
    """Corrupt every node state and a fraction of the channels.

    This is the canonical "arbitrary initial configuration" used by the
    self-stabilization experiments.  Returns a small report dict.
    """
    corrupted = corrupt_states(network, rng, fraction=1.0)
    garbage = corrupt_channels(network, rng, fraction=channel_fraction)
    return {"corrupted_nodes": len(corrupted), "garbage_messages": garbage}


@dataclass(frozen=True)
class FaultEvent:
    """A transient fault scheduled at a given round.

    Attributes
    ----------
    round_index:
        Round after which the fault strikes.
    node_fraction:
        Fraction of nodes whose state is corrupted.
    channel_fraction:
        Fraction of channels that receive garbage messages.
    """

    round_index: int
    node_fraction: float = 1.0
    channel_fraction: float = 0.0


@dataclass
class FaultPlan:
    """A schedule of transient faults applied during a simulation run."""

    events: List[FaultEvent] = field(default_factory=list)

    def add(self, round_index: int, node_fraction: float = 1.0,
            channel_fraction: float = 0.0) -> "FaultPlan":
        """Append a fault event (fluent interface)."""
        self.events.append(FaultEvent(round_index, node_fraction, channel_fraction))
        return self

    def pending_at(self, round_index: int) -> List[FaultEvent]:
        """Fault events that should fire exactly after ``round_index``."""
        return [e for e in self.events if e.round_index == round_index]

    def apply_due(self, network: Network, rng: np.random.Generator,
                  round_index: int) -> List[FaultEvent]:
        """Apply all events due at ``round_index``; return the fired events."""
        fired = self.pending_at(round_index)
        for event in fired:
            corrupt_states(network, rng, fraction=event.node_fraction)
            if event.channel_fraction > 0:
                corrupt_channels(network, rng, fraction=event.channel_fraction)
        return fired

    @property
    def last_round(self) -> int:
        """Round index of the last scheduled fault (-1 when empty)."""
        return max((e.round_index for e in self.events), default=-1)


# ---------------------------------------------------------------------------
# Topology churn
# ---------------------------------------------------------------------------

#: The four churn event kinds, in the vocabulary of the network mutation API.
CHURN_KINDS = ("add_node", "remove_node", "add_edge", "remove_edge")


@dataclass(frozen=True)
class ChurnEvent:
    """One topology change scheduled at a given round.

    Attributes
    ----------
    round_index:
        Round after which the event fires (same convention as
        :class:`FaultEvent`).
    kind:
        One of ``"add_node"``, ``"remove_node"``, ``"add_edge"``,
        ``"remove_edge"``.
    node:
        The joining/leaving node for node events.
    edge:
        The ``(u, v)`` pair for edge events.
    attach:
        Attach points of a joining node (its initial neighbour set).
    """

    round_index: int
    kind: str
    node: Optional[NodeId] = None
    edge: Optional[Tuple[NodeId, NodeId]] = None
    attach: Tuple[NodeId, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in CHURN_KINDS:
            raise ConfigurationError(
                f"unknown churn kind {self.kind!r}; known: {list(CHURN_KINDS)}")
        if self.kind in ("add_node", "remove_node") and self.node is None:
            raise ConfigurationError(f"{self.kind} event needs a node")
        if self.kind in ("add_edge", "remove_edge") and self.edge is None:
            raise ConfigurationError(f"{self.kind} event needs an edge")


@dataclass
class ChurnPlan:
    """A schedule of live topology changes applied during a simulation run.

    The topology-side sibling of :class:`FaultPlan`: the simulator calls
    :meth:`apply_due` after every round, and due events are executed through
    the network's mutation APIs.  With ``guard_connectivity`` (the default)
    an event that would disconnect the network -- or that no longer applies
    because earlier churn already changed the topology -- is *skipped* and
    recorded in :attr:`skipped` instead of raising; applied events land in
    :attr:`applied`.  Self-stabilization makes no promise on a partitioned
    network, so keeping the guard on is what the recovery scenarios want.
    """

    events: List[ChurnEvent] = field(default_factory=list)
    guard_connectivity: bool = True
    #: Events actually executed, in execution order.  Note: outcomes
    #: accumulate on the plan object across runs -- the simulator counts
    #: per-run deltas, so reusing one plan for several runs is safe.
    applied: List[ChurnEvent] = field(default_factory=list)
    #: ``(event, reason)`` pairs that were skipped by the guard.
    skipped: List[Tuple[ChurnEvent, str]] = field(default_factory=list)

    # -- fluent construction ---------------------------------------------------

    def add_node(self, round_index: int, node: NodeId,
                 attach: Sequence[NodeId]) -> "ChurnPlan":
        """Schedule node ``node`` to join, linked to ``attach``."""
        self.events.append(ChurnEvent(round_index, "add_node", node=node,
                                      attach=tuple(attach)))
        return self

    def remove_node(self, round_index: int, node: NodeId) -> "ChurnPlan":
        """Schedule node ``node`` to leave (with all its links)."""
        self.events.append(ChurnEvent(round_index, "remove_node", node=node))
        return self

    def add_edge(self, round_index: int, u: NodeId, v: NodeId) -> "ChurnPlan":
        """Schedule the link ``{u, v}`` to appear."""
        self.events.append(ChurnEvent(round_index, "add_edge", edge=(u, v)))
        return self

    def remove_edge(self, round_index: int, u: NodeId, v: NodeId) -> "ChurnPlan":
        """Schedule the link ``{u, v}`` to die."""
        self.events.append(ChurnEvent(round_index, "remove_edge", edge=(u, v)))
        return self

    # -- scheduling ------------------------------------------------------------

    def pending_at(self, round_index: int) -> List[ChurnEvent]:
        """Churn events that should fire exactly after ``round_index``."""
        return [e for e in self.events if e.round_index == round_index]

    def _guard(self, network: Network, event: ChurnEvent) -> Optional[str]:
        """Reason to skip ``event`` on the current network, or ``None``."""
        graph = network.graph
        if event.kind == "add_node":
            if event.node in network.adjacency:
                return f"node {event.node} already present"
            missing = [u for u in event.attach if u not in network.adjacency]
            if missing:
                return f"attach points {missing} no longer present"
            if self.guard_connectivity and not event.attach:
                return f"node {event.node} would join disconnected"
        elif event.kind == "remove_node":
            if event.node not in network.adjacency:
                return f"node {event.node} no longer present"
            if network.n == 1:
                return "cannot remove the last node"
            if self.guard_connectivity:
                probe = graph.copy()
                probe.remove_node(event.node)
                if probe.number_of_nodes() and not nx.is_connected(probe):
                    return f"removing node {event.node} would disconnect the network"
        elif event.kind == "add_edge":
            u, v = event.edge
            if u not in network.adjacency or v not in network.adjacency:
                return f"endpoint of edge {event.edge} no longer present"
            if network.has_edge(u, v):
                return f"edge {event.edge} already exists"
        else:  # remove_edge
            u, v = event.edge
            if not network.has_edge(u, v):
                return f"edge {event.edge} no longer present"
            if self.guard_connectivity:
                probe = graph.copy()
                probe.remove_edge(u, v)
                if not nx.is_connected(probe):
                    return f"removing edge {event.edge} would disconnect the network"
        return None

    def apply_event(self, network: Network, event: ChurnEvent) -> bool:
        """Apply one event through the network mutation APIs.

        Returns ``True`` when applied, ``False`` when the guard skipped it.
        """
        reason = self._guard(network, event)
        if reason is not None:
            self.skipped.append((event, reason))
            return False
        if event.kind == "add_node":
            network.add_node(event.node, event.attach)
        elif event.kind == "remove_node":
            network.remove_node(event.node)
        elif event.kind == "add_edge":
            network.add_edge(*event.edge)
        else:
            network.remove_edge(*event.edge)
        self.applied.append(event)
        return True

    def apply_due(self, network: Network, round_index: int) -> List[ChurnEvent]:
        """Apply all events due at ``round_index``; return the applied ones."""
        fired = []
        for event in self.pending_at(round_index):
            if self.apply_event(network, event):
                fired.append(event)
        return fired

    @property
    def last_round(self) -> int:
        """Round index of the last scheduled event (-1 when empty)."""
        return max((e.round_index for e in self.events), default=-1)


def random_churn_plan(graph: nx.Graph, *, events: int, start_round: int,
                      period: int, seed: int = 0,
                      kind_weights: Optional[Dict[str, float]] = None,
                      attach_degree: int = 2) -> ChurnPlan:
    """A deterministic, connectivity-preserving mixed churn plan.

    Schedules ``events`` topology changes, one every ``period`` rounds
    starting after ``start_round``, drawn from a seeded generator.  The plan
    is generated against an evolving working copy of ``graph``: each event
    is chosen to be valid *and connectivity-preserving* on the topology the
    earlier events produce, so on an unchurned network the whole plan
    applies without guard skips.  Joining nodes get fresh identifiers above
    the largest existing one and ``attach_degree`` random attach points.

    Parameters
    ----------
    kind_weights:
        Relative odds of each kind (default: edge churn twice as likely as
        node churn, mirroring wireless deployments where links flap more
        often than peers die).
    """
    if events < 0:
        raise ConfigurationError("events must be >= 0")
    if period < 1:
        raise ConfigurationError("period must be >= 1")
    weights = dict(kind_weights) if kind_weights else {
        "add_edge": 0.3, "remove_edge": 0.3, "add_node": 0.2, "remove_node": 0.2}
    unknown = set(weights) - set(CHURN_KINDS)
    if unknown:
        raise ConfigurationError(f"unknown churn kinds {sorted(unknown)}")
    kinds = sorted(weights)
    probs = np.array([weights[k] for k in kinds], dtype=float)
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    working = graph.copy()
    next_id = max(working.nodes) + 1
    plan = ChurnPlan()
    for i in range(events):
        round_index = start_round + i * period
        for kind in _kind_preference(rng, kinds, probs):
            if _generate_event(plan, working, rng, kind, round_index,
                               next_id, attach_degree):
                if kind == "add_node":
                    next_id += 1
                break
    return plan


def _kind_preference(rng: np.random.Generator, kinds: List[str],
                     probs: np.ndarray) -> List[str]:
    """The drawn kind first, then the rest as fallbacks (fixed order)."""
    first = kinds[int(rng.choice(len(kinds), p=probs))]
    return [first] + [k for k in kinds if k != first]


def _generate_event(plan: ChurnPlan, working: nx.Graph, rng: np.random.Generator,
                    kind: str, round_index: int, next_id: int,
                    attach_degree: int) -> bool:
    """Try to generate one valid ``kind`` event on ``working``; apply it to
    the working copy and append it to ``plan`` on success."""
    nodes = sorted(working.nodes)
    if kind == "add_edge":
        candidates = sorted((u, v) for u in nodes for v in nodes
                            if u < v and not working.has_edge(u, v))
        if not candidates:
            return False
        u, v = candidates[int(rng.integers(len(candidates)))]
        working.add_edge(u, v)
        plan.add_edge(round_index, u, v)
        return True
    if kind == "remove_edge":
        bridges = set(nx.bridges(working))
        candidates = sorted((u, v) for u, v in
                            ((min(a, b), max(a, b)) for a, b in working.edges)
                            if (u, v) not in bridges and (v, u) not in bridges)
        if not candidates:
            return False
        u, v = candidates[int(rng.integers(len(candidates)))]
        working.remove_edge(u, v)
        plan.remove_edge(round_index, u, v)
        return True
    if kind == "add_node":
        k = min(max(1, attach_degree), len(nodes))
        attach = sorted(int(x) for x in rng.choice(nodes, size=k, replace=False))
        working.add_node(next_id)
        for u in attach:
            working.add_edge(next_id, u)
        plan.add_node(round_index, next_id, attach)
        return True
    # remove_node: only nodes whose departure keeps the graph connected
    if len(nodes) <= 3:
        return False
    articulation = set(nx.articulation_points(working))
    candidates = [v for v in nodes if v not in articulation]
    if not candidates:
        return False
    v = candidates[int(rng.integers(len(candidates)))]
    working.remove_node(v)
    plan.remove_node(round_index, v)
    return True
