"""Schedulers (daemons): policies over the kernel's enabled-event set.

A *scheduler* decides, within each round, in which order the enabled events
of the network execute.  Since the activity-aware kernel refactor the kernel
itself (:class:`~repro.sim.network.Network`) owns the question of *which*
events are enabled -- the timeout of every enabled node plus one delivery
per message queued toward an enabled node, exposed as an
:class:`~repro.sim.network.EnabledEvents` value -- and a scheduler is a thin
*policy* deciding only the execution order.  Self-stabilization results must
hold under any (weakly fair) scheduler, so the library provides several and
the test-suite runs the protocol under all:

``SynchronousScheduler``
    Every round, every node first consumes the messages that were in its
    incoming channels at the start of the round (in a fixed node order), then
    performs its timeout action.  Deterministic; the fastest executions.

``RandomAsyncScheduler``
    Every round the enabled events are executed in a random order drawn from
    a seeded generator.  Models arbitrary asynchronous interleavings while
    remaining weakly fair (every node acts at least once per round).

``AdversarialScheduler``
    Like the synchronous scheduler, but a chosen set of "slow" links only
    delivers a message every ``max_delay`` rounds.  Models worst-case-ish
    link latencies while preserving reliability/FIFO.

``WeightedFairScheduler``
    Synchronous deliveries, but node ``v`` performs ``weight(v)`` timeout
    actions per round instead of one.  Models hot hubs that act faster than
    the rest of the network while staying weakly fair (every enabled node
    still steps at least once per round).

Round accounting follows the standard self-stabilization definition: one
round is an execution fragment in which every node performs at least one
atomic step (here: its timeout action) and has had the opportunity to receive
the messages addressed to it at the beginning of the round.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import SchedulerError
from ..types import NodeId
from .network import EnabledEvents, Network
from .trace import TraceRecorder

__all__ = [
    "RoundStats",
    "Scheduler",
    "SynchronousScheduler",
    "RandomAsyncScheduler",
    "AdversarialScheduler",
    "WeightedFairScheduler",
    "make_scheduler",
]


@dataclass
class RoundStats:
    """Counters for a single simulated round.

    ``by_type`` counts the round's deliveries per message type name.
    """

    steps: int = 0
    deliveries: int = 0
    timeouts: int = 0
    messages_sent: int = 0
    by_type: Dict[str, int] = field(default_factory=dict)


class Scheduler(abc.ABC):
    """Abstract scheduler: a policy ordering the kernel's enabled events.

    :meth:`run_round` is a template method: it asks the kernel for the
    enabled-event set at round start and hands it to
    :meth:`schedule_round`, which concrete schedulers implement purely as
    an ordering policy using the :meth:`_deliver` (or :meth:`_deliver_one`)
    and :meth:`_timeout_one` step helpers.
    """

    name: str = "abstract"

    def run_round(self, network: Network, trace: Optional[TraceRecorder] = None) -> RoundStats:
        """Execute one round on ``network`` and return its statistics."""
        stats = RoundStats()
        self.schedule_round(network, network.enabled_events(), trace, stats)
        return stats

    @abc.abstractmethod
    def schedule_round(self, network: Network, events: EnabledEvents,
                       trace: Optional[TraceRecorder], stats: RoundStats) -> None:
        """Order and execute the round's enabled events (the policy)."""

    # -- shared helpers --------------------------------------------------------

    @staticmethod
    def _deliver(network: Network, dst: NodeId,
                 sources: Sequence[Tuple[NodeId, int]],
                 trace: Optional[TraceRecorder], stats: RoundStats) -> None:
        """Deliver at ``dst`` the ``count`` head messages of each
        ``(src, count)`` channel in ``sources``, one atomic step each.

        The delivery step every scheduler shares: pop (with the kernel's
        accounting of the pop and the step), handle, count the step, flush
        what it emitted.  ``steps_taken`` rises before the next step runs,
        for handlers read it.  The destination's lookups are made once per
        call, and the round's counters are added once per call.
        """
        process = network.processes[dst]
        on_message = process.on_message
        outbox = process.outbox
        pop = network.pop
        by_type = stats.by_type
        steps = sent_total = 0
        for src, count in sources:
            channel = network.channel(src, dst)
            for _ in range(count):
                message = pop(channel)
                on_message(src, message)
                process.steps_taken += 1
                sent = network.flush_outbox(dst) if outbox._items else 0
                sent_total += sent
                name = type(message).__name__
                try:
                    by_type[name] += 1
                except KeyError:
                    by_type[name] = 1
                if trace is not None:
                    trace.record_delivery(src, dst, message, sent)
            steps += count
        stats.steps += steps
        stats.deliveries += steps
        stats.messages_sent += sent_total

    @staticmethod
    def _deliver_one(network: Network, src: NodeId, dst: NodeId,
                     trace: Optional[TraceRecorder], stats: RoundStats) -> None:
        """Deliver the head message of channel ``src -> dst`` as one atomic
        step (:meth:`_deliver` for one message)."""
        Scheduler._deliver(network, dst, ((src, 1),), trace, stats)

    @staticmethod
    def _timeout_one(network: Network, v: NodeId,
                     trace: Optional[TraceRecorder], stats: RoundStats) -> None:
        """Run the timeout action of ``v`` as one atomic step."""
        process = network.processes[v]
        process.on_timeout()
        process.steps_taken += 1
        network.note_step(v)
        sent = network.flush_outbox(v) if process.outbox._items else 0
        stats.steps += 1
        stats.timeouts += 1
        stats.messages_sent += sent
        if trace is not None:
            trace.record_timeout(v, sent)

    @staticmethod
    def _deliveries_by_dst(events: EnabledEvents
                           ) -> List[Tuple[NodeId, List[Tuple[NodeId, int]]]]:
        """Group the enabled deliveries by destination, both levels sorted.

        Returns ``(dst, [(src, pending), ...])`` pairs with destinations in
        increasing id order and sources sorted within each destination --
        the fixed order the synchronous-style schedulers deliver in.
        """
        grouped: Dict[NodeId, List[Tuple[NodeId, int]]] = {}
        for src, dst, count in events.deliveries:
            grouped.setdefault(dst, []).append((src, count))
        return [(dst, sorted(grouped[dst])) for dst in sorted(grouped)]

    def _deliver_round_start_backlog(self, network: Network, events: EnabledEvents,
                                     trace: Optional[TraceRecorder],
                                     stats: RoundStats) -> None:
        """Deliver every message queued at round start, in fixed node order.

        The delivery discipline shared by the synchronous-style schedulers:
        destinations in increasing id order, sources sorted within each
        destination, messages emitted during the round left for a later one.
        Only the destination pops a channel and sends only add to it, so
        each channel still holds its round-start count when its turn comes.
        """
        deliver = self._deliver
        for dst, sources in self._deliveries_by_dst(events):
            deliver(network, dst, sources, trace, stats)


class SynchronousScheduler(Scheduler):
    """Deterministic round-based scheduler.

    Within a round, nodes are processed in increasing id order.  Each node
    first receives every message that was queued on its incoming channels at
    the beginning of the round, then executes its timeout action (gossip).
    Messages emitted during the round are delivered in a later round.
    """

    name = "synchronous"

    def schedule_round(self, network: Network, events: EnabledEvents,
                       trace: Optional[TraceRecorder], stats: RoundStats) -> None:
        self._deliver_round_start_backlog(network, events, trace, stats)
        for v in events.timeouts:
            self._timeout_one(network, v, trace, stats)


class RandomAsyncScheduler(Scheduler):
    """Weakly fair random scheduler.

    The enabled events of a round (timeouts + deliveries of the messages in
    flight at round start) are executed in a uniformly random order.  The
    result models arbitrary asynchrony: a node may receive a neighbour's
    message before or after that neighbour's gossip for the round, different
    branches of the tree progress at different speeds, etc.
    """

    name = "random_async"

    def __init__(self, seed: int | None = None):
        self.rng = np.random.default_rng(seed)

    def schedule_round(self, network: Network, events: EnabledEvents,
                       trace: Optional[TraceRecorder], stats: RoundStats) -> None:
        pool: List[Tuple[str, Tuple[NodeId, ...]]] = []
        for v in events.timeouts:
            pool.append(("timeout", (v,)))
        for src, dst, count in events.deliveries:
            for _ in range(count):
                pool.append(("deliver", (src, dst)))
        order = self.rng.permutation(len(pool))
        for idx in order:
            kind, args = pool[int(idx)]
            if kind == "timeout":
                self._timeout_one(network, args[0], trace, stats)
            else:
                src, dst = args
                if network.channel(src, dst):
                    self._deliver_one(network, src, dst, trace, stats)


class AdversarialScheduler(Scheduler):
    """Scheduler with adversarially slow links.

    ``slow_links`` is a collection of directed ``(src, dst)`` pairs whose
    deliveries are withheld for up to ``max_delay`` rounds and then released
    as a burst (the whole backlog at once).  This models a bounded-delay
    adversary: messages are arbitrarily reordered *across* links and delayed,
    but every message is delivered within ``max_delay`` rounds of being sent,
    so the fairness assumption of the paper's model is preserved.  All other
    links behave synchronously.
    """

    name = "adversarial"

    def __init__(self, slow_links: Sequence[Tuple[NodeId, NodeId]] = (),
                 max_delay: int = 4, seed: int | None = None):
        if max_delay < 1:
            raise SchedulerError("max_delay must be >= 1")
        self.slow_links = {tuple(link) for link in slow_links}
        self.max_delay = max_delay
        self.rng = np.random.default_rng(seed)
        self._age: Dict[Tuple[NodeId, NodeId], int] = {}

    def _is_slow(self, link: Tuple[NodeId, NodeId]) -> bool:
        return link in self.slow_links

    def schedule_round(self, network: Network, events: EnabledEvents,
                       trace: Optional[TraceRecorder], stats: RoundStats) -> None:
        deliver = self._deliver
        for dst, sources in self._deliveries_by_dst(events):
            # Deliveries at ``dst`` do not change what its incoming
            # channels hold, so every count is final before the first one.
            due = []
            for src, count in sources:
                link = (src, dst)
                if self._is_slow(link):
                    age = self._age.get(link, 0) + 1
                    if age < self.max_delay:
                        self._age[link] = age
                        continue
                    # release the whole backlog after max_delay rounds of delay
                    self._age[link] = 0
                    count = len(network.channel(src, dst))
                due.append((src, count))
            deliver(network, dst, due, trace, stats)
        for v in events.timeouts:
            self._timeout_one(network, v, trace, stats)


WeightMap = Union[Mapping[NodeId, int], Callable[[NodeId], int]]


class WeightedFairScheduler(Scheduler):
    """Synchronous scheduler with per-node step weights.

    Deliveries behave exactly like :class:`SynchronousScheduler`; the
    timeout phase runs in *passes*: pass 0 gives every enabled node one
    timeout action (in id order), pass ``k`` gives another action to every
    node whose weight exceeds ``k``.  A node with weight ``w`` therefore
    takes ``w`` timeout steps per round -- useful to stress hot hubs that
    gossip faster than the rest of the network -- while weak fairness is
    preserved (every enabled node steps at least once per round, and every
    queued message is still delivered at the round's start).

    Parameters
    ----------
    weights:
        Mapping or callable giving each node's step weight; nodes absent
        from a mapping default to ``default_weight``.  Weights must be
        ``>= 1``.
    default_weight:
        Weight of nodes not covered by ``weights``.
    """

    name = "weighted_fair"

    def __init__(self, weights: Optional[WeightMap] = None, default_weight: int = 1):
        if default_weight < 1:
            raise SchedulerError("default_weight must be >= 1 (weak fairness)")
        self.default_weight = int(default_weight)
        self._weight_fn: Callable[[NodeId], int]
        if weights is None:
            self._weight_fn = lambda v: self.default_weight
        elif callable(weights):
            self._weight_fn = weights
        else:
            frozen = {int(k): int(w) for k, w in weights.items()}
            self._weight_fn = lambda v: frozen.get(v, self.default_weight)

    def weight(self, v: NodeId) -> int:
        """Step weight of node ``v`` (validated ``>= 1``)."""
        w = int(self._weight_fn(v))
        if w < 1:
            raise SchedulerError(f"node {v} has weight {w}; weights must be >= 1")
        return w

    def schedule_round(self, network: Network, events: EnabledEvents,
                       trace: Optional[TraceRecorder], stats: RoundStats) -> None:
        self._deliver_round_start_backlog(network, events, trace, stats)
        remaining = {v: self.weight(v) for v in events.timeouts}
        while remaining:
            for v in events.timeouts:
                if v in remaining:
                    self._timeout_one(network, v, trace, stats)
                    remaining[v] -= 1
                    if remaining[v] <= 0:
                        del remaining[v]


def make_scheduler(kind: str, seed: int | None = None,
                   slow_links: Sequence[Tuple[NodeId, NodeId]] = (),
                   max_delay: int = 4,
                   weights: Optional[WeightMap] = None) -> Scheduler:
    """Factory for schedulers by name.

    ``synchronous``/``random``/``adversarial``/``weighted`` (the latter
    accepting per-node step ``weights``).
    """
    if kind in ("synchronous", "sync"):
        return SynchronousScheduler()
    if kind in ("random", "random_async", "async"):
        return RandomAsyncScheduler(seed=seed)
    if kind in ("adversarial", "slow"):
        return AdversarialScheduler(slow_links=slow_links, max_delay=max_delay, seed=seed)
    if kind in ("weighted", "weighted_fair"):
        return WeightedFairScheduler(weights=weights)
    raise SchedulerError(f"unknown scheduler kind {kind!r}")
