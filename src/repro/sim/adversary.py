"""Adversary and environment models beyond the paper's assumptions.

The paper's model (PAPER.md, "Model") assumes *reliable FIFO channels* and a
single arbitrary initial configuration; Definition 1 (convergence + closure)
is stated only under that model.  This module generalises the one-shot
:class:`~repro.sim.faults.FaultPlan` / :class:`~repro.sim.faults.ChurnPlan`
machinery into a pluggable adversary layer, so experiments can measure which
self-stabilization guarantees survive each relaxation:

* :class:`ChannelModel` -- a per-send message-placement contract plugged into
  every :class:`~repro.sim.channel.Channel`.  The default (no model, or the
  explicit :class:`ReliableFifoChannelModel`) is byte-identical to the
  historical reliable-FIFO behaviour; :class:`UnreliableChannelModel` adds
  seeded message loss, duplication and reordering with per-run delivery
  accounting.
* :class:`NodeFaultModel` -- crash-stop and crash-recover-with-state-loss
  node faults scheduled by round.  A crashed node is disabled through the
  kernel (:meth:`~repro.sim.network.Network.set_node_enabled`); a recovering
  node loses its state (its variables are re-randomised through the
  :meth:`~repro.sim.node.Process.corrupt` hook -- state loss *is* an
  arbitrary state in the self-stabilization model) and is re-enabled.
* :class:`ByzantineModel` -- selected processes emit corrupted gossip each
  round of an activity window: their state is re-randomised before their
  next step, so every message they send carries arbitrary protocol
  variables while staying well-formed (type-correct), which is exactly what
  the receivers' sanity checks cannot filter.

An :class:`Adversary` composes the three models and is scheduled by the
:class:`~repro.sim.simulator.Simulator` exactly like churn: scheduled events
(crash, recovery, Byzantine corruption) reset the convergence stability
streak, so a reported convergence round can never predate the disruption it
recovered from.  Continuous channel-level loss/dup/reorder does *not* reset
the streak -- under a lossy channel nothing would ever converge otherwise;
instead the channel model keeps delivery counters that the report exposes.

Accounting separation: messages dropped by a lossy :class:`ChannelModel`
never touch :attr:`~repro.sim.network.Network.dropped_messages` -- that
counter is reserved for messages lost to *topology churn* (a removed link
drops its queue).  A lossy message simply never enters the queue, so the two
causes cannot be double-counted.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ConfigurationError
from ..types import NodeId
from .channel import Channel
from .faults import corrupt_states
from .messages import Message
from .network import Network

__all__ = [
    "ChannelModel", "ReliableFifoChannelModel", "UnreliableChannelModel",
    "NodeFaultModel", "ByzantineModel", "Adversary", "make_channel_model",
]

#: Placement of one message copy: ``(message, index)`` where ``message`` is
#: the sent (immutable) message and ``index`` is a queue insertion position
#: (``None`` appends at the tail, reliable FIFO).
Placement = Tuple[Message, Optional[int]]


class ChannelModel(abc.ABC):
    """Contract deciding how each sent message lands on a channel.

    :meth:`on_send` is consulted by :meth:`Channel.send
    <repro.sim.channel.Channel.send>` once per emitted message and returns
    the *placements* to enqueue: an empty sequence loses the message, two
    entries duplicate it, a non-``None`` index inserts it out of FIFO order.
    Models never mutate the channel directly -- the channel performs the
    placements itself and reports how many it made, so the channel
    statistics and the network's per-step accounting stay exact.
    """

    @abc.abstractmethod
    def on_send(self, channel: Channel, message: Message) -> Sequence[Placement]:
        """Return the placements for ``message`` sent on ``channel``."""

    def counters(self) -> Dict[str, int]:
        """Cumulative delivery accounting (empty for reliable models)."""
        return {}

    @property
    def is_reliable(self) -> bool:
        """Whether this model can never lose, duplicate or reorder."""
        return False


class ReliableFifoChannelModel(ChannelModel):
    """The paper's model, made explicit: append every message at the tail.

    Installing this model is byte-identical to installing no model at all --
    same queue contents, same statistics, same kernel version bumps -- which
    the property-based harness (tests/test_adversary_properties.py) checks
    on random interleavings.
    """

    def on_send(self, channel: Channel, message: Message) -> Sequence[Placement]:
        return ((message, None),)

    @property
    def is_reliable(self) -> bool:
        return True


class UnreliableChannelModel(ChannelModel):
    """Seeded message loss, duplication and reordering.

    Parameters
    ----------
    loss:
        Probability that a sent message is dropped (never enqueued).
    dup:
        Probability that a surviving message is enqueued twice.
    reorder:
        Probability that each enqueued copy is inserted at a uniformly
        random queue position instead of the tail (only meaningful when the
        queue is non-empty; an insertion into an empty queue is FIFO).
    seed:
        Seed of the model's private generator.  Outcomes are a deterministic
        function of the seed and the send sequence, independent of
        ``PYTHONHASHSEED``.

    Attributes
    ----------
    attempted, dropped, duplicated, reordered:
        Cumulative per-send accounting.  They accumulate across runs when a
        model instance is reused; the simulator records per-run deltas.
    """

    def __init__(self, loss: float = 0.0, dup: float = 0.0,
                 reorder: float = 0.0, seed: int = 0):
        for name, rate in (("loss", loss), ("dup", dup), ("reorder", reorder)):
            if not (0.0 <= rate <= 1.0):
                raise ConfigurationError(f"{name} rate must be in [0, 1], got {rate}")
        self.loss = float(loss)
        self.dup = float(dup)
        self.reorder = float(reorder)
        self.seed = int(seed)
        self._rng = np.random.default_rng(seed)
        self.attempted = 0
        self.dropped = 0
        self.duplicated = 0
        self.reordered = 0

    def on_send(self, channel: Channel, message: Message) -> Sequence[Placement]:
        rng = self._rng
        self.attempted += 1
        if self.loss and rng.random() < self.loss:
            self.dropped += 1
            return ()
        copies = 1
        if self.dup and rng.random() < self.dup:
            self.duplicated += 1
            copies = 2
        placements: List[Placement] = []
        for extra in range(copies):
            index: Optional[int] = None
            # Each copy lands one after the other, so the queue the second
            # copy sees includes the first; ``len(channel) + extra`` keeps
            # the insertion range honest without re-reading the queue.
            depth = len(channel) + extra
            if self.reorder and depth and rng.random() < self.reorder:
                self.reordered += 1
                index = int(rng.integers(0, depth + 1))
            placements.append((message, index))
        return placements

    def counters(self) -> Dict[str, int]:
        return {"attempted": self.attempted, "dropped": self.dropped,
                "duplicated": self.duplicated, "reordered": self.reordered}

    @property
    def is_reliable(self) -> bool:
        return self.loss == 0.0 and self.dup == 0.0 and self.reorder == 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"UnreliableChannelModel(loss={self.loss}, dup={self.dup}, "
                f"reorder={self.reorder}, seed={self.seed})")


def make_channel_model(loss: float = 0.0, dup: float = 0.0,
                       reorder: float = 0.0, seed: int = 0
                       ) -> Optional[UnreliableChannelModel]:
    """An :class:`UnreliableChannelModel`, or ``None`` when every rate is 0.

    Returning ``None`` for the all-zero case keeps the default code path --
    and therefore the byte-identity guarantee -- literally model-free.
    """
    if loss == 0.0 and dup == 0.0 and reorder == 0.0:
        return None
    return UnreliableChannelModel(loss=loss, dup=dup, reorder=reorder, seed=seed)


class NodeFaultModel:
    """Crash-stop and crash-recover-with-state-loss node faults.

    At ``crash_round`` the selected nodes are disabled through the kernel:
    they take no steps and their incoming messages stay queued.  With
    ``recover_after=None`` the crash is permanent (*crash-stop*); otherwise
    each crashed node recovers ``recover_after`` rounds later with total
    state loss -- its variables are re-randomised through the protocol's
    :meth:`~repro.sim.node.Process.corrupt` hook (an arbitrary state is the
    self-stabilization model of a reboot) and it is re-enabled.

    The victim set is either explicit (``nodes=``) or drawn at
    :meth:`install` time from the model's seeded generator, capped at
    ``n - 1`` so at least one node stays enabled (an all-disabled network is
    quiescent by definition and no verdict could be measured).

    Composes with :class:`~repro.sim.faults.FaultPlan` corruption: both are
    scheduled after rounds, and a fault due the round of a crash corrupts
    whatever nodes are still enabled.
    """

    def __init__(self, crash_round: int, count: int = 1,
                 recover_after: Optional[int] = None,
                 nodes: Optional[Sequence[NodeId]] = None, seed: int = 0):
        if crash_round < 1:
            raise ConfigurationError("crash_round must be >= 1")
        if count < 0:
            raise ConfigurationError("count must be >= 0")
        if recover_after is not None and recover_after < 1:
            raise ConfigurationError("recover_after must be >= 1 (or None)")
        self.crash_round = int(crash_round)
        self.count = int(count)
        self.recover_after = None if recover_after is None else int(recover_after)
        self.requested_nodes = tuple(int(v) for v in nodes) if nodes is not None else None
        self.seed = int(seed)
        self._rng = np.random.default_rng(seed)
        self._victims: Tuple[NodeId, ...] = ()
        self._installed = False
        self.crashes = 0
        self.recoveries = 0

    @property
    def victims(self) -> Tuple[NodeId, ...]:
        """The resolved victim set (empty before :meth:`install`)."""
        return self._victims

    @property
    def recover_round(self) -> Optional[int]:
        """Round after which crashed nodes recover (``None`` for crash-stop)."""
        if self.recover_after is None:
            return None
        return self.crash_round + self.recover_after

    @property
    def last_round(self) -> int:
        """Round index of the last scheduled event."""
        return self.recover_round if self.recover_round is not None else self.crash_round

    def install(self, network: Network) -> None:
        """Resolve the victim set against ``network`` (idempotent)."""
        if self._installed:
            return
        if self.requested_nodes is not None:
            unknown = set(self.requested_nodes) - set(network.node_ids)
            if unknown:
                raise ConfigurationError(
                    f"cannot crash unknown nodes {sorted(unknown)}")
            victims = list(self.requested_nodes)
        else:
            cap = min(self.count, max(network.n - 1, 0))
            victims = ([int(v) for v in
                        self._rng.choice(network.node_ids, size=cap, replace=False)]
                       if cap else [])
        self._victims = tuple(sorted(victims))
        self._installed = True

    def apply_due(self, network: Network, round_index: int) -> bool:
        """Fire crash/recovery events due after ``round_index``.

        Returns ``True`` when at least one event fired (the simulator resets
        the stability streak).  Nodes removed by churn in the meantime are
        silently skipped -- a departed node can neither crash nor recover.
        """
        fired = False
        if round_index == self.crash_round:
            for v in self._victims:
                if v in network.adjacency:
                    network.set_node_enabled(v, False)
                    self.crashes += 1
                    fired = True
        if self.recover_round is not None and round_index == self.recover_round:
            for v in self._victims:
                if v in network.adjacency:
                    corrupt_states(network, self._rng, nodes=[v])
                    network.set_node_enabled(v, True)
                    self.recoveries += 1
                    fired = True
        return fired

    def counters(self) -> Dict[str, int]:
        return {"crashes": self.crashes, "recoveries": self.recoveries}


class ByzantineModel:
    """Selected processes emit corrupted gossip during an activity window.

    Every round of ``[start_round, start_round + rounds)`` the Byzantine
    nodes' protocol variables are re-randomised through the
    :meth:`~repro.sim.node.Process.corrupt` hook, so the messages they emit
    in the following round are well-formed (type-correct, unfiltered by the
    receivers' sanity checks) but carry arbitrary values -- the
    protocol-agnostic reading of "corrupted gossip".  After the window the
    nodes behave correctly again and self-stabilization is expected to
    erase their influence.

    The Byzantine set is explicit (``nodes=``) or drawn at :meth:`install`
    time from the seeded generator, capped at ``n - 1`` so at least one
    correct node remains.
    """

    def __init__(self, count: int = 1, start_round: int = 1, rounds: int = 10,
                 nodes: Optional[Sequence[NodeId]] = None, seed: int = 0):
        if count < 0:
            raise ConfigurationError("count must be >= 0")
        if start_round < 1:
            raise ConfigurationError("start_round must be >= 1")
        if rounds < 1:
            raise ConfigurationError("rounds must be >= 1")
        self.count = int(count)
        self.start_round = int(start_round)
        self.rounds = int(rounds)
        self.requested_nodes = tuple(int(v) for v in nodes) if nodes is not None else None
        self.seed = int(seed)
        self._rng = np.random.default_rng(seed)
        self._byzantine: Tuple[NodeId, ...] = ()
        self._installed = False
        self.corruptions = 0

    @property
    def byzantine_nodes(self) -> Tuple[NodeId, ...]:
        """The resolved Byzantine set (empty before :meth:`install`)."""
        return self._byzantine

    @property
    def last_round(self) -> int:
        """Round index of the last corruption."""
        return self.start_round + self.rounds - 1

    def active_at(self, round_index: int) -> bool:
        """Whether the adversary corrupts gossip after ``round_index``."""
        return self.start_round <= round_index <= self.last_round

    def install(self, network: Network) -> None:
        """Resolve the Byzantine set against ``network`` (idempotent)."""
        if self._installed:
            return
        if self.requested_nodes is not None:
            unknown = set(self.requested_nodes) - set(network.node_ids)
            if unknown:
                raise ConfigurationError(
                    f"unknown Byzantine nodes {sorted(unknown)}")
            chosen = list(self.requested_nodes)
        else:
            cap = min(self.count, max(network.n - 1, 0))
            chosen = ([int(v) for v in
                       self._rng.choice(network.node_ids, size=cap, replace=False)]
                      if cap else [])
        self._byzantine = tuple(sorted(chosen))
        self._installed = True

    def apply_due(self, network: Network, round_index: int) -> bool:
        """Corrupt the Byzantine nodes if the window is active; return fired."""
        if not self.active_at(round_index):
            return False
        present = [v for v in self._byzantine if v in network.adjacency]
        if not present:
            return False
        corrupt_states(network, self._rng, nodes=present)
        self.corruptions += len(present)
        return True

    def counters(self) -> Dict[str, int]:
        return {"byzantine_corruptions": self.corruptions}


class Adversary:
    """Composition of the three adversary models, scheduled like churn.

    Any subset of the models may be present.  :meth:`install` attaches the
    channel model to the network (covering channels created later by churn)
    and resolves the node-fault and Byzantine victim sets; :meth:`apply_due`
    fires the scheduled (round-indexed) events and reports whether any
    fired, which is the simulator's cue to reset the stability streak.
    """

    def __init__(self, channel_model: Optional[ChannelModel] = None,
                 node_faults: Optional[NodeFaultModel] = None,
                 byzantine: Optional[ByzantineModel] = None):
        if channel_model is None and node_faults is None and byzantine is None:
            raise ConfigurationError("an Adversary needs at least one model")
        self.channel_model = channel_model
        self.node_faults = node_faults
        self.byzantine = byzantine

    @property
    def last_round(self) -> int:
        """Round index of the last *scheduled* event (-1 with none).

        Continuous channel noise has no schedule and does not extend this:
        the simulator uses it only to refuse convergence verdicts that
        would predate a still-pending scheduled disruption.
        """
        rounds = [-1]
        if self.node_faults is not None:
            rounds.append(self.node_faults.last_round)
        if self.byzantine is not None:
            rounds.append(self.byzantine.last_round)
        return max(rounds)

    def install(self, network: Network) -> None:
        """Attach the models to ``network`` (idempotent)."""
        if self.channel_model is not None:
            network.install_channel_model(self.channel_model)
        if self.node_faults is not None:
            self.node_faults.install(network)
        if self.byzantine is not None:
            self.byzantine.install(network)

    def apply_due(self, network: Network, round_index: int) -> bool:
        """Fire scheduled events due after ``round_index``; return fired."""
        fired = False
        if self.node_faults is not None:
            fired |= self.node_faults.apply_due(network, round_index)
        if self.byzantine is not None:
            fired |= self.byzantine.apply_due(network, round_index)
        return fired

    def counters(self) -> Dict[str, int]:
        """Merged cumulative accounting over all present models."""
        merged: Dict[str, int] = {}
        if self.channel_model is not None:
            merged.update(self.channel_model.counters())
        if self.node_faults is not None:
            merged.update(self.node_faults.counters())
        if self.byzantine is not None:
            merged.update(self.byzantine.counters())
        return merged

    def describe(self) -> str:
        """Short human-readable label (used by reports and benchmarks)."""
        parts = []
        cm = self.channel_model
        if isinstance(cm, UnreliableChannelModel):
            knobs = [f"{k}={v}" for k, v in (("loss", cm.loss), ("dup", cm.dup),
                                             ("reorder", cm.reorder)) if v]
            parts.append("channel(" + ",".join(knobs or ["reliable"]) + ")")
        elif cm is not None:
            parts.append("channel(reliable)")
        nf = self.node_faults
        if nf is not None:
            kind = "crash-stop" if nf.recover_after is None else (
                f"crash-recover({nf.recover_after})")
            parts.append(f"{kind}x{nf.count}@r{nf.crash_round}")
        bz = self.byzantine
        if bz is not None:
            parts.append(f"byzantine x{bz.count}@r{bz.start_round}+{bz.rounds}")
        return " ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Adversary({self.describe()})"
