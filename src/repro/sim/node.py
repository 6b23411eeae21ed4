"""Process (node) abstraction for the message-passing simulator.

A :class:`Process` models one processor of the network.  Its interface is the
*send/receive atomicity* model of the paper (borrowed from Burman & Kutten):

* an **atomic step** is either the receipt of a single message together with
  the local computation it triggers, or a spontaneous *timeout* action (used
  to emit the periodic ``InfoMsg`` gossip);
* a node can read and write only its own variables (plus the cached copies of
  its neighbours' variables that the protocol itself maintains via gossip);
* all communication goes through :meth:`Process.send`, which the simulator
  routes over the FIFO channel to the destination neighbour.

Protocol implementations (the self-stabilizing spanning tree, the full MDST
algorithm, the baselines) subclass :class:`Process`.

Both :class:`Process` and :class:`Outbox` are slotted: processes and their
outboxes sit on the innermost simulation loop (every atomic step touches
them), so their fixed attribute layout matters.  Subclasses are free to add
their own ``__slots__`` or to stay ordinary dict-ful classes.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

import numpy as np

from ..exceptions import ProtocolError
from ..types import NodeId
from .messages import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .network import Network

__all__ = ["Process", "Outbox"]


class Outbox:
    """Collects the messages emitted by a node during one atomic step.

    :meth:`Process.send` and :meth:`Process.broadcast` append to it; the
    network empties it after every step that emitted something and pushes
    its content onto the corresponding FIFO channels, preserving emission
    order.
    """

    __slots__ = ("_items",)

    def __init__(self) -> None:
        self._items: List[Tuple[NodeId, Message]] = []

    def drain(self) -> List[Tuple[NodeId, Message]]:
        items, self._items = self._items, []
        return items

    def __len__(self) -> int:
        return len(self._items)


class Process(abc.ABC):
    """Base class of all protocol node implementations.

    Parameters
    ----------
    node_id:
        Unique identifier of this node (``ID_v`` in the paper).
    neighbors:
        Identifiers of the one-hop neighbours (``N(v)``); the paper assumes an
        underlying self-stabilizing protocol keeps this set up to date, so the
        simulator provides it as trusted read-only information.
    """

    __slots__ = ("node_id", "neighbors", "_neighbor_set", "outbox", "steps_taken")

    def __init__(self, node_id: NodeId, neighbors: Sequence[NodeId]):
        self.node_id: NodeId = node_id
        self.neighbors: Tuple[NodeId, ...] = tuple(sorted(neighbors))
        self._neighbor_set = frozenset(self.neighbors)
        self.outbox = Outbox()
        #: number of atomic steps this node has executed (maintained by the simulator)
        self.steps_taken: int = 0

    # -- communication --------------------------------------------------------

    def send(self, dest: NodeId, message: Message) -> None:
        """Queue ``message`` for delivery to neighbour ``dest``.

        Raises :class:`ProtocolError` if ``dest`` is not a neighbour: the
        algorithm is strictly local (one-hop communication only).
        """
        if dest not in self._neighbor_set:
            raise ProtocolError(
                f"node {self.node_id} tried to send {message.type_name()} to "
                f"non-neighbour {dest}")
        self.outbox._items.append((dest, message))

    def broadcast(self, message: Message, exclude: Sequence[NodeId] = ()) -> None:
        """Send ``message`` to every neighbour not listed in ``exclude``."""
        append = self.outbox._items.append
        for u in self.neighbors:
            if u not in exclude:
                append((u, message))

    # -- dynamic topology ------------------------------------------------------

    def add_neighbor(self, u: NodeId) -> None:
        """A new communication link to ``u`` appeared (live topology change).

        The paper assumes an underlying self-stabilizing protocol keeps the
        neighbour set current; the network calls this when that set grows.
        Subclasses override to initialise per-neighbour protocol state and
        must call ``super().add_neighbor(u)`` first.
        """
        if u == self.node_id:
            raise ProtocolError(f"node {self.node_id} cannot neighbour itself")
        if u in self._neighbor_set:
            raise ProtocolError(f"node {self.node_id} already neighbours {u}")
        self.neighbors = tuple(sorted(self.neighbors + (u,)))
        self._neighbor_set = frozenset(self.neighbors)

    def remove_neighbor(self, u: NodeId) -> None:
        """The communication link to ``u`` disappeared (live topology change).

        Subclasses override to evict cached per-neighbour state and re-enter
        their correction phase; they must call ``super().remove_neighbor(u)``
        first.
        """
        if u not in self._neighbor_set:
            raise ProtocolError(f"node {self.node_id} does not neighbour {u}")
        self.neighbors = tuple(v for v in self.neighbors if v != u)
        self._neighbor_set = frozenset(self.neighbors)

    # -- protocol hooks --------------------------------------------------------

    def on_start(self) -> None:
        """Called once before the first step.

        Self-stabilizing protocols must not rely on this hook for correctness
        (the initial state is arbitrary); it exists so that *non*-stabilizing
        baselines can perform their initialisation, and so tests can install
        well-defined starting states.
        """

    @abc.abstractmethod
    def on_timeout(self) -> None:
        """Spontaneous periodic action (the ``Do forever`` loop of Figure 2).

        In the paper this is where a node gossips its ``InfoMsg`` to all its
        neighbours.  Called by the scheduler at least once per round.
        """

    @abc.abstractmethod
    def on_message(self, sender: NodeId, message: Message) -> None:
        """Handle the receipt of ``message`` from neighbour ``sender``.

        Together with the local computation it performs, this constitutes a
        single atomic step in the send/receive atomicity model.
        """

    # -- self-stabilization support -------------------------------------------

    def corrupt(self, rng: np.random.Generator) -> None:
        """Overwrite the local state with arbitrary (random) values.

        Used by fault injection to realise the "start from an arbitrary
        configuration" premise.  Subclasses must override this to perturb all
        of their protocol variables; the default implementation raises so
        that a protocol cannot silently claim fault-tolerance it was never
        tested for.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement state corruption")

    def note_state_write(self) -> None:
        """Forget any verdict cached over this node's own state.

        :meth:`repro.sim.network.Network.note_state_write` calls this after
        an out-of-band write to the node's state.  The default caches
        nothing; the MDST node clears its *settled* flag.
        """

    def state_bits(self, network_size: int) -> int:
        """Estimated size of the node's persistent state in bits.

        Used by the memory-complexity experiment (E3).  Subclasses should
        override; the default returns 0 (no persistent state).
        """
        return 0

    def snapshot(self) -> Dict[str, object]:
        """Return a copy of the node's protocol variables for tracing/tests.

        The default returns an empty dict; subclasses override to expose
        their variables (``root``, ``parent``, ``distance``, ``dmax`` ...).
        """
        return {}

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}(id={self.node_id}, deg={len(self.neighbors)})"
