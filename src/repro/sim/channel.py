"""Reliable FIFO communication channels.

The paper assumes "asynchronous message passing network with reliable FIFO
channels": on each (directed) link messages are delivered in the order they
were sent, no message is lost and no message is duplicated.  A
:class:`Channel` models one directed link ``src -> dst``; the
:class:`repro.sim.network.Network` creates two channels per undirected edge.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterator, List, Tuple

from ..exceptions import ChannelError
from ..types import NodeId
from .messages import Message

__all__ = ["Channel", "ChannelStats"]


class ChannelStats:
    """Cumulative statistics for one directed channel.

    A slotted plain class rather than a dataclass: every send updates three
    of these counters, so the fixed attribute layout is worth the few lines
    of boilerplate.
    """

    __slots__ = ("sent", "delivered", "max_queue_length", "max_message_bits")

    def __init__(self, sent: int = 0, delivered: int = 0,
                 max_queue_length: int = 0, max_message_bits: int = 0):
        self.sent = sent
        self.delivered = delivered
        self.max_queue_length = max_queue_length
        self.max_message_bits = max_message_bits

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"ChannelStats(sent={self.sent}, delivered={self.delivered}, "
                f"max_queue_length={self.max_queue_length}, "
                f"max_message_bits={self.max_message_bits})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChannelStats):
            return NotImplemented
        return (self.sent == other.sent and self.delivered == other.delivered
                and self.max_queue_length == other.max_queue_length
                and self.max_message_bits == other.max_message_bits)


class Channel:
    """A reliable FIFO channel from ``src`` to ``dst``.

    The channel never drops or reorders messages.  Fault injection may
    *pre-load* arbitrary messages (modelling an arbitrary initial
    configuration, which in the message-passing model includes link
    contents), but once the simulation runs the FIFO discipline holds.

    A channel is a queue with statistics and nothing more: it knows no
    network.  A :class:`~repro.sim.network.Network` mutates its channels
    only through its own routes (``flush_outbox``, ``pop``, ``preload`` and
    edge removal), which keep the kernel's counters in step with the
    queues.
    """

    __slots__ = ("src", "dst", "key", "_queue", "_stats", "_network_size",
                 "_model")

    def __init__(self, src: NodeId, dst: NodeId, network_size: int = 2):
        if src == dst:
            raise ChannelError(f"channel endpoints must differ, got {src}->{dst}")
        self.src = src
        self.dst = dst
        #: ``(src, dst)``, built once: the owning network keys its channel
        #: maps and active set on it.
        self.key: Tuple[NodeId, NodeId] = (src, dst)
        self._queue: Deque[Message] = deque()
        self._stats = ChannelStats()
        self._network_size = network_size
        #: Optional :class:`~repro.sim.adversary.ChannelModel` deciding how
        #: each sent message lands on the queue.  ``None`` (the default) is
        #: the historical reliable-FIFO fast path.
        self._model = None

    def set_model(self, model) -> None:
        """Install (or with ``None`` remove) the channel's delivery model."""
        self._model = model

    # -- sending / delivering ------------------------------------------------

    def send(self, message: Message) -> int:
        """Hand ``message`` to the channel (called by ``src``).

        Returns the number of copies placed on the queue.  Without a
        delivery model the message is appended at the tail (reliable FIFO),
        one copy.  With one, the model decides the placements of copies of
        ``message``: none (lost), several (duplicated) or out-of-order
        (reordered); an integer index inserts at that queue position.  A
        lost message never enters the queue -- and is *not* counted in
        ``stats.sent`` or the network's churn-loss counter; the model keeps
        its own accounting.
        """
        if not isinstance(message, Message):
            raise ChannelError(
                f"only Message instances may be sent, got {type(message).__name__}")
        queue = self._queue
        model = self._model
        if model is None:
            queue.append(message)
            placed = 1
        else:
            placed = 0
            for copy, index in model.on_send(self, message):
                if index is None or index >= len(queue):
                    queue.append(copy)
                else:
                    queue.insert(index, copy)
                placed += 1
            if not placed:
                return 0
        # Placements only add, so the queue is longest now.
        stats = self._stats
        stats.sent += placed
        length = len(queue)
        if length > stats.max_queue_length:
            stats.max_queue_length = length
        bits = message.size_bits(self._network_size)
        if bits > stats.max_message_bits:
            stats.max_message_bits = bits
        return placed

    def deliver(self) -> Message:
        """Pop and return the message at the head of the channel."""
        if not self._queue:
            raise ChannelError(f"channel {self.src}->{self.dst} is empty")
        self._stats.delivered += 1
        return self._queue.popleft()

    def peek(self) -> Message | None:
        """Return the head message without removing it (``None`` if empty)."""
        return self._queue[0] if self._queue else None

    # -- fault injection -----------------------------------------------------

    def preload(self, messages: List[Message]) -> None:
        """Place arbitrary messages on the channel (arbitrary initial config)."""
        if any(not isinstance(m, Message) for m in messages):
            raise ChannelError("preloaded items must be Message instances")
        self._queue.extend(messages)
        stats = self._stats
        stats.max_queue_length = max(stats.max_queue_length, len(self._queue))

    def clear(self) -> int:
        """Drop all queued messages; return how many were dropped.

        Used by test harnesses and by the network when the underlying edge
        is removed at runtime (in-flight messages on a dead link are lost --
        the caller accounts for the returned count).
        """
        dropped = len(self._queue)
        self._queue.clear()
        return dropped

    # -- introspection --------------------------------------------------------

    @property
    def stats(self) -> ChannelStats:
        """Cumulative statistics of this channel (read only: the send and
        delivery paths update the counters in place)."""
        return self._stats

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:  # non-empty check used by schedulers
        return bool(self._queue)

    def __iter__(self) -> Iterator[Message]:
        return iter(self._queue)

    @property
    def endpoints(self) -> Tuple[NodeId, NodeId]:
        """The ``(src, dst)`` pair of this directed channel."""
        return self.key

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Channel({self.src}->{self.dst}, queued={len(self._queue)})"
