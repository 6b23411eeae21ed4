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
    """

    __slots__ = ("src", "dst", "key", "_queue", "_stats", "_network_size",
                 "_on_change", "_model")

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
        #: Activity hook installed by the owning network: called after every
        #: queue mutation with the delta in queue length.  Keeps the kernel's
        #: active-channel set and configuration version current without the
        #: channel knowing anything about the network.
        self._on_change = None
        #: Optional :class:`~repro.sim.adversary.ChannelModel` deciding how
        #: each sent message lands on the queue.  ``None`` (the default) is
        #: the historical reliable-FIFO fast path.
        self._model = None

    def watch(self, on_change) -> None:
        """Install the activity callback ``(channel, delta) -> None``."""
        self._on_change = on_change

    def set_model(self, model) -> None:
        """Install (or with ``None`` remove) the channel's delivery model."""
        self._model = model

    # -- sending / delivering ------------------------------------------------

    def _enqueue(self, message: Message, index: int | None = None) -> None:
        """Place one message copy on the queue and account for it.

        ``index=None`` appends at the tail (reliable FIFO); an integer
        inserts at that queue position (adversarial reordering).  Updates
        the statistics and fires the activity hook exactly like a
        historical ``send`` did, so the ``index=None`` path stays
        byte-identical to the model-free channel.
        """
        queue = self._queue
        if index is None or index >= len(queue):
            queue.append(message)
        else:
            queue.insert(index, message)
        stats = self._stats
        stats.sent += 1
        length = len(queue)
        if length > stats.max_queue_length:
            stats.max_queue_length = length
        bits = message.size_bits(self._network_size)
        if bits > stats.max_message_bits:
            stats.max_message_bits = bits
        if self._on_change is not None:
            self._on_change(self, 1)

    def send(self, message: Message) -> None:
        """Hand ``message`` to the channel (called by ``src``).

        Without a delivery model the message is appended at the tail
        (reliable FIFO).  With one, the model decides the placements: none
        (lost), several (duplicated) or out-of-order (reordered).  A lost
        message never enters the queue -- and is *not* counted in
        ``stats.sent`` or the network's churn-loss counter; the model keeps
        its own accounting.
        """
        if not isinstance(message, Message):
            raise ChannelError(
                f"only Message instances may be sent, got {type(message).__name__}")
        model = self._model
        if model is None:
            self._enqueue(message)
            return
        for copy, index in model.on_send(self, message):
            self._enqueue(copy, index)

    def deliver(self) -> Message:
        """Pop and return the message at the head of the channel."""
        if not self._queue:
            raise ChannelError(f"channel {self.src}->{self.dst} is empty")
        self._stats.delivered += 1
        message = self._queue.popleft()
        if self._on_change is not None:
            self._on_change(self, -1)
        return message

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
        if messages and self._on_change is not None:
            self._on_change(self, len(messages))

    def clear(self) -> int:
        """Drop all queued messages; return how many were dropped.

        Used by test harnesses and by the network when the underlying edge
        is removed at runtime (in-flight messages on a dead link are lost --
        the caller accounts for the returned count).
        """
        dropped = len(self._queue)
        self._queue.clear()
        if dropped and self._on_change is not None:
            self._on_change(self, -dropped)
        return dropped

    def unwatch(self) -> None:
        """Remove the activity callback (the owning network is letting go)."""
        self._on_change = None

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
