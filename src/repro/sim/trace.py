"""The opt-in event log of a simulation run.

A :class:`TraceRecorder` stores one :class:`TraceEvent` per delivery and
per timeout, which the examples use to print a readable play-by-play of a
degree improvement (Figure 4 / Figure 5 behaviour).  It counts nothing:
steps, deliveries, timeouts, sends and per-type deliveries live on the
scheduler's :class:`~repro.sim.scheduler.RoundStats`, and message sizes on
the channels, which size each message once, when they enqueue it.  The
simulator runs without a recorder unless one is passed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..types import NodeId
from .messages import Message

__all__ = ["TraceEvent", "TraceRecorder"]


@dataclass(frozen=True)
class TraceEvent:
    """A single recorded simulator event."""

    round_index: int
    kind: str              # "deliver" or "timeout"
    node: NodeId           # the node that took the step
    sender: Optional[NodeId]
    message_type: Optional[str]
    messages_emitted: int


class TraceRecorder:
    """Records every delivery and timeout of a simulation run, in order."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        self._current_round: int = 0

    # -- hooks called by the scheduler/simulator -------------------------------

    def start_round(self, round_index: int) -> None:
        self._current_round = round_index

    def record_delivery(self, src: NodeId, dst: NodeId, message: Message,
                        messages_emitted: int) -> None:
        self.events.append(TraceEvent(
            round_index=self._current_round, kind="deliver", node=dst,
            sender=src, message_type=message.type_name(),
            messages_emitted=messages_emitted))

    def record_timeout(self, v: NodeId, messages_emitted: int) -> None:
        self.events.append(TraceEvent(
            round_index=self._current_round, kind="timeout", node=v,
            sender=None, message_type=None, messages_emitted=messages_emitted))
