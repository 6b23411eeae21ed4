"""Execution traces and cumulative statistics.

The :class:`TraceRecorder` is optional (the simulator runs without one) and
comes in two flavours controlled by ``keep_events``:

* *counters only* (default) -- cheap enough to stay enabled in benchmarks;
  records per-message-type counts, per-round counters and message-size
  extrema;
* *full event log* -- additionally stores one :class:`TraceEvent` per
  delivery/timeout, used by the examples to print a readable play-by-play of
  a degree improvement (Figure 4 / Figure 5 behaviour).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..types import NodeId
from .messages import Message

__all__ = ["TraceEvent", "RoundRecord", "TraceRecorder"]


@dataclass(frozen=True)
class TraceEvent:
    """A single recorded simulator event."""

    round_index: int
    kind: str              # "deliver" or "timeout"
    node: NodeId           # the node that took the step
    sender: Optional[NodeId]
    message_type: Optional[str]
    messages_emitted: int


@dataclass
class RoundRecord:
    """Aggregated counters for one round."""

    round_index: int
    steps: int = 0
    deliveries: int = 0
    timeouts: int = 0
    messages_sent: int = 0


class TraceRecorder:
    """Collects statistics (and optionally events) across a simulation run."""

    def __init__(self, keep_events: bool = False, network_size: int = 2):
        self.keep_events = keep_events
        self.network_size = max(2, network_size)
        self.events: List[TraceEvent] = []
        self.rounds: List[RoundRecord] = []
        self.message_type_counts: Dict[str, int] = {}
        self.max_message_bits: int = 0
        self.total_deliveries: int = 0
        self.total_timeouts: int = 0
        self.total_messages_sent: int = 0
        self._current_round: int = 0

    # -- hooks called by the scheduler/simulator -------------------------------

    def start_round(self, round_index: int) -> None:
        self._current_round = round_index
        self.rounds.append(RoundRecord(round_index=round_index))

    def record_delivery(self, src: NodeId, dst: NodeId, message: Message,
                        messages_emitted: int) -> None:
        name = message.type_name()
        self.message_type_counts[name] = self.message_type_counts.get(name, 0) + 1
        bits = message.size_bits(self.network_size)
        if bits > self.max_message_bits:
            self.max_message_bits = bits
        self.total_deliveries += 1
        self.total_messages_sent += messages_emitted
        if self.rounds:
            rec = self.rounds[-1]
            rec.steps += 1
            rec.deliveries += 1
            rec.messages_sent += messages_emitted
        if self.keep_events:
            self.events.append(TraceEvent(
                round_index=self._current_round, kind="deliver", node=dst,
                sender=src, message_type=name, messages_emitted=messages_emitted))

    def record_timeout(self, v: NodeId, messages_emitted: int) -> None:
        self.total_timeouts += 1
        self.total_messages_sent += messages_emitted
        if self.rounds:
            rec = self.rounds[-1]
            rec.steps += 1
            rec.timeouts += 1
            rec.messages_sent += messages_emitted
        if self.keep_events:
            self.events.append(TraceEvent(
                round_index=self._current_round, kind="timeout", node=v,
                sender=None, message_type=None, messages_emitted=messages_emitted))

    # -- reporting --------------------------------------------------------------

    def deliveries_by_type(self) -> Dict[str, int]:
        """Delivered message counts keyed by message type name."""
        return dict(sorted(self.message_type_counts.items()))

    def summary(self) -> Dict[str, object]:
        """Compact dictionary summary of the run, used in reports."""
        return {
            "rounds": len(self.rounds),
            "deliveries": self.total_deliveries,
            "timeouts": self.total_timeouts,
            "messages_sent": self.total_messages_sent,
            "max_message_bits": self.max_message_bits,
            "by_type": self.deliveries_by_type(),
        }
