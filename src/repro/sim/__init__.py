"""Asynchronous message-passing simulator (send/receive atomicity, FIFO links).

The subpackage is deliberately protocol-agnostic: any protocol expressed as a
subclass of :class:`~repro.sim.node.Process` can be simulated under any of
the provided schedulers, with fault injection and tracing.
"""

from .adversary import (Adversary, ByzantineModel, ChannelModel,
                        NodeFaultModel, ReliableFifoChannelModel,
                        UnreliableChannelModel, make_channel_model)
from .channel import Channel, ChannelStats
from .faults import (ChurnEvent, ChurnPlan, FaultEvent, FaultPlan,
                     corrupt_channels, corrupt_everything, corrupt_states,
                     random_churn_plan)
from .messages import (GarbageMessage, Message, estimate_bits, id_bits,
                       message_dataclass)
from .monitors import ClosureMonitor, ConvergenceMonitor, InvariantMonitor, PredicateCache
from .network import EnabledEvents, Network, ProcessFactory
from .node import Outbox, Process
from .rng import derive_seed, seed_sequence, spawn_generators
from .scheduler import (
    AdversarialScheduler,
    RandomAsyncScheduler,
    RoundStats,
    Scheduler,
    SynchronousScheduler,
    WeightedFairScheduler,
    make_scheduler,
)
from .simulator import SimulationReport, Simulator
from .trace import TraceEvent, TraceRecorder

__all__ = [name for name in dir() if not name.startswith("_")]
