"""repro -- reproduction of "Self-stabilizing minimum-degree spanning tree
within one from the optimal degree" (Blin, Gradinariu Potop-Butucaru,
Rovedakis, IPDPS 2009).

Subpackages
-----------
``repro.graphs``
    Network generators, spanning-tree utilities, validation, I/O.
``repro.sim``
    Asynchronous message-passing simulator (FIFO channels, send/receive
    atomicity, schedulers, fault injection, tracing).
``repro.stabilization``
    Self-stabilizing substrate modules: spanning tree (rules R1/R2),
    PIF max-degree aggregation, global predicates.
``repro.core``
    The MDST algorithm itself: per-node protocol, improvement logic,
    legitimacy predicates, reference engine.
``repro.protocols``
    The unified protocol registry: the :class:`ProtocolAdapter` contract,
    ``run_protocol`` (the one entry point of every run, the MDST protocol
    included), and the built-in ``mdst`` / ``spanning_tree`` /
    ``pif_max_degree`` adapters.
``repro.baselines``
    Exact Δ* solver, Fürer–Raghavachari, centralized local search,
    simple spanning trees, fragment-based distributed baseline.
``repro.analysis``
    Metrics, convergence/memory accounting, tables, result records.
``repro.experiments``
    Workloads, sweep runner and the E1-E8 experiment definitions.
``repro.runtime``
    Parallel sweep engine: serializable run specs, process-pool execution,
    on-disk result caching, and the ``repro`` command-line interface.
"""

from .types import Edge, NodeId, RunResult, TreeSnapshot, canonical_edge, canonical_edges
from .exceptions import (
    BaselineError,
    ChannelError,
    ConfigurationError,
    ConvergenceError,
    ExactSolverBudgetError,
    GraphError,
    NotASpanningTreeError,
    NotConnectedError,
    ProtocolError,
    ReproError,
    SchedulerError,
    SimulationError,
)

__version__ = "1.1.0"

__all__ = [
    "Edge",
    "NodeId",
    "RunResult",
    "TreeSnapshot",
    "canonical_edge",
    "canonical_edges",
    "ReproError",
    "GraphError",
    "NotConnectedError",
    "NotASpanningTreeError",
    "SimulationError",
    "ChannelError",
    "SchedulerError",
    "ConvergenceError",
    "ProtocolError",
    "ConfigurationError",
    "BaselineError",
    "ExactSolverBudgetError",
    "__version__",
]
