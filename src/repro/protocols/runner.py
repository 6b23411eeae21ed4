"""The generic protocol runner: one engine for every registered protocol.

:func:`run_protocol` is the protocol-agnostic twin of the historical
:func:`repro.core.protocol.run_mdst` (which is now a thin wrapper over it):
build the network through the adapter, install the requested initial
configuration, run the simulator under the chosen scheduler until the
adapter's legitimacy predicate stabilizes, and package the outcome.  Every
step that used to be hard-wired to the MDST node -- process construction,
initial policies, the legitimacy predicate, metrics extraction -- routes
through the :class:`~repro.protocols.base.ProtocolAdapter` contract, so
fault plans, churn plans, schedulers, the opt-in event log and the
incremental predicate cache work identically for all protocols.  Every
count of the run, per-type deliveries included, comes from the
simulator's report; a :class:`~repro.sim.trace.TraceRecorder` is attached
only when ``config.keep_trace_events`` asks for the event log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

import networkx as nx
import numpy as np

from ..exceptions import ConfigurationError
from ..graphs.edge_array import EdgeArrayGraph
from ..sim.adversary import Adversary
from ..sim.faults import ChurnPlan, FaultPlan
from ..sim.scheduler import make_scheduler
from ..sim.simulator import SimulationReport, Simulator
from ..sim.trace import TraceRecorder
from ..stabilization.predicates import (
    snapshot_tree_degree,
    tree_edges_from_snapshots,
)
from ..types import Edge, NodeId, RunResult, TreeSnapshot
from .base import ProtocolAdapter, ProtocolRunConfig
from .registry import get_protocol

__all__ = ["ProtocolResult", "run_protocol"]


@dataclass
class ProtocolResult:
    """Outcome of :func:`run_protocol`, protocol-agnostic.

    :func:`repro.core.protocol.run_mdst` returns this object too (as
    :class:`repro.core.protocol.MDSTResult`): ``tree_edges`` is the edge set
    induced by the per-node ``parent`` snapshots (every registered protocol
    maintains a parent pointer), ``node_stats`` the per-node protocol
    counters for processes that keep them, ``trace`` the event log (``None``
    unless ``keep_trace_events`` was set), and ``final_graph`` the mutated
    communication graph of churned runs.
    """

    protocol: str
    run: RunResult
    report: SimulationReport
    trace: Optional[TraceRecorder]
    tree_edges: "set[Edge]"
    node_stats: Dict[NodeId, Dict[str, int]]
    final_graph: Optional[nx.Graph] = None

    @property
    def converged(self) -> bool:
        return self.run.converged

    @property
    def tree_degree(self) -> int:
        return self.run.tree_degree

    @property
    def rounds(self) -> int:
        return self.run.rounds


def run_protocol(graph: nx.Graph,
                 config: Optional[ProtocolRunConfig] = None,
                 *,
                 adapter: Optional[ProtocolAdapter] = None,
                 initial_tree: Optional[Iterable[Edge]] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 churn_plan: Optional[ChurnPlan] = None,
                 adversary: Optional[Adversary] = None) -> ProtocolResult:
    """Run a registered self-stabilizing protocol on ``graph`` to convergence.

    Parameters
    ----------
    graph:
        Undirected connected network.
    config:
        Run configuration; ``config.protocol`` names the registry entry
        (defaults to :class:`ProtocolRunConfig` defaults, i.e. ``"mdst"``).
    adapter:
        Explicit adapter, bypassing the registry lookup (used by wrappers
        that already hold one; normal callers never pass it).
    initial_tree:
        Explicit initial spanning tree (overrides ``config.initial``); only
        protocols with ``supports_initial_tree`` accept it.
    fault_plan:
        Optional schedule of mid-run transient faults.
    churn_plan:
        Optional schedule of live topology changes; requires
        ``supports_churn``.  Convergence is then judged against the
        *mutated* graph (the legitimacy predicate reads the live network),
        and runs expecting node joins should pass ``config.n_upper``
        headroom.
    adversary:
        Optional :class:`~repro.sim.adversary.Adversary` (falls back to
        ``config.adversary``).

    Returns
    -------
    ProtocolResult
        Convergence flag, round/step/message counts, induced tree and
        per-node protocol statistics.
    """
    config = config or ProtocolRunConfig()
    if adapter is None:
        adapter = get_protocol(config.protocol)
    adapter.validate_config(config)
    if churn_plan is not None:
        adapter.require("supports_churn", "topology churn")
    if initial_tree is not None:
        adapter.require("supports_initial_tree", "an explicit initial tree")
    if adversary is None:
        adversary = config.adversary
    if config.backend == "array":
        # The array kernel freezes the topology at build time and owns the
        # channel objects; live churn and adversary channel rewiring are
        # object-backend features.
        adapter.require("supports_array_backend", "the array backend")
        if churn_plan is not None:
            raise ConfigurationError(
                "backend='array' does not support topology churn")
        if adversary is not None:
            raise ConfigurationError(
                "backend='array' does not support adversary models")
    if isinstance(graph, EdgeArrayGraph) and config.backend != "array":
        # Callers may hand any adapter an edge-array container; only the
        # array build consumes it natively, the object build gets the
        # equivalent nx graph (identical canonical insertion order).
        graph = graph.to_networkx()
    rng = np.random.default_rng(config.seed)
    if config.backend == "array":
        network = adapter.build_array_network(graph, config)
    else:
        network = adapter.build_network(graph, config)
    if initial_tree is not None:
        adapter.install_tree(network, initial_tree)
    else:
        adapter.prepare_initial(network, config, rng)
    legitimacy = adapter.make_legitimacy(network, config)
    scheduler = make_scheduler(config.scheduler, seed=config.seed,
                               slow_links=config.slow_links,
                               max_delay=config.max_delay,
                               weights=config.node_weights)
    if config.backend == "array":
        from ..sim.array_engine import wrap_scheduler_for_array
        scheduler = wrap_scheduler_for_array(scheduler)
    trace = TraceRecorder() if config.keep_trace_events else None
    simulator = Simulator(network, scheduler=scheduler, legitimacy=legitimacy,
                          stability_window=config.stability_window,
                          fault_plan=fault_plan, churn_plan=churn_plan,
                          adversary=adversary, trace=trace, rng=rng)
    report = simulator.run(
        max_rounds=config.max_rounds,
        extra_rounds_after_convergence=config.extra_rounds_after_convergence)
    tree_edges = tree_edges_from_snapshots(network)
    tree_degree_now = snapshot_tree_degree(network)
    tree_snapshot: Optional[TreeSnapshot] = None
    if report.converged:
        snaps = network.snapshots()
        # Default missing parent pointers to self (an adapter's snapshot is
        # not required to expose one): from_parent_map then rejects the
        # forest and the result simply carries no tree snapshot.
        parent = {v: int(snaps[v].get("parent", v)) for v in network.node_ids}
        try:
            tree_snapshot = TreeSnapshot.from_parent_map(parent)
        except ValueError:
            tree_snapshot = None
    extra: Dict[str, object] = {
        "convergence_round": report.convergence_round,
        "max_message_bits": report.max_message_bits,
        "max_state_bits": report.max_state_bits,
        "deliveries_by_type": report.deliveries_by_type(),
    }
    extra.update(adapter.extract_metrics(network, report, config))
    final_graph: Optional[nx.Graph] = None
    if churn_plan is not None:
        # Churned runs report against the mutated topology.
        extra["churn_applied"] = report.churn_applied
        extra["churn_skipped"] = report.churn_skipped
        extra["churn_rounds"] = list(report.churn_rounds)
        extra["dropped_messages"] = report.dropped_messages
        extra["final_n"] = network.n
        extra["final_m"] = network.m
        final_graph = network.graph
    if adversary is not None:
        extra["adversary"] = adversary.describe()
        extra["adversary_events"] = report.adversary_events
        extra["adversary_rounds"] = list(report.adversary_rounds)
        extra["adversary_dropped"] = report.adversary_dropped
        extra["adversary_duplicated"] = report.adversary_duplicated
        extra["adversary_reordered"] = report.adversary_reordered
        extra["node_crashes"] = report.node_crashes
        extra["node_recoveries"] = report.node_recoveries
        extra["byzantine_corruptions"] = report.byzantine_corruptions
    run = RunResult(
        converged=report.converged,
        rounds=report.rounds,
        steps=report.steps,
        messages=report.messages_sent,
        tree=tree_snapshot,
        tree_degree=tree_degree_now,
        extra=extra,
    )
    node_stats = {v: dict(getattr(network.processes[v], "stats", {}))
                  for v in network.node_ids}
    return ProtocolResult(protocol=adapter.name, run=run, report=report,
                          trace=trace, tree_edges=tree_edges,
                          node_stats=node_stats, final_graph=final_graph)
