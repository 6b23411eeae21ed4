"""High-level driver for the self-stabilizing MDST protocol.

This module is the main entry point of the library for most users::

    import networkx as nx
    from repro.core import run_mdst, MDSTConfig

    graph = nx.random_geometric_graph(40, 0.3, seed=1)
    result = run_mdst(graph, MDSTConfig(seed=1, max_rounds=3000))
    print(result.tree_degree, result.converged)

It builds a simulated network whose every node runs
:class:`~repro.core.node_algorithm.MDSTNode`, prepares the requested initial
configuration (a coherent tree, fully corrupted state, or every node alone),
runs the simulator under the chosen scheduler until the legitimacy predicate
stabilizes, and packages the outcome.

Execution is delegated to the protocol-agnostic engine
(:func:`repro.protocols.runner.run_protocol`) through the registry's MDST
adapter (:class:`repro.protocols.mdst.MDSTProtocol`): :func:`run_mdst` is
the MDST-flavoured view -- :class:`MDSTConfig` in, :class:`MDSTResult`
out -- of the one generic code path every registered protocol shares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence, Tuple

import networkx as nx

from ..exceptions import ConfigurationError
from ..graphs.spanning import parent_map_from_edges, tree_degrees
from ..protocols.base import ProtocolRunConfig
from ..protocols.registry import get_protocol
from ..protocols.runner import ProtocolResult, run_protocol
from ..sim.faults import ChurnPlan, FaultPlan
from ..sim.network import Network
from ..types import Edge, NodeId, canonical_edges
from .node_algorithm import MDSTNode

__all__ = ["MDSTConfig", "MDSTResult", "build_mdst_network", "initialize_from_tree",
           "initialize_isolated", "run_mdst"]


@dataclass
class MDSTConfig:
    """Configuration of one protocol run.

    Attributes
    ----------
    scheduler:
        ``"synchronous"``, ``"random"``, ``"adversarial"`` or
        ``"weighted"`` (per-node step weights, see ``node_weights``).
    seed:
        Master seed for the scheduler, fault injection and random trees.
    initial:
        Initial configuration policy: ``"bfs_tree"``, ``"random_tree"``,
        ``"isolated"`` or ``"corrupted"`` (documented on
        :attr:`repro.protocols.mdst.MDSTProtocol.initial_policies`).
    corrupt_channel_fraction:
        With ``initial="corrupted"``, fraction of channels pre-loaded with
        garbage messages.
    search_period, deblock_cooldown:
        Throttling knobs of :class:`~repro.core.node_algorithm.MDSTNode`.
    enable_reduction:
        Disable to run only the substrate layers (ablation).
    stability_window:
        Consecutive legitimate rounds required to declare convergence.
    max_rounds:
        Round budget.
    keep_trace_events:
        Record the full event log (memory-heavy; used by examples).
    slow_links, max_delay:
        Parameters of the adversarial scheduler.
    node_weights:
        Per-node step weights for the ``"weighted"`` scheduler (hot-hub
        stress scenarios); nodes not listed default to weight 1.
    n_upper:
        Explicit upper bound on the network size (the distance bound of the
        spanning-tree layer).  Defaults to ``n + 1`` of the input graph;
        runs that expect node *joins* (a churn plan with ``add_node``
        events) must pass headroom here, because a legitimate tree of the
        grown network can have distances beyond the original bound.
    backend:
        Simulation kernel backend: ``"object"`` (one process object per
        node, the historical kernel) or ``"array"`` (flat numpy columns
        plus rounds vectorized under every scheduler --
        :mod:`repro.sim.array_engine`).  The backends are byte-identical
        in results; ``"array"`` is the large-``n`` fast path but rejects
        live topology churn and adversary models.
    """

    scheduler: str = "synchronous"
    seed: Optional[int] = None
    initial: str = "isolated"
    corrupt_channel_fraction: float = 0.5
    search_period: int = 3
    deblock_cooldown: int = 30
    enable_reduction: bool = True
    stability_window: int = 5
    max_rounds: int = 5000
    extra_rounds_after_convergence: int = 0
    keep_trace_events: bool = False
    slow_links: Sequence[Tuple[NodeId, NodeId]] = field(default_factory=tuple)
    max_delay: int = 4
    node_weights: Optional[Dict[NodeId, int]] = None
    n_upper: Optional[int] = None
    backend: str = "object"

    def validate(self) -> None:
        """Reject configurations the registry's MDST adapter cannot run."""
        get_protocol("mdst").validate_config(self.protocol_run_config())

    def protocol_run_config(self) -> ProtocolRunConfig:
        """This configuration as a generic :class:`ProtocolRunConfig`.

        The one conversion between the two: every MDST entry point
        (:func:`run_mdst`, :func:`build_mdst_network`, :meth:`validate`)
        goes through it to the registry's MDST adapter, which reads the
        result directly.  The MDST-specific knobs (``search_period``,
        ``deblock_cooldown``, ``enable_reduction``) travel in ``options``.
        """
        return ProtocolRunConfig(
            protocol="mdst",
            scheduler=self.scheduler,
            seed=self.seed,
            initial=self.initial,
            corrupt_channel_fraction=self.corrupt_channel_fraction,
            stability_window=self.stability_window,
            max_rounds=self.max_rounds,
            extra_rounds_after_convergence=self.extra_rounds_after_convergence,
            keep_trace_events=self.keep_trace_events,
            slow_links=self.slow_links,
            max_delay=self.max_delay,
            node_weights=self.node_weights,
            n_upper=self.n_upper,
            backend=self.backend,
            options={
                "search_period": self.search_period,
                "deblock_cooldown": self.deblock_cooldown,
                "enable_reduction": self.enable_reduction,
            },
        )


#: Outcome of :func:`run_mdst`: the generic result, with ``protocol="mdst"``.
MDSTResult = ProtocolResult


def build_mdst_network(graph: nx.Graph, config: Optional[MDSTConfig] = None) -> Network:
    """Build a :class:`~repro.sim.network.Network` of MDST nodes over ``graph``
    (the object backend, whatever ``config.backend`` names)."""
    run_config = (config or MDSTConfig()).protocol_run_config()
    adapter = get_protocol("mdst")
    adapter.validate_config(run_config)
    return adapter.build_network(graph, run_config)


def initialize_from_tree(network: Network, tree_edges: Iterable[Edge]) -> None:
    """Install a coherent configuration describing the given spanning tree.

    Every node's ``root``/``parent``/``distance`` is set consistently with the
    tree (rooted at the minimum identifier) and the cached neighbour views are
    pre-filled, so the spanning-tree layer starts already stabilized and only
    the degree-reduction layer has work to do.
    """
    edges = set(canonical_edges(tree_edges))
    parent = parent_map_from_edges(network.node_ids, edges)
    root = min(network.node_ids)
    # distances from the parent map
    distance: Dict[NodeId, int] = {root: 0}
    pending = [v for v in network.node_ids if v != root]
    while pending:
        progressed = False
        rest = []
        for v in pending:
            if parent[v] in distance:
                distance[v] = distance[parent[v]] + 1
                progressed = True
            else:
                rest.append(v)
        pending = rest
        if not progressed:  # pragma: no cover - parent_map_from_edges guarantees progress
            raise ConfigurationError("could not orient the provided tree")
    degrees = tree_degrees(network.node_ids, edges)
    dmax = max(degrees.values()) if degrees else 0
    for v in network.node_ids:
        proc = network.processes[v]
        if not isinstance(proc, MDSTNode):
            raise ConfigurationError("initialize_from_tree requires MDSTNode processes")
        st = proc.s
        st.root = root
        st.parent = parent[v] if parent[v] != v else v
        st.distance = distance[v]
        st.sub_max = dmax
        st.dmax = dmax
        st.color = True
        for u in proc.neighbors:
            view = st.view[u]
            view.root = root
            view.parent = parent[u] if parent[u] != u else u
            view.distance = distance[u]
            view.degree = degrees[u]
            view.sub_max = dmax
            view.dmax = dmax
            view.color = True
            view.heard = True
    network.note_state_write()


def initialize_isolated(network: Network) -> None:
    """Every node starts alone: own root, no tree edges, empty views."""
    fast = getattr(network, "initialize_isolated_columns", None)
    if fast is not None:
        # Column-backed networks reset their shared arrays in one pass
        # (and, on the CSR-direct build path, without materializing any
        # per-node process at all).
        fast()
        return
    for v in network.node_ids:
        proc = network.processes[v]
        if not isinstance(proc, MDSTNode):
            raise ConfigurationError("initialize_isolated requires MDSTNode processes")
        st = proc.s
        st.root = v
        st.parent = v
        st.distance = 0
        st.sub_max = 0
        st.dmax = 0
        st.color = True
        for u in proc.neighbors:
            view = st.view[u]
            view.heard = False
    network.note_state_write()


def run_mdst(graph: nx.Graph, config: Optional[MDSTConfig] = None,
             initial_tree: Optional[Iterable[Edge]] = None,
             fault_plan: Optional[FaultPlan] = None,
             churn_plan: Optional[ChurnPlan] = None) -> MDSTResult:
    """Run the self-stabilizing MDST protocol on ``graph`` to convergence.

    Parameters
    ----------
    graph:
        Undirected connected network.
    config:
        Run configuration (defaults to :class:`MDSTConfig` defaults).
    initial_tree:
        Explicit initial spanning tree (overrides ``config.initial``).
    fault_plan:
        Optional schedule of mid-run transient faults.
    churn_plan:
        Optional schedule of live topology changes; convergence is then
        judged against the *mutated* graph (the legitimacy predicate reads
        the live network).  Runs expecting node joins should also pass
        :attr:`MDSTConfig.n_upper` headroom.

    Returns
    -------
    MDSTResult
        Convergence flag, round/step/message counts, final tree and per-node
        protocol statistics.

    Notes
    -----
    This is a thin wrapper over the generic
    :func:`repro.protocols.runner.run_protocol` with ``protocol="mdst"``;
    both entry points execute the identical code path.
    """
    return run_protocol(graph, (config or MDSTConfig()).protocol_run_config(),
                        initial_tree=initial_tree,
                        fault_plan=fault_plan, churn_plan=churn_plan)
