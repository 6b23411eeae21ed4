"""Registry adapter for the PIF max-degree aggregation protocol (§3.2.3).

Drives :class:`repro.stabilization.pif.MaxDegreeProcess` -- propagation of
information with feedback over a *fixed* spanning tree -- through the
generic runner.  The fixed tree is the deterministic BFS spanning tree of
the workload graph, so a run's legitimate configuration (every node's
``dmax`` equal to the true tree degree) is fully determined by
``(family, n, seed)``.

The tree being fixed is also why ``supports_churn`` is ``False``: the
protocol aggregates over a tree chosen at build time, and after arbitrary
node/edge churn no legitimate configuration may exist (the fixed tree need
not span the mutated graph).  The process still implements the
``neighbor_added``/``neighbor_removed`` delta hooks so it survives network
mutation events structurally; it just cannot promise re-convergence.
"""

from __future__ import annotations

import weakref
from typing import Dict, Tuple

import networkx as nx
import numpy as np

from ..graphs.spanning import (
    bfs_spanning_tree,
    parent_map_from_edges,
    tree_degree,
)
from ..graphs.validation import check_network
from ..sim.network import Network
from ..sim.simulator import SimulationReport
from ..stabilization.pif import max_degree_process_factory, pif_legitimacy
from .base import (
    Predicate,
    ProtocolAdapter,
    ProtocolRunConfig,
    corrupt_configuration,
)
from .registry import register_protocol

__all__ = ["PIFMaxDegreeProtocol"]


class PIFMaxDegreeProtocol(ProtocolAdapter):
    """PIF max-degree aggregation over the graph's BFS spanning tree."""

    name = "pif_max_degree"
    description = ("PIF max-degree aggregation over a fixed BFS spanning "
                   "tree (feedback up, propagation down)")
    initial_policies = ("isolated", "corrupted")
    supports_churn = False

    #: Per-graph memo of ``(parent_map, expected_dmax)``: the fixed tree is
    #: a deterministic function of the (static -- no churn) graph, and one
    #: run consults it from three hooks (network build, legitimacy,
    #: metrics), so computing the BFS once per graph serves them all.  Held
    #: weakly so workload graphs are not kept alive.
    _tree_memo: "weakref.WeakKeyDictionary[nx.Graph, Tuple[Dict, int]]" = \
        weakref.WeakKeyDictionary()

    def _fixed_tree(self, graph: nx.Graph) -> Tuple[Dict, int]:
        """``(parent_map, expected_dmax)`` of the deterministic BFS tree."""
        cached = self._tree_memo.get(graph)
        if cached is None:
            tree = bfs_spanning_tree(graph)
            cached = (parent_map_from_edges(sorted(graph.nodes), set(tree)),
                      tree_degree(graph.nodes, tree))
            self._tree_memo[graph] = cached
        return cached

    def build_network(self, graph: nx.Graph, config: ProtocolRunConfig) -> Network:
        check_network(graph)
        parent_map, _ = self._fixed_tree(graph)
        return Network(graph, max_degree_process_factory(parent_map))

    def prepare_initial(self, network: Network, config: ProtocolRunConfig,
                        rng: np.random.Generator) -> None:
        # "isolated" is the constructor state: every node knows only its own
        # tree degree and has heard nothing from its neighbours.
        if config.initial == "corrupted":
            corrupt_configuration(network, config, rng)

    def make_legitimacy(self, network: Network,
                        config: ProtocolRunConfig) -> Predicate:
        return pif_legitimacy(self._fixed_tree(network.graph)[1])

    def extract_metrics(self, network: Network, report: SimulationReport,
                        config: ProtocolRunConfig):
        return {"expected_dmax": self._fixed_tree(network.graph)[1]}


register_protocol(PIFMaxDegreeProtocol())
