"""Registry adapter for the standalone self-stabilizing spanning tree (§3.2.1).

Drives :class:`repro.stabilization.spanning_tree.SpanningTreeProcess` -- the
paper's substrate layer on its own -- through the generic runner, so the
tree-construction layer can be measured (and churned, and fault-injected)
in isolation from the degree-reduction machinery.  Its rules are
:class:`~repro.stabilization.spanning_tree.TreeRules`, the same code the
MDST node runs.

Legitimacy is :func:`repro.stabilization.predicates.tree_coherent`, MDST's
condition 1: a min-id-rooted spanning tree of the *live* communication
graph with coherent distances.  It reads the live graph, so churned runs
are judged against the mutated topology exactly like MDST runs.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from ..graphs.validation import check_network
from ..sim.network import Network
from ..stabilization.predicates import tree_coherent
from ..stabilization.spanning_tree import spanning_tree_process_factory
from .base import (
    Predicate,
    ProtocolAdapter,
    ProtocolRunConfig,
    corrupt_configuration,
)
from .registry import register_protocol

__all__ = ["SpanningTreeProtocol"]


class SpanningTreeProtocol(ProtocolAdapter):
    """The self-stabilizing spanning-tree substrate (rules R1/R2/R3)."""

    name = "spanning_tree"
    description = ("standalone self-stabilizing spanning tree "
                   "(min-id root, BFS-like, rules R1-R3)")
    initial_policies = ("isolated", "corrupted")
    supports_churn = True

    def build_network(self, graph: nx.Graph, config: ProtocolRunConfig) -> Network:
        check_network(graph)
        factory = spanning_tree_process_factory(
            n_upper=self.default_n_upper(graph, config))
        return Network(graph, factory)

    def prepare_initial(self, network: Network, config: ProtocolRunConfig,
                        rng: np.random.Generator) -> None:
        # "isolated" is the constructor state already: every node its own
        # root at distance 0 with unheard neighbour views.
        if config.initial == "corrupted":
            corrupt_configuration(network, config, rng)

    def make_legitimacy(self, network: Network,
                        config: ProtocolRunConfig) -> Predicate:
        return tree_coherent


register_protocol(SpanningTreeProtocol())
