"""Registry adapter for the paper's full MDST protocol.

The node algorithm lives in :mod:`repro.core`; this adapter reads the
generic :class:`~repro.protocols.base.ProtocolRunConfig` directly, builds
MDST nodes from it and owns every initial policy, including the two
installers :func:`initialize_from_tree` and :func:`initialize_isolated`.
A run is ``run_protocol(graph, ProtocolRunConfig(...))`` (``protocol``
defaults to ``"mdst"``).

Recognised :attr:`~repro.protocols.base.ProtocolRunConfig.options` (any
other key is rejected by :meth:`MDSTProtocol.validate_config`):

``search_period`` (int, default 3)
    Rounds between improvement searches of a maximum-degree node.
``deblock_cooldown`` (int, default 30)
    Rounds a node stays silent after a failed deblock.
``enable_reduction`` (bool, default True)
    Disable to run only the substrate layers (ablation); also relaxes the
    legitimacy predicate accordingly.
"""

from __future__ import annotations

from typing import Dict, Iterable

import networkx as nx
import numpy as np

from ..core.legitimacy import make_mdst_legitimacy
from ..core.node_algorithm import MDSTNode, mdst_node_factory
from ..exceptions import ConfigurationError
from ..graphs.edge_array import EdgeArrayGraph
from ..graphs.spanning import (bfs_spanning_tree, parent_map_from_edges,
                               random_spanning_tree, tree_degrees)
from ..graphs.validation import check_network
from ..sim.network import Network
from ..types import Edge, NodeId, canonical_edges
from .base import (
    Predicate,
    ProtocolAdapter,
    ProtocolRunConfig,
    corrupt_configuration,
)
from .registry import register_protocol

__all__ = ["MDSTProtocol", "initialize_from_tree", "initialize_isolated"]

#: The keys of :attr:`ProtocolRunConfig.options` the MDST node reads.
OPTIONS = ("search_period", "deblock_cooldown", "enable_reduction")


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


class MDSTProtocol(ProtocolAdapter):
    """The self-stabilizing minimum-degree spanning tree (the full paper)."""

    name = "mdst"
    description = ("self-stabilizing minimum-degree spanning tree "
                   "(spanning tree + PIF + degree reduction, deg <= OPT+1)")
    #: ``"bfs_tree"``
    #:     Install a coherent configuration describing the BFS spanning tree
    #:     of the network (see :func:`initialize_from_tree`): the
    #:     spanning-tree and max-degree layers start already stabilized, so
    #:     the run isolates the degree-reduction phase.  Used by E4/E7/E8 and recovery scenarios.
    #: ``"random_tree"``
    #:     Same, but for a uniformly random spanning tree (seeded from the
    #:     run's generator) -- coherent but typically far from optimal.
    #: ``"isolated"``
    #:     A clean cold start: every node is its own root with empty
    #:     channels and no knowledge of its neighbours.  This is a
    #:     *reachable* initial state (a just-booted network), not an
    #:     adversarial one.
    #: ``"corrupted"``
    #:     The paper's arbitrary initial configuration
    #:     (:func:`~repro.protocols.base.corrupt_configuration`): every
    #:     variable of every node is randomised and a fraction
    #:     (``corrupt_channel_fraction``) of the channels is pre-loaded with
    #:     garbage messages.  Convergence from here is the
    #:     self-stabilization claim proper (Definition 1, experiment E5).
    initial_policies = ("bfs_tree", "random_tree", "isolated", "corrupted")
    supports_churn = True
    supports_initial_tree = True
    # The array kernel reproduces the MDST node byte-for-byte (guarded by
    # the E2 md5 anchors and the object≡array hypothesis property), and
    # build_array_network builds it from edge arrays, converting an nx
    # graph once.
    supports_array_backend = True

    def validate_config(self, config: ProtocolRunConfig) -> None:
        super().validate_config(config)
        unknown = sorted(set(config.options) - set(OPTIONS))
        if unknown:
            raise ConfigurationError(
                f"unknown mdst options {unknown}; known: {', '.join(OPTIONS)}")

    def build_network(self, graph: nx.Graph, config: ProtocolRunConfig) -> Network:
        check_network(graph)
        return Network(graph, mdst_node_factory(
            n_upper=self.default_n_upper(graph, config), **config.options))

    def build_array_network(self, graph: nx.Graph | EdgeArrayGraph,
                            config: ProtocolRunConfig) -> Network:
        from ..sim.array_kernel import ArrayNetwork
        return ArrayNetwork(graph, n_upper=self.default_n_upper(graph, config),
                            **config.options)

    def prepare_initial(self, network: Network, config: ProtocolRunConfig,
                        rng: np.random.Generator) -> None:
        if config.initial == "bfs_tree":
            initialize_from_tree(network, bfs_spanning_tree(network.graph))
        elif config.initial == "random_tree":
            seed = int(rng.integers(0, 2**31 - 1))
            initialize_from_tree(network,
                                 random_spanning_tree(network.graph, seed=seed))
        elif config.initial == "isolated":
            initialize_isolated(network)
        else:  # "corrupted": validate_config rejects every other policy
            corrupt_configuration(network, config, rng)

    def install_tree(self, network: Network, tree_edges) -> None:
        initialize_from_tree(network, tree_edges)

    def make_legitimacy(self, network: Network,
                        config: ProtocolRunConfig) -> Predicate:
        return make_mdst_legitimacy(
            require_reduction=bool(config.option("enable_reduction", True)))


register_protocol(MDSTProtocol())
