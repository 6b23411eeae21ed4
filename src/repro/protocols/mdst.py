"""Registry adapter for the paper's full MDST protocol.

The node algorithm and the tree installers live in :mod:`repro.core`; this
adapter reads the generic :class:`~repro.protocols.base.ProtocolRunConfig`
directly and builds MDST nodes from it, so
:func:`repro.core.protocol.run_mdst` (which converts its
:class:`~repro.core.protocol.MDSTConfig` once, through
:meth:`~repro.core.protocol.MDSTConfig.protocol_run_config`) and
``run_protocol(graph, config)`` with ``protocol="mdst"`` execute the exact
same code path.

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

import networkx as nx
import numpy as np

from ..core.legitimacy import make_mdst_legitimacy
from ..core.node_algorithm import mdst_node_factory
from ..core.protocol import initialize_from_tree, initialize_isolated
from ..exceptions import ConfigurationError
from ..graphs.edge_array import EdgeArrayGraph
from ..graphs.spanning import bfs_spanning_tree, random_spanning_tree
from ..graphs.validation import check_network
from ..sim.network import Network
from .base import (
    Predicate,
    ProtocolAdapter,
    ProtocolRunConfig,
    corrupt_configuration,
)
from .registry import register_protocol

__all__ = ["MDSTProtocol"]

#: The keys of :attr:`ProtocolRunConfig.options` the MDST node reads.
OPTIONS = ("search_period", "deblock_cooldown", "enable_reduction")


class MDSTProtocol(ProtocolAdapter):
    """The self-stabilizing minimum-degree spanning tree (the full paper)."""

    name = "mdst"
    description = ("self-stabilizing minimum-degree spanning tree "
                   "(spanning tree + PIF + degree reduction, deg <= OPT+1)")
    #: ``"bfs_tree"``
    #:     Install a coherent configuration describing the BFS spanning tree
    #:     of the network (see :func:`~repro.core.protocol.
    #:     initialize_from_tree`): the spanning-tree and max-degree layers
    #:     start already stabilized, so the run isolates the
    #:     degree-reduction phase.  Used by E4/E7/E8 and recovery scenarios.
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
