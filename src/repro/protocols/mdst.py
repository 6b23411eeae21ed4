"""Registry adapter for the paper's full MDST protocol.

The heavy lifting lives in :mod:`repro.core`; this adapter translates the
generic :class:`~repro.protocols.base.ProtocolRunConfig` into the
MDST-specific :class:`~repro.core.protocol.MDSTConfig` and delegates to the
existing machinery, so :func:`repro.core.protocol.run_mdst` and
``run_protocol(graph, config)`` with ``protocol="mdst"`` execute the exact
same code path.

Recognised :attr:`~repro.protocols.base.ProtocolRunConfig.options`:

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
from ..core.protocol import (
    MDSTConfig,
    _prepare_initial,
    build_mdst_network,
    initialize_from_tree,
)
from ..graphs.edge_array import EdgeArrayGraph
from ..sim.network import Network
from .base import Predicate, ProtocolAdapter, ProtocolRunConfig
from .registry import register_protocol

__all__ = ["MDSTProtocol"]


class MDSTProtocol(ProtocolAdapter):
    """The self-stabilizing minimum-degree spanning tree (the full paper)."""

    name = "mdst"
    description = ("self-stabilizing minimum-degree spanning tree "
                   "(spanning tree + PIF + degree reduction, deg <= OPT+1)")
    initial_policies = ("bfs_tree", "random_tree", "isolated", "corrupted")
    supports_churn = True
    supports_initial_tree = True
    # The array kernel reproduces the MDST node byte-for-byte (guarded by
    # the E2 md5 anchors and the object≡array hypothesis property), and
    # build_array_network builds it from edge arrays, converting an nx
    # graph once.
    supports_array_backend = True

    @staticmethod
    def _mdst_config(config: ProtocolRunConfig) -> MDSTConfig:
        """The :class:`MDSTConfig` equivalent of a generic run config."""
        return MDSTConfig(
            scheduler=config.scheduler,
            seed=config.seed,
            initial=config.initial,
            corrupt_channel_fraction=config.corrupt_channel_fraction,
            search_period=int(config.option("search_period", 3)),
            deblock_cooldown=int(config.option("deblock_cooldown", 30)),
            enable_reduction=bool(config.option("enable_reduction", True)),
            stability_window=config.stability_window,
            max_rounds=config.max_rounds,
            n_upper=config.n_upper,
        )

    def build_network(self, graph: nx.Graph, config: ProtocolRunConfig) -> Network:
        return build_mdst_network(graph, self._mdst_config(config))

    def build_array_network(self, graph: nx.Graph | EdgeArrayGraph,
                            config: ProtocolRunConfig) -> Network:
        from ..sim.array_kernel import build_array_mdst_network
        cfg = self._mdst_config(config)
        return build_array_mdst_network(
            graph,
            n_upper=cfg.n_upper or graph.number_of_nodes() + 1,
            search_period=cfg.search_period,
            deblock_cooldown=cfg.deblock_cooldown,
            enable_reduction=cfg.enable_reduction,
        )

    def prepare_initial(self, network: Network, config: ProtocolRunConfig,
                        rng: np.random.Generator) -> None:
        _prepare_initial(network, self._mdst_config(config), rng)

    def install_tree(self, network: Network, tree_edges) -> None:
        initialize_from_tree(network, tree_edges)

    def make_legitimacy(self, network: Network,
                        config: ProtocolRunConfig) -> Predicate:
        return make_mdst_legitimacy(
            require_reduction=bool(config.option("enable_reduction", True)))


register_protocol(MDSTProtocol())
