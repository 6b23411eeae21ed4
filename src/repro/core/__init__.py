"""The paper's primary contribution: the self-stabilizing MDST algorithm.

Public surface:

* :func:`run_mdst` / :class:`MDSTConfig` -- run the full message-passing
  protocol on a graph and obtain the resulting tree and statistics.
* :class:`MDSTNode` -- the per-node algorithm, usable directly with the
  simulator for custom set-ups.
* :class:`ReferenceMDST` -- the round-abstracted reference engine applying the
  same improvement rule centrally (oracle + large-scale sweeps).
* :mod:`repro.core.improvement` -- improving edges, blocking nodes,
  improvement-chain planning (Eq. 1 and the Deblock recursion as pure
  functions over trees) and Fürer–Raghavachari's swap search and stopping
  test.
* :mod:`repro.core.legitimacy` -- the legitimacy predicates of Definition 1.
"""

from .improvement import (
    Move,
    TreeIndex,
    apply_moves,
    blocking_nodes,
    find_fr_swap,
    fr_witness_holds,
    is_improving_edge,
    plan_improvement,
)
from .legitimacy import (
    current_tree_degree,
    current_tree_edges,
    degree_layer_coherent,
    make_mdst_legitimacy,
    mdst_legitimacy,
    reduction_finished,
    tree_coherent,
)
from .messages import Back, Deblock, MInfo, Remove, Reverse, Search, UpdateDist
from .node_algorithm import MDSTNode, mdst_node_factory
from .protocol import (
    MDSTConfig,
    MDSTResult,
    build_mdst_network,
    initialize_from_tree,
    initialize_isolated,
    run_mdst,
)
from .reference import ReferenceMDST, ReferenceResult, reduce_tree_degree
from .state import MDSTState, NeighborState

__all__ = [name for name in dir() if not name.startswith("_")]
