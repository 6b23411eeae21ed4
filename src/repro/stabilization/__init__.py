"""Self-stabilizing building blocks: spanning tree, PIF max-degree, predicates."""

from .pif import (
    DegreeInfo,
    MaxDegreeAggregator,
    MaxDegreeProcess,
    max_degree_process_factory,
    pif_legitimacy,
)
from .predicates import (
    distances_coherent,
    dmax_agrees_with_tree,
    extract_parent_map,
    has_unique_root,
    parent_map_is_spanning_tree,
    snapshot_tree_degree,
    tree_coherent,
    tree_edges_from_snapshots,
)
from .spanning_tree import (
    NeighborView,
    STInfo,
    SpanningTreeProcess,
    TreeRules,
    TreeVars,
    spanning_tree_process_factory,
)

__all__ = [name for name in dir() if not name.startswith("_")]
