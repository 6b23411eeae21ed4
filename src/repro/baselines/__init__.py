"""Baseline algorithms the paper is measured against.

* :mod:`repro.baselines.exact` -- exact Δ* (small instances, backtracking);
* :mod:`repro.baselines.fuerer_raghavachari` -- the sequential Δ*+1
  approximation the paper distributes;
* :mod:`repro.baselines.local_search` -- direct improvements only (no
  Deblock), the natural ablation;
* :mod:`repro.baselines.simple_trees` -- BFS / DFS / MST / random trees;
* :mod:`repro.baselines.blin_butelle` -- serialized-improvement cost model
  standing in for the Blin–Butelle distributed algorithm.
"""

from .blin_butelle import SerializationCostModel, serialized_vs_concurrent_cost
from .exact import exact_mdst_degree, exact_mdst_tree, has_degree_bounded_spanning_tree
from .fuerer_raghavachari import FRResult, fuerer_raghavachari
from .local_search import LocalSearchResult, greedy_local_search
from .simple_trees import (
    SIMPLE_TREE_BASELINES,
    TreeBaselineResult,
    baseline_tree,
    evaluate_simple_trees,
)

__all__ = [name for name in dir() if not name.startswith("_")]
