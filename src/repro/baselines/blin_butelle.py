"""Serialized-improvement baseline modelling Blin–Butelle-style execution.

The paper contrasts itself with the (non-self-stabilizing) distributed MDST
algorithm of Blin & Butelle [3]: that algorithm maintains fragment membership
information and performs improvements *one at a time*, whereas the paper's
fundamental-cycle approach can decrease the degree of every maximum-degree
node simultaneously.

Reproducing the full fragment protocol of [3] is out of scope (and not needed
for any claim of this paper); what the comparison experiments need is the
*serialization cost model*.  This module therefore provides an abstract
round-cost model on top of the reference engine:

* both executions perform the same improvement chains (computed by
  :class:`repro.core.reference.ReferenceMDST`);
* the **serialized** execution charges the rounds of each improvement
  (≈ the length of the fundamental cycle it traverses, for the search plus
  the removal/reversal walk) *sequentially*;
* the **concurrent** execution charges, within each degree level, only the
  maximum cost over the improvements of that level, modelling the paper's
  simultaneous reductions.

The substitution is listed under "Engineering substitutions" in
docs/architecture.md; experiment E7 uses both costs
and additionally measures the real message-passing protocol for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional

import networkx as nx

from ..core.improvement import TreeIndex
from ..core.reference import ReferenceMDST
from ..graphs.spanning import bfs_spanning_tree
from ..types import Edge, canonical_edges

__all__ = ["SerializationCostModel", "serialized_vs_concurrent_cost"]


@dataclass
class SerializationCostModel:
    """Round-cost comparison between serialized and concurrent improvements."""

    final_degree: int
    swaps: int
    swap_cycle_lengths: List[int] = field(default_factory=list)
    serialized_rounds: int = 0
    concurrent_rounds: int = 0

    @property
    def speedup(self) -> float:
        """Serialized rounds / concurrent rounds (>= 1 when concurrency helps)."""
        if self.concurrent_rounds == 0:
            return 1.0
        return self.serialized_rounds / self.concurrent_rounds


def serialized_vs_concurrent_cost(graph: nx.Graph,
                                  initial_tree: Optional[Iterable[Edge]] = None
                                  ) -> SerializationCostModel:
    """Estimate serialized vs concurrent improvement costs on ``graph``.

    Both executions apply the improvement chains found by the reference
    engine starting from the same tree; only the way their per-swap costs are
    charged differs (sum vs per-level maximum).
    """
    if initial_tree is None:
        initial_tree = bfs_spanning_tree(graph)
    initial = set(canonical_edges(initial_tree))
    engine = ReferenceMDST(graph, initial_tree=initial)
    result = engine.run(record_moves=True)

    # Recompute the cycle length of every swap by replaying the moves.
    index = TreeIndex(graph, initial)
    cycle_lengths: List[int] = []
    level_of_swap: List[int] = []
    for move in result.moves:
        u, v = move.add
        path = index.cycle_path(u, v)
        cycle_lengths.append(len(path) + 1)
        level_of_swap.append(index.tree_degree())
        index.apply(move)

    serialized = sum(2 * length for length in cycle_lengths)
    # Concurrent model: swaps performed while the tree degree is at the same
    # level run in parallel; the level costs its most expensive swap.
    concurrent = 0
    by_level: dict[int, int] = {}
    for level, length in zip(level_of_swap, cycle_lengths):
        by_level[level] = max(by_level.get(level, 0), 2 * length)
    concurrent = sum(by_level.values())

    return SerializationCostModel(
        final_degree=result.final_degree,
        swaps=result.swaps,
        swap_cycle_lengths=cycle_lengths,
        serialized_rounds=serialized,
        concurrent_rounds=concurrent,
    )
