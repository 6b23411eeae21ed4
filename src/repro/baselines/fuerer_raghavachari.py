"""Sequential Fürer–Raghavachari Δ*+1 approximation (references [8, 9]).

The algorithm this paper distributes: starting from an arbitrary spanning
tree ``T``, repeat

1. let ``Δ = deg(T)``; mark every vertex of degree ``Δ`` or ``Δ - 1`` as
   *bad* and remove the bad vertices from ``T``, leaving a forest ``F``;
2. if some non-tree edge ``{u, v}`` joins two different components of ``F``,
   its fundamental cycle contains a bad vertex ``w``; swap ``{u, v}`` with a
   cycle edge incident to ``w`` (reducing ``deg(w)`` by one) and go to 1;
3. otherwise stop: by Theorem 1 of the paper, ``deg(T) <= Δ* + 1``.

Swaps that reduce a degree-``Δ`` vertex are preferred over swaps that reduce
a degree-``Δ-1`` vertex (the latter are the "deblocking" swaps).  The loop is
bounded by an iteration budget and a repeated-state guard; neither triggers
on the experiment suite, they exist so that a hypothetical pathological input
fails loudly instead of hanging.

Steps 1-2 are :func:`repro.core.improvement.find_fr_swap`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional

import networkx as nx

from ..exceptions import ConvergenceError
from ..graphs.spanning import bfs_spanning_tree
from ..graphs.validation import check_spanning_tree
from ..types import Edge, canonical_edges
from ..core.improvement import Move, TreeIndex, find_fr_swap

__all__ = ["FRResult", "fuerer_raghavachari"]


@dataclass
class FRResult:
    """Outcome of the sequential Fürer–Raghavachari algorithm."""

    tree_edges: set[Edge]
    initial_degree: int
    final_degree: int
    swaps: int
    improvement_swaps: int
    deblock_swaps: int
    degree_history: List[int] = field(default_factory=list)


def fuerer_raghavachari(graph: nx.Graph, initial_tree: Optional[Iterable[Edge]] = None,
                        max_swaps: int = 200_000) -> FRResult:
    """Run the sequential Fürer–Raghavachari algorithm on ``graph``.

    Parameters
    ----------
    initial_tree:
        Starting spanning tree (defaults to the BFS tree rooted at the
        smallest identifier).
    max_swaps:
        Safety bound on the total number of swaps.
    """
    if initial_tree is None:
        initial_tree = bfs_spanning_tree(graph)
    tree = set(canonical_edges(initial_tree))
    check_spanning_tree(graph, tree)
    index = TreeIndex(graph, tree)
    initial_degree = index.tree_degree()
    history = [initial_degree]
    swaps = 0
    improvement_swaps = 0
    deblock_swaps = 0
    seen: set[frozenset[Edge]] = {frozenset(index.tree_edges)}
    while True:
        found = find_fr_swap(index)
        if found is None:
            break
        add, remove, kind = found
        index.apply(Move(add=add, remove=remove, target=-1, kind=kind))
        swaps += 1
        if kind == "improve":
            improvement_swaps += 1
        else:
            deblock_swaps += 1
        if swaps > max_swaps:
            raise ConvergenceError(f"Fürer–Raghavachari exceeded {max_swaps} swaps")
        fingerprint = frozenset(index.tree_edges)
        if fingerprint in seen:
            break  # repeated state: stop instead of cycling
        seen.add(fingerprint)
        history.append(index.tree_degree())
    final_edges = set(index.tree_edges)
    check_spanning_tree(graph, final_edges)
    return FRResult(
        tree_edges=final_edges,
        initial_degree=initial_degree,
        final_degree=index.tree_degree(),
        swaps=swaps,
        improvement_swaps=improvement_swaps,
        deblock_swaps=deblock_swaps,
        degree_history=history,
    )
