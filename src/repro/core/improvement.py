"""Improvement logic: improving edges, blocking nodes, deblock chains.

This module captures, as *pure functions over a tree*, the improvement rule
at the heart of the paper (inherited from Fürer & Raghavachari):

* an **improving edge** ``e = {u, v}`` (non-tree) for a tree ``T`` of degree
  ``k`` is one whose fundamental cycle ``C_e`` contains a node ``w`` distinct
  from ``u`` and ``v`` with ``deg_T(w) = k`` and such that
  ``deg_T(w) >= max(deg_T(u), deg_T(v)) + 2``  (Eq. 1);
* a **blocking node** for ``C_e`` is an endpoint of ``e`` with degree
  ``k - 1``: adding ``e`` would promote it to degree ``k``;
* a blocking node ``w`` can be **deblocked** by first performing a swap that
  reduces ``deg_T(w)`` by one, using another non-tree edge whose fundamental
  cycle passes through ``w`` and whose endpoints are themselves of degree at
  most ``k - 2`` (or recursively deblockable).

:func:`plan_improvement` searches for a complete *chain* of swaps -- zero or
more deblocking swaps followed by one direct improvement of a maximum-degree
node -- simulating each swap while planning so the chain is consistent.  The
chain formulation guarantees progress: each executed chain strictly decreases
the number of maximum-degree nodes without ever creating a new one, which is
exactly the argument behind the paper's Lemmas 3-4.  The planner drives the
round-abstracted reference engine (:mod:`repro.core.reference`).

:func:`fr_witness_holds` is Fürer & Raghavachari's stopping test, with
their marking of degree-``k - 1`` nodes: it holds exactly when no chain of
swaps can reduce a maximum-degree node, and then certifies
``deg(T) <= Δ* + 1``.  It has no budget and is the legitimacy check of
:mod:`repro.core.legitimacy`.  :func:`find_fr_swap` is the swap search of
the sequential baseline :mod:`repro.baselines.fuerer_raghavachari`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import networkx as nx

from ..exceptions import GraphError, NotASpanningTreeError
from ..types import Edge, NodeId, canonical_edge, canonical_edges

__all__ = [
    "TreeIndex",
    "Move",
    "is_improving_edge",
    "blocking_nodes",
    "plan_improvement",
    "apply_moves",
    "find_fr_swap",
    "fr_witness_holds",
]


@dataclass(frozen=True)
class Move:
    """A single swap: insert ``add`` into the tree and delete ``remove``.

    ``target`` is the node whose degree the swap is meant to decrease (a
    maximum-degree node for a direct improvement, a blocking node for a
    deblocking swap); ``kind`` is ``"improve"`` or ``"deblock"``.
    """

    add: Edge
    remove: Edge
    target: NodeId
    kind: str = "improve"


class _TreeCache:
    """Structure derived from one tree state, computed lazily on first use.

    Every field is built once and never mutated afterwards, so index copies
    may share a cache until one of them changes its tree.
    """

    __slots__ = ("non_tree", "parent", "depth", "through")

    def __init__(self) -> None:
        self.non_tree: Optional[Tuple[Edge, ...]] = None
        self.parent: Optional[Dict[NodeId, Optional[NodeId]]] = None
        self.depth: Optional[Dict[NodeId, int]] = None
        self.through: Optional[Dict[NodeId, Tuple[Edge, ...]]] = None


class TreeIndex:
    """Mutable index of a spanning tree supporting cycle queries and swaps.

    The index keeps tree adjacency and degrees incrementally up to date so
    that the planning search (which simulates candidate swaps) stays cheap.
    Derived structure -- the sorted non-tree edges, the tree rooted at the
    smallest node, and the non-tree edges whose cycle crosses each node --
    is cached per tree state: :meth:`apply` is the only mutator and drops
    the cache, and :meth:`copy` shares it until the copy's first swap.
    """

    def __init__(self, graph: nx.Graph, tree_edges: Iterable[Edge]):
        self.graph = graph
        self.nodes: List[NodeId] = sorted(graph.nodes)
        self.tree_edges: set[Edge] = set(canonical_edges(tree_edges))
        if len(self.tree_edges) != len(self.nodes) - 1:
            raise NotASpanningTreeError(
                f"expected {len(self.nodes) - 1} tree edges, got {len(self.tree_edges)}")
        self.adj: Dict[NodeId, set[NodeId]] = {v: set() for v in self.nodes}
        for u, v in self.tree_edges:
            if not graph.has_edge(u, v):
                raise NotASpanningTreeError(f"tree edge {(u, v)} is not a graph edge")
            self.adj[u].add(v)
            self.adj[v].add(u)
        self.degree: Dict[NodeId, int] = {v: len(self.adj[v]) for v in self.nodes}
        self._graph_edges: Tuple[Edge, ...] = tuple(sorted(
            {canonical_edge(u, v) for u, v in graph.edges}))
        self._cache = _TreeCache()

    # -- queries -----------------------------------------------------------------

    def copy(self) -> "TreeIndex":
        """Cheap copy used by the planning search to simulate swaps."""
        clone = object.__new__(TreeIndex)
        clone.graph = self.graph
        clone.nodes = self.nodes
        clone.tree_edges = set(self.tree_edges)
        clone.adj = {v: set(nbrs) for v, nbrs in self.adj.items()}
        clone.degree = dict(self.degree)
        clone._graph_edges = self._graph_edges
        clone._cache = self._cache
        return clone

    def tree_degree(self) -> int:
        """Maximum node degree of the current tree."""
        return max(self.degree.values()) if self.degree else 0

    def max_degree_nodes(self) -> List[NodeId]:
        """Nodes whose tree degree equals the tree degree."""
        k = self.tree_degree()
        return [v for v in self.nodes if self.degree[v] == k]

    def non_tree_edges(self) -> Tuple[Edge, ...]:
        """Graph edges not currently in the tree, sorted canonically."""
        cache = self._cache
        if cache.non_tree is None:
            tree = self.tree_edges
            cache.non_tree = tuple(e for e in self._graph_edges if e not in tree)
        return cache.non_tree

    def cycle_path(self, u: NodeId, v: NodeId) -> List[NodeId]:
        """Tree path from ``u`` to ``v`` (the fundamental cycle of ``{u, v}``)."""
        parent, depth = self._rooted()
        up, down = [u], [v]
        while depth[u] > depth[v]:
            u = parent[u]
            up.append(u)
        while depth[v] > depth[u]:
            v = parent[v]
            down.append(v)
        while u != v:
            u, v = parent[u], parent[v]
            if u is None:
                raise NotASpanningTreeError(
                    f"nodes {up[0]} and {down[0]} are not tree-connected")
            up.append(u)
            down.append(v)
        down.pop()
        return up + down[::-1]

    def edges_through(self, w: NodeId) -> Tuple[Edge, ...]:
        """Non-tree edges whose fundamental cycle has ``w`` as an interior
        node, in :meth:`non_tree_edges` order."""
        cache = self._cache
        if cache.through is None:
            through: Dict[NodeId, List[Edge]] = {v: [] for v in self.nodes}
            for edge in self.non_tree_edges():
                for x in self.cycle_path(*edge)[1:-1]:
                    through[x].append(edge)
            cache.through = {v: tuple(edges) for v, edges in through.items()}
        return cache.through[w]

    def _rooted(self) -> Tuple[Dict[NodeId, Optional[NodeId]], Dict[NodeId, int]]:
        """Parent and depth of every node, each component rooted at its
        smallest node (a root's parent is ``None``)."""
        cache = self._cache
        if cache.parent is None:
            parent: Dict[NodeId, Optional[NodeId]] = {}
            depth: Dict[NodeId, int] = {}
            for root in self.nodes:
                if root in parent:
                    continue
                parent[root] = None
                depth[root] = 0
                stack = [root]
                while stack:
                    x = stack.pop()
                    d = depth[x] + 1
                    for y in self.adj[x]:
                        if y not in depth:
                            parent[y] = x
                            depth[y] = d
                            stack.append(y)
            cache.parent, cache.depth = parent, depth
        return cache.parent, cache.depth

    # -- mutation ------------------------------------------------------------------

    def apply(self, move: Move) -> None:
        """Apply a swap, updating adjacency and degrees incrementally and
        dropping the derived-structure cache."""
        add = canonical_edge(*move.add)
        remove = canonical_edge(*move.remove)
        if remove not in self.tree_edges:
            raise NotASpanningTreeError(f"cannot remove non-tree edge {remove}")
        if add in self.tree_edges:
            raise NotASpanningTreeError(f"cannot add existing tree edge {add}")
        if not self.graph.has_edge(*add):
            raise GraphError(f"cannot add non-graph edge {add}")
        ru, rv = remove
        self.tree_edges.remove(remove)
        self.adj[ru].discard(rv)
        self.adj[rv].discard(ru)
        self.degree[ru] -= 1
        self.degree[rv] -= 1
        au, av = add
        self.tree_edges.add(add)
        self.adj[au].add(av)
        self.adj[av].add(au)
        self.degree[au] += 1
        self.degree[av] += 1
        self._cache = _TreeCache()


# ---------------------------------------------------------------------------
# Elementary predicates (Eq. 1, blocking nodes)
# ---------------------------------------------------------------------------

def is_improving_edge(index: TreeIndex, edge: Edge) -> bool:
    """Check Eq. 1: the fundamental cycle of ``edge`` contains a node ``w``
    (distinct from the endpoints) of maximum tree degree ``k`` with
    ``k >= max(deg(u), deg(v)) + 2``."""
    u, v = canonical_edge(*edge)
    if canonical_edge(u, v) in index.tree_edges:
        return False
    k = index.tree_degree()
    path = index.cycle_path(u, v)
    interior = [w for w in path if w not in (u, v)]
    if not any(index.degree[w] == k for w in interior):
        return False
    return k >= max(index.degree[u], index.degree[v]) + 2


def blocking_nodes(index: TreeIndex, edge: Edge) -> List[NodeId]:
    """Endpoints of ``edge`` that are blocking (degree ``k - 1``) for its cycle."""
    u, v = canonical_edge(*edge)
    k = index.tree_degree()
    return [x for x in (u, v) if index.degree[x] == k - 1]


# ---------------------------------------------------------------------------
# Chain planning
# ---------------------------------------------------------------------------

def _pick_cycle_edge_incident_to(index: TreeIndex, path: Sequence[NodeId],
                                 w: NodeId) -> Edge:
    """Tree edge of the cycle ``path`` incident to ``w`` (smallest neighbour id)."""
    pos = list(path).index(w)
    candidates = []
    if pos > 0:
        candidates.append(path[pos - 1])
    if pos < len(path) - 1:
        candidates.append(path[pos + 1])
    z = min(candidates)
    return canonical_edge(w, z)


def _plan_deblock(index: TreeIndex, w: NodeId, k: int,
                  stack: FrozenSet[NodeId], budget: List[int]) -> Optional[List[Move]]:
    """Plan a chain of swaps that reduces ``deg(w)`` by one.

    ``w`` currently has degree ``k - 1``.  We look for a non-tree edge whose
    fundamental cycle passes through ``w`` and whose endpoints either already
    have degree <= ``k - 2`` or can themselves be deblocked (recursively,
    with ``stack`` preventing cycles in the recursion).  All swaps are
    simulated on ``index`` by the caller via the returned chain.
    """
    if w in stack or budget[0] <= 0:
        return None
    budget[0] -= 1
    stack = stack | {w}
    for edge in index.edges_through(w):
        a, b = edge
        chain = _plan_endpoints(index, edge, k, stack, budget)
        if chain is None:
            continue
        # Simulate the sub-chain, then verify the deblocking swap is still valid.
        sim = index.copy()
        for move in chain:
            sim.apply(move)
        if sim.degree[w] != k - 1:
            # w's degree already changed as a side effect -- good enough.
            return chain
        if max(sim.degree[a], sim.degree[b]) > k - 2:
            continue
        path_now = sim.cycle_path(a, b)
        if w not in path_now:
            continue
        remove = _pick_cycle_edge_incident_to(sim, path_now, w)
        return chain + [Move(add=canonical_edge(a, b), remove=remove,
                             target=w, kind="deblock")]
    return None


def _plan_endpoints(index: TreeIndex, edge: Edge, k: int,
                    stack: FrozenSet[NodeId], budget: List[int]) -> Optional[List[Move]]:
    """Plan swaps making both endpoints of ``edge`` have degree <= ``k - 2``.

    Returns ``None`` when impossible, otherwise a (possibly empty) chain.
    """
    chain: List[Move] = []
    sim = index
    for x in canonical_edge(*edge):
        deg = sim.degree[x]
        if chain:
            # Recompute degree on a simulated copy including the chain so far.
            tmp = index.copy()
            for move in chain:
                tmp.apply(move)
            sim = tmp
            deg = sim.degree[x]
        if deg <= k - 2:
            continue
        if deg >= k:
            return None
        sub = _plan_deblock(sim, x, k, stack, budget)
        if sub is None:
            return None
        chain.extend(sub)
    return chain


def plan_improvement(graph: nx.Graph, tree_edges: Iterable[Edge],
                     max_plan_nodes: int = 2000) -> Optional[List[Move]]:
    """Find a chain of swaps ending in the improvement of a maximum-degree node.

    Returns ``None`` when no chain was found: either the tree is a fixpoint
    of the paper's improvement rule (no direct improvement and no deblock
    chain leading to one), or the search ran out of budget.  Legitimacy is
    judged by :func:`fr_witness_holds` instead, which has no budget.

    ``max_plan_nodes`` bounds the total recursion effort of the planning
    search: one unit per deblock attempt.  The bound *is* hit in practice.
    On the cold synchronous start of ``erdos_renyi_sparse`` n=16, graph
    seeds 0-3, 9 of the 48 planner calls exhaust the default budget, and the
    final ``None`` of every run comes from an exhausted search.  On graph
    seed 3 that tree has degree 3 while ``Δ* = 2``, and 16000 units still
    find no chain.  A ``None`` is therefore "no chain within budget", not a
    proof of a fixpoint.
    """
    index = TreeIndex(graph, tree_edges)
    k = index.tree_degree()
    if k <= 2:
        return None  # a path/star on <=3 nodes cannot be improved below degree 2
    budget = [max_plan_nodes]
    for edge in index.non_tree_edges():
        u, v = edge
        path = index.cycle_path(u, v)
        interior = [w for w in path if w not in (u, v)]
        if not any(index.degree[w] == k for w in interior):
            continue
        if max(index.degree[u], index.degree[v]) >= k:
            continue  # an endpoint already has maximum degree: never improvable
        chain = _plan_endpoints(index, edge, k, frozenset(), budget)
        if chain is None:
            continue
        sim = index.copy()
        for move in chain:
            sim.apply(move)
        if max(sim.degree[u], sim.degree[v]) > k - 2:
            continue
        path_now = sim.cycle_path(u, v)
        max_now = [w for w in path_now if w not in (u, v) and sim.degree[w] == k]
        if not max_now:
            # The chain already reduced every max-degree node on this cycle --
            # that is progress in itself; report the chain if non-empty.
            if chain:
                return chain
            continue
        w = min(max_now)
        remove = _pick_cycle_edge_incident_to(sim, path_now, w)
        return chain + [Move(add=canonical_edge(u, v), remove=remove,
                             target=w, kind="improve")]
    return None


def apply_moves(graph: nx.Graph, tree_edges: Iterable[Edge],
                moves: Sequence[Move]) -> set[Edge]:
    """Apply a chain of moves to a tree edge set and return the new edge set."""
    index = TreeIndex(graph, tree_edges)
    for move in moves:
        index.apply(move)
    return set(index.tree_edges)


# ---------------------------------------------------------------------------
# Fürer–Raghavachari swap search and stopping test
# ---------------------------------------------------------------------------

def _forest_components_without(index: TreeIndex, removed: set[NodeId]) -> Dict[NodeId, int]:
    """Component labels of the forest obtained by deleting ``removed`` nodes.

    Returns a mapping ``node -> component id`` for the surviving nodes.
    """
    label: Dict[NodeId, int] = {}
    current = 0
    for start in index.nodes:
        if start in removed or start in label:
            continue
        stack = [start]
        label[start] = current
        while stack:
            x = stack.pop()
            for y in index.adj[x]:
                if y in removed or y in label:
                    continue
                label[y] = current
                stack.append(y)
        current += 1
    return label


def find_fr_swap(index: TreeIndex) -> Optional[Tuple[Edge, Edge, str]]:
    """Find the next swap of the sequential Fürer–Raghavachari baseline,
    preferring direct improvements.

    Returns ``(add, remove, kind)`` with ``kind`` ``"improve"`` (reduces a
    degree-``k`` node) or ``"deblock"`` (reduces a degree-``k - 1`` node),
    or ``None`` when ``k <= 2`` or no non-tree edge joins two components of
    the tree minus its nodes of degree ``>= k - 1``.  A deblock swap need
    not lead to an improvement of a degree-``k`` node, so this search is
    not the fixpoint test of the paper's rule: that is
    :func:`fr_witness_holds`.
    """
    k = index.tree_degree()
    if k <= 2:
        return None
    bad = {v for v in index.nodes if index.degree[v] >= k - 1}
    components = _forest_components_without(index, bad)
    best: Optional[Tuple[Edge, Edge, str]] = None
    for edge in index.non_tree_edges():
        u, v = edge
        if u in bad or v in bad:
            continue
        if components.get(u) == components.get(v):
            continue
        path = index.cycle_path(u, v)
        witnesses = [w for w in path if w not in (u, v) and index.degree[w] >= k - 1]
        if not witnesses:
            continue
        max_witnesses = [w for w in witnesses if index.degree[w] == k]
        if max_witnesses:
            w = min(max_witnesses)
            return (edge, _pick_cycle_edge_incident_to(index, path, w), "improve")
        if best is None:
            w = min(witnesses)
            best = (edge, _pick_cycle_edge_incident_to(index, path, w), "deblock")
    return best


def fr_witness_holds(index: TreeIndex) -> bool:
    """``True`` iff no chain of swaps can reduce a maximum-degree node.

    Fürer & Raghavachari's marking, with ``k`` the tree degree: nodes of
    degree ``>= k - 1`` start *bad*.  A non-tree edge whose endpoints are
    good and lie in different components of the good forest closes a cycle
    through bad nodes.  If one of them has degree ``k``, a chain reduces it
    (its blocking nodes were marked good because each can be deblocked), so
    the answer is ``False``; otherwise every node of degree ``k - 1`` on the
    cycle can be deblocked by that edge and is marked good.  When no such
    edge is left, the remaining bad nodes are FR's witness: ``Δ* >= k - 1``,
    so ``deg(T) <= Δ* + 1``.  The marking is iterative, polynomial and has
    no budget.
    """
    k = index.tree_degree()
    if k <= 2:
        return True
    parent = {v: v for v in index.nodes}

    def find(x: NodeId) -> NodeId:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    bad = set(index.nodes)

    def mark_good(w: NodeId) -> None:
        bad.discard(w)
        for y in index.adj[w]:
            if y not in bad:
                parent[find(y)] = find(w)

    for v in index.nodes:
        if index.degree[v] < k - 1:
            mark_good(v)
    marked = True
    while marked:
        marked = False
        for u, v in index.non_tree_edges():
            if u in bad or v in bad or find(u) == find(v):
                continue
            blockers = [w for w in index.cycle_path(u, v) if w in bad]
            if any(index.degree[w] == k for w in blockers):
                return False
            for w in blockers:
                mark_good(w)
            marked = True
    return True
