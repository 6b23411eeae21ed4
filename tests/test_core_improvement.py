"""Tests for repro.core.improvement (Eq. 1, blocking nodes, chain planning)."""

from __future__ import annotations

import hashlib
import random

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.exceptions import NotASpanningTreeError
from repro.graphs import (
    bfs_spanning_tree,
    dfs_spanning_tree,
    is_spanning_tree,
    make_graph,
    random_spanning_tree,
    tree_degree,
)
from repro.core.improvement import (
    Move,
    TreeIndex,
    apply_moves,
    blocking_nodes,
    find_fr_swap,
    fr_witness_holds,
    is_improving_edge,
    plan_improvement,
)
from repro.baselines import exact_mdst_degree
from repro.core import build_mdst_network, initialize_from_tree
from repro.core.legitimacy import reduction_finished


class TestTreeIndex:
    def test_rejects_non_spanning_edge_sets(self, wheel8):
        with pytest.raises(NotASpanningTreeError):
            TreeIndex(wheel8, list(bfs_spanning_tree(wheel8))[:-1])

    def test_degrees_match_definition(self, wheel8):
        tree = bfs_spanning_tree(wheel8)
        index = TreeIndex(wheel8, tree)
        assert index.tree_degree() == tree_degree(wheel8.nodes, tree)
        assert index.degree[0] == 7  # the hub

    def test_cycle_path_endpoints(self, small_dense):
        tree = bfs_spanning_tree(small_dense)
        index = TreeIndex(small_dense, tree)
        u, v = index.non_tree_edges()[0]
        path = index.cycle_path(u, v)
        assert path[0] == u and path[-1] == v

    def test_apply_swap_updates_degrees(self, wheel8):
        tree = bfs_spanning_tree(wheel8)
        index = TreeIndex(wheel8, tree)
        u, v = index.non_tree_edges()[0]
        path = index.cycle_path(u, v)
        w = max(path, key=lambda x: index.degree[x])
        pos = path.index(w)
        z = path[pos - 1] if pos > 0 else path[pos + 1]
        before = index.degree[w]
        index.apply(Move(add=(u, v), remove=tuple(sorted((w, z))), target=w))
        assert index.degree[w] == before - 1
        assert is_spanning_tree(wheel8, index.tree_edges)

    def test_apply_rejects_bad_moves(self, wheel8):
        index = TreeIndex(wheel8, bfs_spanning_tree(wheel8))
        non_tree = index.non_tree_edges()[0]
        tree_edge = next(iter(index.tree_edges))
        with pytest.raises(NotASpanningTreeError):
            index.apply(Move(add=non_tree, remove=non_tree, target=0))
        with pytest.raises(NotASpanningTreeError):
            index.apply(Move(add=tree_edge, remove=tree_edge, target=0))

    def test_copy_is_independent(self, wheel8):
        index = TreeIndex(wheel8, bfs_spanning_tree(wheel8))
        clone = index.copy()
        u, v = index.non_tree_edges()[0]
        path = index.cycle_path(u, v)
        w = max(path, key=lambda x: index.degree[x])
        pos = path.index(w)
        z = path[pos - 1] if pos > 0 else path[pos + 1]
        clone.apply(Move(add=(u, v), remove=tuple(sorted((w, z))), target=w))
        assert index.tree_edges != clone.tree_edges


class TestEq1Predicates:
    def test_improving_edge_on_wheel_star_tree(self, wheel8):
        # the BFS tree of a wheel is the star centred at the hub: every rim
        # edge is improving (the hub has degree 7, rim nodes degree 1).
        index = TreeIndex(wheel8, bfs_spanning_tree(wheel8))
        rim_edge = index.non_tree_edges()[0]
        assert is_improving_edge(index, rim_edge)

    def test_tree_edge_is_never_improving(self, wheel8):
        index = TreeIndex(wheel8, bfs_spanning_tree(wheel8))
        assert not is_improving_edge(index, next(iter(index.tree_edges)))

    def test_no_improving_edge_on_path_tree(self):
        g = make_graph("complete", 6)
        path_tree = dfs_spanning_tree(g)  # a Hamiltonian path, degree 2
        index = TreeIndex(g, path_tree)
        assert not any(is_improving_edge(index, e) for e in index.non_tree_edges())

    def test_blocking_nodes_identified(self):
        # two_hub: hubs 0 and 1 both have degree leaf_count+1 in the graph;
        # in the BFS tree one hub has maximum degree, the other degree 1.
        g = make_graph("two_hub", 7)
        index = TreeIndex(g, bfs_spanning_tree(g))
        k = index.tree_degree()
        for edge in index.non_tree_edges():
            blockers = blocking_nodes(index, edge)
            for b in blockers:
                assert index.degree[b] == k - 1


class TestPlanning:
    @pytest.mark.parametrize("family,n", [("wheel", 8), ("complete", 7),
                                          ("two_hub", 8), ("hard_hub", 9),
                                          ("erdos_renyi_dense", 9)])
    def test_plan_respects_spanning_tree_invariant(self, family, n):
        g = make_graph(family, n, seed=2)
        tree = bfs_spanning_tree(g)
        plan = plan_improvement(g, tree)
        if plan is None:
            return
        new_tree = apply_moves(g, tree, plan)
        assert is_spanning_tree(g, new_tree)

    def test_plan_last_move_reduces_a_max_degree_node(self, wheel8):
        tree = bfs_spanning_tree(wheel8)
        plan = plan_improvement(wheel8, tree)
        assert plan is not None
        assert plan[-1].kind in ("improve", "deblock")
        new_tree = apply_moves(wheel8, tree, plan)
        assert tree_degree(wheel8.nodes, new_tree) <= tree_degree(wheel8.nodes, tree)

    def test_no_plan_on_star_graph(self):
        g = make_graph("star", 7)  # the star is its own unique spanning tree
        tree = bfs_spanning_tree(g)
        assert plan_improvement(g, tree) is None

    def test_no_plan_when_degree_two(self):
        g = make_graph("cycle", 8)
        assert plan_improvement(g, bfs_spanning_tree(g)) is None

    def test_fixpoint_of_planner_is_within_one_of_optimal(self):
        """Iterating the planner to a fixpoint yields deg <= Δ* + 1 (Theorem 2)."""
        for family, n, seed in [("wheel", 9, 0), ("two_hub", 8, 0),
                                ("erdos_renyi_dense", 9, 3), ("lollipop", 8, 0),
                                ("hard_hub", 9, 0), ("ring_with_chords", 9, 1)]:
            g = make_graph(family, n, seed=seed)
            tree = bfs_spanning_tree(g)
            for _ in range(200):
                plan = plan_improvement(g, tree)
                if plan is None:
                    break
                tree = apply_moves(g, tree, plan)
            assert plan_improvement(g, tree) is None
            optimal = exact_mdst_degree(g)
            assert tree_degree(g.nodes, tree) <= optimal + 1, (family, n, seed)

    def test_iterated_chains_on_two_hub_reach_optimum(self):
        """Iterating chains on the two-hub graph balances the hubs exactly."""
        g = make_graph("two_hub", 9)  # 7 leaves: Δ* = 7 // 2 + 1 = 4
        tree = bfs_spanning_tree(g)
        chains = []
        for _ in range(50):
            plan = plan_improvement(g, tree)
            if plan is None:
                break
            chains.append(plan)
            tree = apply_moves(g, tree, plan)
        assert chains
        assert all(m.kind in ("improve", "deblock") for c in chains for m in c)
        assert tree_degree(g.nodes, tree) <= exact_mdst_degree(g) + 1

    def test_deblock_chain_appears_when_endpoint_is_blocking(self):
        """Craft a tree where the only cycle through the max-degree node has a
        blocking endpoint, forcing the planner to emit a deblock move."""
        g = nx.Graph()
        # hub 0 with four spokes; spoke 1 also attached to a path that closes
        # a cycle back to spoke 2 through node 5.
        g.add_edges_from([(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (5, 6), (6, 2),
                          (1, 7), (7, 2)])
        tree = {(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (5, 6), (1, 7)}
        assert is_spanning_tree(g, tree)
        plans = []
        for _ in range(20):
            plan = plan_improvement(g, tree)
            if plan is None:
                break
            plans.append(plan)
            tree = apply_moves(g, tree, plan)
        assert plans
        assert tree_degree(g.nodes, tree) <= exact_mdst_degree(g) + 1


# ---------------------------------------------------------------------------
# Golden plan corpus
# ---------------------------------------------------------------------------

#: Trees on ``erdos_renyi_sparse`` n=16 (graph seed = key) where the
#: synchronous cold start (``perfbench`` workload ``mdst-cold-sync-n16``)
#: ends: the planner finds no chain in each only because its search
#: exhausted the default budget of ``max_plan_nodes=2000``.  The
#: Fürer–Raghavachari witness holds on each, which is what the legitimacy
#: monitor checks.
BUDGET_BOUND_TREES = {
    0: [(0, 11), (1, 5), (1, 14), (2, 4), (2, 7), (2, 15), (3, 8), (4, 13),
        (5, 10), (6, 10), (6, 12), (7, 9), (8, 12), (11, 13), (14, 15)],
    1: [(0, 6), (0, 7), (1, 12), (1, 13), (2, 10), (2, 14), (3, 11), (4, 5),
        (4, 13), (5, 8), (7, 15), (8, 9), (9, 15), (10, 12), (11, 13)],
    2: [(0, 6), (0, 11), (1, 9), (1, 14), (2, 3), (2, 13), (3, 10), (4, 13),
        (5, 6), (5, 8), (7, 14), (9, 12), (10, 15), (11, 12), (12, 15)],
    3: [(0, 5), (1, 4), (1, 13), (2, 13), (3, 9), (3, 15), (4, 9), (5, 11),
        (6, 8), (7, 14), (7, 15), (8, 10), (8, 12), (10, 11), (12, 14)],
}

#: md5 of every plan of :func:`_golden_plans`, recorded before the planner's
#: tree index gained its caches; any change to the search order or the
#: budget accounting changes it.
GOLDEN_PLAN_DIGEST = "2c454f2624d026aca75aa17245dd87d0"


def _kruskal_tree(graph, seed):
    """Minimum spanning tree under seeded random edge weights."""
    rng = random.Random(seed)
    weighted = nx.Graph()
    for u, v in sorted(tuple(sorted(e)) for e in graph.edges):
        weighted.add_edge(u, v, weight=rng.random())
    return {tuple(sorted(e)) for e in
            nx.minimum_spanning_edges(weighted, algorithm="kruskal", data=False)}


def _golden_states():
    """``(graph, tree, plan)`` for every tree met while iterating the planner
    to a fixpoint from seeded Kruskal trees, then for the budget-bound
    trees."""
    for family in ("erdos_renyi_sparse", "wheel", "random_geometric"):
        for n in range(8, 21, 2):
            for graph_seed in range(2):
                g = make_graph(family, n, seed=graph_seed)
                for tree_seed in range(2):
                    tree = _kruskal_tree(g, tree_seed)
                    for _ in range(40):
                        plan = plan_improvement(g, tree)
                        yield g, tree, plan
                        if plan is None:
                            break
                        tree = apply_moves(g, tree, plan)
    for seed, tree in BUDGET_BOUND_TREES.items():
        g = make_graph("erdos_renyi_sparse", 16, seed=seed)
        yield g, tree, plan_improvement(g, tree)


def test_golden_plan_corpus_is_unchanged():
    digest = hashlib.md5()
    for _, _, plan in _golden_states():
        moves = None if plan is None else [(m.add, m.remove, m.target, m.kind)
                                           for m in plan]
        digest.update(repr(moves).encode())
    assert digest.hexdigest() == GOLDEN_PLAN_DIGEST


def test_planner_and_fr_witness_agree_on_golden_corpus():
    """The legitimacy monitor judges trees by the Fürer–Raghavachari
    marking and the reference engine stops on the planner's ``None``; on
    every corpus state the two verdicts coincide."""
    states = 0
    for g, tree, plan in _golden_states():
        assert (plan is None) == fr_witness_holds(TreeIndex(g, tree)), sorted(tree)
        states += 1
    assert states == 342


def test_planner_and_fr_witness_agree_at_high_degree_fixpoints():
    """The golden corpus only reaches fixpoints of degree <= 3.  These
    families reach degree 4 and more, where a degree-``k - 1`` node can sit
    on a cycle that improves no maximum-degree node: FR's simple witness
    then fails at a planner fixpoint, and only the marking agrees."""
    high_degree = simple_witness_fails = 0
    for family in ("spider", "two_hub", "barabasi_albert"):
        for n in range(8, 21, 2):
            for graph_seed in range(2):
                g = make_graph(family, n, seed=graph_seed)
                for tree_seed in range(3):
                    tree = _kruskal_tree(g, tree_seed)
                    while True:
                        # a budget no n <= 20 search here runs out of
                        plan = plan_improvement(g, tree, max_plan_nodes=10**6)
                        index = TreeIndex(g, tree)
                        assert (plan is None) == fr_witness_holds(index), \
                            (family, n, graph_seed, sorted(tree))
                        if plan is None:
                            break
                        tree = apply_moves(g, tree, plan)
                    high_degree += index.tree_degree() >= 4
                    simple_witness_fails += find_fr_swap(index) is not None
    assert high_degree >= 50
    assert simple_witness_fails >= 2


def test_fr_witness_accepts_a_deblock_that_improves_nothing():
    """Node 0 is a cut vertex with 4 blocks, so the BFS tree (degree 4) is
    optimal.  Node 1 has degree 3 = k - 1 and lies on the cycle of (5, 6),
    which contains no degree-4 node: the baseline may deblock it, but no
    chain reduces node 0."""
    g = nx.Graph([(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (5, 6)])
    index = TreeIndex(g, bfs_spanning_tree(g))
    assert index.tree_degree() == exact_mdst_degree(g) == 4
    assert plan_improvement(g, index.tree_edges) is None
    assert find_fr_swap(index)[2] == "deblock"
    assert fr_witness_holds(index)


@pytest.mark.parametrize("budget", [2000, 16000])
def test_fixpoint_verdict_can_come_from_an_exhausted_budget(budget):
    """The planner is a bounded search: this tree is one improvement away
    from optimal (degree 3, Δ* = 2), yet no chain is found within the
    budget, so ``None`` means "no chain found", not "no chain exists"."""
    g = make_graph("erdos_renyi_sparse", 16, seed=3)
    tree = BUDGET_BOUND_TREES[3]
    assert plan_improvement(g, tree, max_plan_nodes=budget) is None
    assert tree_degree(g.nodes, tree) == 3
    assert exact_mdst_degree(g) == 2


@pytest.mark.parametrize("seed", sorted(BUDGET_BOUND_TREES))
def test_budget_bound_trees_are_certified_by_the_fr_witness(seed):
    """Where the planner's exhausted search proves nothing, the witness
    certifies the bound: degree 3 with Δ* = 2, so the monitor accepts."""
    g = make_graph("erdos_renyi_sparse", 16, seed=seed)
    tree = BUDGET_BOUND_TREES[seed]
    net = build_mdst_network(g)
    initialize_from_tree(net, tree)
    assert reduction_finished(net)
    assert tree_degree(g.nodes, tree) == 3
    assert exact_mdst_degree(g) == 2


# ---------------------------------------------------------------------------
# Cached tree structure under swaps and copies
# ---------------------------------------------------------------------------

@st.composite
def swap_scripts(draw):
    """A connected graph, a spanning tree and a script of copies and swaps.

    A swap ``(i, e, r)`` adds the ``e``-th non-tree edge of index ``i`` and
    removes the ``r``-th edge of its cycle (both taken modulo the choices);
    a copy ``(i,)`` clones index ``i``.
    """
    n = draw(st.integers(4, 10))
    g = nx.gnp_random_graph(n, draw(st.floats(0.3, 0.9)),
                            seed=draw(st.integers(0, 2**16)))
    for v in range(1, n):  # a spine keeps the graph connected
        g.add_edge(v - 1, v)
    tree = random_spanning_tree(g, seed=draw(st.integers(0, 2**16)))
    script = draw(st.lists(st.one_of(
        st.tuples(st.integers(0, 7)),
        st.tuples(st.integers(0, 7), st.integers(0, 99), st.integers(0, 99))),
        max_size=12))
    return g, tree, script


def _check_index(g, index, expected_tree):
    assert index.tree_edges == expected_tree
    graph_edges = {tuple(sorted(e)) for e in g.edges}
    non_tree = index.non_tree_edges()
    assert isinstance(non_tree, tuple)
    assert non_tree == tuple(sorted(graph_edges - expected_tree))
    t = nx.Graph(list(expected_tree))
    for u in g.nodes:
        for v in g.nodes:
            assert index.cycle_path(u, v) == nx.shortest_path(t, u, v)
    for w in g.nodes:
        brute = tuple(e for e in non_tree if w in nx.shortest_path(t, *e)[1:-1])
        assert index.edges_through(w) == brute


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(swap_scripts())
def test_cached_structure_tracks_swaps_on_index_and_copies(case):
    g, tree, script = case
    indexes = [TreeIndex(g, tree)]
    expected = [set(tree)]
    _check_index(g, indexes[0], expected[0])
    for step in script:
        i = step[0] % len(indexes)
        index = indexes[i]
        if len(step) == 1:
            indexes.append(index.copy())
            expected.append(set(expected[i]))
        else:
            non_tree = index.non_tree_edges()
            if not non_tree:
                continue
            add = non_tree[step[1] % len(non_tree)]
            path = index.cycle_path(*add)
            r = step[2] % (len(path) - 1)
            remove = tuple(sorted(path[r:r + 2]))
            index.apply(Move(add=add, remove=remove, target=path[r]))
            expected[i] = expected[i] - {remove} | {add}
        for idx, edges in zip(indexes, expected):
            _check_index(g, idx, edges)
