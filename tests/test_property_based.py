"""Property-based tests (hypothesis) on the core invariants.

Strategies generate random connected graphs and random spanning trees; the
properties check the structural invariants the whole system rests on:

* every generated graph is simple and connected, every spanning-tree helper
  returns a valid spanning tree;
* fundamental cycles are consistent with their defining non-tree edge;
* an edge swap along a fundamental cycle always yields a spanning tree;
* the improvement-chain planner preserves the spanning-tree property and the
  monotonicity of the maximum degree;
* the reference engine's fixpoint satisfies the Δ*+1 guarantee on instances
  small enough for the exact solver;
* Fürer–Raghavachari's theorem: a tree carrying their witness (the
  legitimacy monitor's condition 3) has degree at most Δ*+1, and the
  witness holds exactly at the fixpoints of the chain planner;
* message size estimation is monotone in the path length (O(n log n) claim).
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.baselines import exact_mdst_degree, fuerer_raghavachari
from repro.core import ReferenceMDST
from repro.core.improvement import (
    TreeIndex,
    apply_moves,
    fr_witness_holds,
    plan_improvement,
)
from repro.core.messages import Search
from repro.graphs import (
    bfs_spanning_tree,
    fundamental_cycle,
    is_spanning_tree,
    non_tree_edges,
    random_spanning_tree,
    swap_edges,
    tree_degree,
    tree_degrees,
)

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def connected_graphs(draw, min_nodes=4, max_nodes=12, max_extra=None):
    """Random connected simple graph: random tree + random extra edges
    (at most ``max_extra``, default ``2 n``)."""
    n = draw(st.integers(min_nodes, max_nodes))
    # random tree via random parent for each node (Prüfer-like, always a tree)
    parents = [draw(st.integers(0, i - 1)) if i > 0 else 0 for i in range(n)]
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for i in range(1, n):
        g.add_edge(i, parents[i])
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=2 * n if max_extra is None else max_extra))
    for u, v in extra:
        if u != v:
            g.add_edge(u, v)
    return g


@SETTINGS
@given(connected_graphs())
def test_generated_graphs_are_connected_and_simple(g):
    assert nx.is_connected(g)
    assert not any(u == v for u, v in g.edges)


@SETTINGS
@given(connected_graphs(), st.integers(0, 2**31 - 1))
def test_spanning_tree_helpers_return_valid_trees(g, seed):
    for edges in (bfs_spanning_tree(g), random_spanning_tree(g, seed=seed)):
        assert is_spanning_tree(g, edges)
        degrees = tree_degrees(g.nodes, edges)
        assert sum(degrees.values()) == 2 * (g.number_of_nodes() - 1)
        assert tree_degree(g.nodes, edges) == max(degrees.values())


@SETTINGS
@given(connected_graphs())
def test_fundamental_cycles_and_swaps(g):
    tree = bfs_spanning_tree(g)
    for e in sorted(non_tree_edges(g, tree))[:4]:
        cycle = fundamental_cycle(tree, e)
        assert cycle[0] == e[0] and cycle[-1] == e[1]
        assert len(set(cycle)) == len(cycle) >= 2
        remove = tuple(sorted((cycle[0], cycle[1])))
        new_tree = swap_edges(tree, add=e, remove=remove)
        assert is_spanning_tree(g, new_tree)


@SETTINGS
@given(connected_graphs())
def test_improvement_chains_preserve_tree_and_never_increase_degree(g):
    tree = bfs_spanning_tree(g)
    before = tree_degree(g.nodes, tree)
    plan = plan_improvement(g, tree)
    if plan is None:
        return
    new_tree = apply_moves(g, tree, plan)
    assert is_spanning_tree(g, new_tree)
    after = tree_degree(g.nodes, new_tree)
    assert after <= before
    # no node may exceed the previous maximum degree as a side effect
    assert max(tree_degrees(g.nodes, new_tree).values()) <= before


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(connected_graphs(min_nodes=4, max_nodes=9))
def test_reference_engine_fixpoint_is_within_one_of_optimal(g):
    result = ReferenceMDST(g).run()
    assert is_spanning_tree(g, result.tree_edges)
    optimal = exact_mdst_degree(g)
    assert optimal <= result.final_degree <= optimal + 1
    assert plan_improvement(g, result.tree_edges) is None


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(connected_graphs(min_nodes=4, max_nodes=9), st.integers(0, 2**31 - 1))
def test_fr_witness_certifies_within_one_of_optimal(g, seed):
    """Checked on a random spanning tree and on the FR fixpoint reached from
    it, against the exact solver."""
    tree = random_spanning_tree(g, seed=seed)
    optimal = exact_mdst_degree(g)
    for edges in (tree, fuerer_raghavachari(g, tree).tree_edges):
        if fr_witness_holds(TreeIndex(g, edges)):
            assert tree_degree(g.nodes, edges) <= optimal + 1


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(connected_graphs(min_nodes=4, max_nodes=9, max_extra=4),
       st.integers(0, 2**31 - 1))
def test_fr_witness_holds_exactly_at_planner_fixpoints(g, seed):
    """Every tree met while iterating the planner from a random tree: the
    witness holds iff no chain is found.  The budget is too large to run out
    at n <= 9, and few extra edges leave cut vertices, so fixpoints of
    degree >= 4 occur."""
    tree = random_spanning_tree(g, seed=seed)
    while True:
        plan = plan_improvement(g, tree, max_plan_nodes=10**6)
        assert fr_witness_holds(TreeIndex(g, tree)) == (plan is None)
        if plan is None:
            break
        tree = apply_moves(g, tree, plan)


@SETTINGS
@given(st.integers(2, 200), st.integers(2, 64))
def test_search_message_size_is_o_n_log_n(path_len, n_bits_base):
    n = max(path_len + 1, n_bits_base)
    msg = Search(init_edge=(1, 0), idblock=None,
                 path=tuple((i, 2) for i in range(path_len)),
                 visited=tuple(range(path_len)))
    bits = msg.size_bits(n)
    from repro.analysis import message_bound_bits
    assert bits <= message_bound_bits(n)


@SETTINGS
@given(connected_graphs())
def test_tree_index_degree_bookkeeping_consistent(g):
    tree = bfs_spanning_tree(g)
    index = TreeIndex(g, tree)
    recomputed = tree_degrees(g.nodes, index.tree_edges)
    assert index.degree == recomputed
    plan = plan_improvement(g, tree)
    if plan:
        for move in plan:
            index.apply(move)
        assert index.degree == tree_degrees(g.nodes, index.tree_edges)
