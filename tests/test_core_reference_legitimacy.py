"""Tests for the reference engine and the legitimacy predicates."""

from __future__ import annotations

import inspect
import sys

import networkx as nx
import pytest

from repro.baselines import exact_mdst_degree, fuerer_raghavachari
from repro.core import (
    ReferenceMDST,
    current_tree_degree,
    current_tree_edges,
    degree_layer_coherent,
    make_mdst_legitimacy,
    mdst_legitimacy,
    reduce_tree_degree,
    reduction_finished,
    tree_coherent,
)
from repro.graphs import (
    bfs_spanning_tree,
    is_spanning_tree,
    make_graph,
    random_spanning_tree,
    tree_degree,
)
from repro.protocols import ProtocolRunConfig, get_protocol, run_protocol
from repro.protocols.mdst import initialize_from_tree

MDST = get_protocol("mdst")


class TestReferenceEngine:
    @pytest.mark.parametrize("family,n,seed", [
        ("wheel", 10, 0), ("complete", 8, 0), ("two_hub", 9, 0),
        ("erdos_renyi_dense", 10, 1), ("lollipop", 9, 0),
        ("star_of_cliques", 12, 0), ("hard_hub", 10, 0),
        ("ring_with_chords", 10, 2), ("random_geometric", 12, 4),
    ])
    def test_final_degree_within_one_of_optimal(self, family, n, seed):
        g = make_graph(family, n, seed=seed)
        result = ReferenceMDST(g).run()
        assert is_spanning_tree(g, result.tree_edges)
        optimal = exact_mdst_degree(g)
        assert result.final_degree <= optimal + 1
        assert result.final_degree >= optimal

    def test_degree_history_non_increasing_overall(self, wheel8):
        result = ReferenceMDST(wheel8).run()
        assert result.degree_history[0] >= result.degree_history[-1]
        assert result.initial_degree == result.degree_history[0]
        assert result.final_degree == result.degree_history[-1]

    def test_star_graph_is_already_optimal(self):
        g = make_graph("star", 8)
        result = ReferenceMDST(g).run()
        assert result.swaps == 0
        assert result.final_degree == g.number_of_nodes() - 1

    def test_custom_initial_tree(self, small_dense):
        tree = random_spanning_tree(small_dense, seed=9)
        result = ReferenceMDST(small_dense, initial_tree=tree).run()
        assert result.initial_degree == tree_degree(small_dense.nodes, tree)
        assert result.final_degree <= result.initial_degree

    def test_record_moves(self, wheel8):
        result = ReferenceMDST(wheel8).run(record_moves=True)
        assert len(result.moves) == result.swaps
        assert result.swaps > 0

    def test_reduce_tree_degree_wrapper(self, wheel8):
        result = reduce_tree_degree(wheel8)
        assert result.final_degree <= exact_mdst_degree(wheel8) + 1

    def test_phases_counted(self, wheel8):
        result = ReferenceMDST(wheel8).run()
        # the wheel's BFS tree has degree 7 and the optimum is 2: at least
        # 7 - 3 = 4 strict degree decreases must have happened
        assert result.phases >= 4


class TestLegitimacyPredicates:
    def _coherent_network(self, graph, tree=None):
        net = MDST.build_network(graph, ProtocolRunConfig())
        initialize_from_tree(net, tree if tree is not None else bfs_spanning_tree(graph))
        return net

    def test_tree_coherent_after_initialization(self, small_dense):
        net = self._coherent_network(small_dense)
        assert tree_coherent(net)
        assert degree_layer_coherent(net)

    def test_current_tree_matches_installed_tree(self, small_dense):
        tree = bfs_spanning_tree(small_dense)
        net = self._coherent_network(small_dense, tree)
        assert current_tree_edges(net) == tree
        assert current_tree_degree(net) == tree_degree(small_dense.nodes, tree)

    def test_reduction_not_finished_on_star_tree_of_wheel(self, wheel8):
        net = self._coherent_network(wheel8)
        assert not reduction_finished(net)
        assert not mdst_legitimacy(net)

    def test_legitimacy_holds_on_optimal_tree(self):
        g = make_graph("complete", 7)
        optimal_tree = ReferenceMDST(g).run().tree_edges
        net = self._coherent_network(g, optimal_tree)
        assert mdst_legitimacy(net)

    def test_restricted_predicate_ignores_reduction(self, wheel8):
        net = self._coherent_network(wheel8)
        substrate_only = make_mdst_legitimacy(require_reduction=False)
        assert substrate_only(net)
        assert not make_mdst_legitimacy(require_reduction=True)(net)

    def test_legitimate_when_a_deblock_would_improve_nothing(self):
        """Regression: the BFS tree of this graph (degree 4 at the cut vertex
        0) is optimal, but node 1 of degree 3 lies on the cycle of (5, 6).
        The paper's rule makes no move, so the monitor must accept the tree,
        and a cold run must converge."""
        g = nx.Graph([(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (5, 6)])
        assert mdst_legitimacy(self._coherent_network(g))
        result = run_protocol(g, ProtocolRunConfig(protocol="mdst", max_rounds=2000))
        assert result.run.converged
        assert result.run.tree_degree == 4

    def test_predicate_does_not_recurse_per_chain_link(self):
        """Regression: condition 3 once ran the recursive chain planner,
        which needs more than 400 frames on this n=256 FR tree (and hit the
        default recursion limit at n=2048); the FR marking needs fewer than
        50."""
        g = make_graph("erdos_renyi_sparse", 256, seed=0)
        net = self._coherent_network(g, fuerer_raghavachari(g).tree_edges)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            assert mdst_legitimacy(net)
        finally:
            sys.setrecursionlimit(limit)

    def test_tree_rooted_away_from_the_minimum_id_is_not_coherent(self):
        """Regression: condition 1 requires the tree to be rooted at the
        minimum identifier.  On the path 0-1-2, a tree re-rooted at node 1
        whose nodes all still name 0 as root once passed it, although node
        1 is a new-root candidate (R2 fires on its next step)."""
        net = self._coherent_network(nx.path_graph(3))
        parent = {0: 1, 1: 1, 2: 1}
        distance = {0: 1, 1: 0, 2: 1}
        for v, proc in net.processes.items():
            proc.s.parent, proc.s.distance = parent[v], distance[v]
            for u, view in proc.s.view.items():
                view.parent, view.distance = parent[u], distance[u]
        net.note_state_write()
        assert all(snap["root"] == 0 for snap in net.snapshots().values())
        assert net.processes[1]._new_root_candidate()
        # Only condition 1 rejects it: the degree layer and the reduction
        # layer accept this tree.
        assert degree_layer_coherent(net) and reduction_finished(net)
        assert not tree_coherent(net)
        assert not mdst_legitimacy(net)

    def test_tree_coherent_fails_on_fresh_network(self, small_dense):
        net = MDST.build_network(small_dense, ProtocolRunConfig())
        # every node is its own root: no unique root, not a spanning tree
        assert not tree_coherent(net)
