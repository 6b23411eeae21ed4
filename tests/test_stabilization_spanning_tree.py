"""Tests for the standalone self-stabilizing spanning-tree module (§3.2.1)."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.graphs import make_graph
from repro.sim import (
    Network,
    RandomAsyncScheduler,
    Simulator,
    SynchronousScheduler,
    corrupt_everything,
)
from repro.stabilization import (
    SpanningTreeProcess,
    spanning_tree_process_factory,
)
from repro.stabilization.predicates import (
    extract_parent_map,
    parent_map_is_spanning_tree,
    tree_coherent,
)


def build(graph, n_upper=None):
    n_upper = n_upper or graph.number_of_nodes() + 1
    return Network(graph, spanning_tree_process_factory(n_upper=n_upper))


def run_to_convergence(net, scheduler=None, max_rounds=400):
    sim = Simulator(net, scheduler=scheduler or SynchronousScheduler(),
                    legitimacy=tree_coherent, stability_window=3)
    return sim.run(max_rounds=max_rounds)


class TestLocalPredicates:
    def test_initial_state_is_own_root(self):
        proc = SpanningTreeProcess(4, [1, 2], n_upper=8)
        assert proc.s.root == 4 and proc.s.parent == 4 and proc.s.distance == 0
        assert proc._coherent_parent() and proc._coherent_distance()
        assert not proc._better_parent()

    def test_better_parent_after_hearing_smaller_root(self):
        proc = SpanningTreeProcess(4, [1, 2], n_upper=8)
        proc.on_message(1, __import__("repro.stabilization.spanning_tree",
                                      fromlist=["STInfo"]).STInfo(root=0, parent=1, distance=2))
        assert proc.s.root == 0
        assert proc.s.parent == 1
        assert proc.s.distance == 3

    def test_distance_bound_forces_reset(self):
        proc = SpanningTreeProcess(4, [1], n_upper=5)
        proc.s.distance = 10
        assert proc._new_root_candidate()
        proc._apply_tree_rules()
        assert proc.s.distance == 0 and proc.s.root == 4

    def test_garbage_messages_are_ignored(self):
        from repro.sim import GarbageMessage
        proc = SpanningTreeProcess(4, [1], n_upper=8)
        before = proc.snapshot()
        proc.on_message(1, GarbageMessage())
        assert proc.snapshot() == before

    def test_state_bits_scale_with_degree(self):
        small = SpanningTreeProcess(0, [1], n_upper=8).state_bits(8)
        large = SpanningTreeProcess(0, list(range(1, 9)), n_upper=8).state_bits(8)
        assert large > small


class TestConvergence:
    @pytest.mark.parametrize("family,n", [("cycle", 8), ("grid", 9),
                                          ("erdos_renyi_dense", 10),
                                          ("random_geometric", 15)])
    def test_converges_from_clean_start(self, family, n):
        graph = make_graph(family, n, seed=1)
        net = build(graph)
        report = run_to_convergence(net)
        assert report.converged
        assert tree_coherent(net)

    def test_resulting_tree_rooted_at_min_id(self):
        graph = make_graph("random_geometric", 12, seed=3)
        net = build(graph)
        run_to_convergence(net)
        snaps = net.snapshots()
        assert all(s["root"] == 0 for s in snaps.values())
        assert snaps[0]["parent"] == 0 and snaps[0]["distance"] == 0

    def test_distances_are_bfs_distances(self):
        graph = make_graph("grid", 9, seed=0)
        net = build(graph)
        run_to_convergence(net)
        snaps = net.snapshots()
        sp = nx.single_source_shortest_path_length(graph, 0)
        for v, snap in snaps.items():
            assert snap["distance"] == sp[v]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_converges_from_corrupted_state(self, seed):
        graph = make_graph("erdos_renyi_sparse", 12, seed=seed)
        net = build(graph)
        corrupt_everything(net, np.random.default_rng(seed))
        report = run_to_convergence(net, max_rounds=800)
        assert report.converged
        assert parent_map_is_spanning_tree(net)

    def test_converges_under_random_scheduler(self):
        graph = make_graph("random_geometric", 12, seed=5)
        net = build(graph)
        corrupt_everything(net, np.random.default_rng(5))
        report = run_to_convergence(net, scheduler=RandomAsyncScheduler(seed=5),
                                    max_rounds=800)
        assert report.converged

    def test_closure_no_violations_after_convergence(self):
        graph = make_graph("cycle", 8)
        net = build(graph)
        sim = Simulator(net, legitimacy=tree_coherent, stability_window=3)
        report = sim.run(max_rounds=200, extra_rounds_after_convergence=20)
        assert report.converged
        assert report.closure_violations == []

    def test_fake_root_is_eventually_evicted(self):
        """A root identifier smaller than every real id must not survive."""
        graph = make_graph("cycle", 8)
        net = build(graph)
        # Manually install a fake root -5 at two nodes with a consistent shape.
        for v in (3, 4):
            proc = net.processes[v]
            proc.s.root = -5
            proc.s.parent = 3 if v == 4 else 4
            proc.s.distance = v
        report = run_to_convergence(net, max_rounds=600)
        assert report.converged
        assert all(s["root"] == 0 for s in net.snapshots().values())
