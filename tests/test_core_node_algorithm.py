"""Unit tests of MDSTNode internals (layers, messages, state accounting)."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.core import MDSTNode
from repro.core.messages import Back, Deblock, MInfo, Remove, Search
from repro.core.state import MDSTState
from repro.graphs import bfs_spanning_tree, make_graph, tree_degree
from repro.protocols import ProtocolRunConfig, get_protocol
from repro.protocols.mdst import initialize_from_tree
from repro.sim import GarbageMessage, Simulator, SynchronousScheduler

MDST = get_protocol("mdst")


def make_node(node_id=1, neighbors=(0, 2, 3), n_upper=8, **kw):
    return MDSTNode(node_id, neighbors, n_upper=n_upper, **kw)


def info(root=0, parent=0, distance=0, degree=1, sub_max=1, dmax=1, color=True):
    return MInfo(root=root, parent=parent, distance=distance, degree=degree,
                 sub_max=sub_max, dmax=dmax, color=color)


class TestStateDerivation:
    def test_tree_edge_derived_from_parent_pointers(self):
        node = make_node()
        node.on_message(0, info(root=0, parent=0))
        node.s.parent = 0
        assert node.s.is_tree_edge(0)
        assert not node.s.is_tree_edge(2)
        # neighbour 2 claims this node as parent -> tree edge from the other side
        node.on_message(2, info(root=0, parent=1, distance=2))
        assert node.s.is_tree_edge(2)
        assert node.s.degree == 2

    def test_children_listed(self):
        node = make_node()
        node.on_message(2, info(root=0, parent=1, distance=2))
        node.on_message(3, info(root=0, parent=0, distance=1))
        assert node.s.children() == [2]

    def test_state_bits_scale_with_neighbourhood(self):
        small = make_node(neighbors=(0,)).state_bits(16)
        big = make_node(neighbors=tuple(range(10))[1:]).state_bits(16)
        assert big > small

    def test_corrupt_changes_state(self):
        node = make_node()
        before = dict(node.snapshot())
        rng = np.random.default_rng(0)
        changed = False
        for _ in range(10):
            node.corrupt(rng)
            if node.snapshot() != before:
                changed = True
                break
        assert changed

    def test_snapshot_fields(self):
        snap = make_node().snapshot()
        for key in ("root", "parent", "distance", "degree", "dmax", "color"):
            assert key in snap


class TestTreeLayer:
    def test_adopts_smaller_root(self):
        node = make_node(node_id=5, neighbors=(2, 7))
        node.on_message(2, info(root=0, parent=0, distance=3))
        assert node.s.root == 0
        assert node.s.parent == 2
        assert node.s.distance == 4

    def test_root_larger_than_own_id_triggers_reset(self):
        node = make_node(node_id=1, neighbors=(0, 2))
        node.s.root = 5
        node.s.parent = 2
        node._refresh()
        assert node.s.root == 1 and node.s.parent == 1

    def test_distance_bound_triggers_reset(self):
        node = make_node(node_id=3, neighbors=(2,), n_upper=4)
        node.s.root = 0
        node.s.parent = 2
        node.s.distance = 2
        node.on_message(2, info(root=0, parent=1, distance=10))
        # parent's advertised distance exceeds the bound: R3 then R2 fire
        assert node.s.distance < 4

    def test_garbage_is_ignored(self):
        node = make_node()
        before = node.snapshot()
        node.on_message(0, GarbageMessage())
        assert node.snapshot() == before


class TestDegreeLayer:
    def test_root_publishes_submax(self):
        node = make_node(node_id=0, neighbors=(1, 2))
        node.on_message(1, info(root=0, parent=0, distance=1, degree=3, sub_max=5))
        node.on_message(2, info(root=0, parent=0, distance=1, degree=1, sub_max=1))
        node._refresh()
        assert node.s.sub_max == 5
        assert node.s.dmax == 5  # node 0 is its own root here

    def test_non_root_copies_parent_dmax(self):
        node = make_node(node_id=4, neighbors=(1, 5))
        node.on_message(1, info(root=0, parent=0, distance=1, dmax=6))
        assert node.s.parent == 1
        assert node.s.dmax == 6

    def test_locally_stabilized_requires_dmax_agreement(self):
        node = make_node(node_id=4, neighbors=(1, 5))
        node.on_message(1, info(root=0, parent=0, distance=1, dmax=3, sub_max=3, degree=1))
        node.on_message(5, info(root=0, parent=4, distance=2, dmax=3, sub_max=1, degree=1))
        assert node.s.dmax == 3
        assert node._degree_stabilized()
        # a non-parent neighbour advertising a different dmax breaks agreement
        # (the node keeps copying its parent's value, so they now disagree)
        node.on_message(5, info(root=0, parent=4, distance=2, dmax=9, sub_max=1, degree=1))
        assert not node._degree_stabilized()


class TestGossipAndSearch:
    def test_timeout_broadcasts_info_to_all_neighbors(self):
        node = make_node()
        node.on_timeout()
        dests = [d for d, m in node.outbox.drain() if isinstance(m, MInfo)]
        assert sorted(dests) == [0, 2, 3]

    def test_search_initiation_only_when_stabilized_and_needed(self):
        g = make_graph("wheel", 8)
        net = MDST.build_network(
            g, ProtocolRunConfig(options={"search_period": 1}))
        initialize_from_tree(net, bfs_spanning_tree(g))
        sim = Simulator(net, scheduler=SynchronousScheduler())
        for _ in range(3):
            sim.step_round()
        total_searches = sum(p.stats["searches_initiated"] for p in net.processes.values())
        assert total_searches > 0

    def test_no_search_when_tree_already_path(self):
        g = make_graph("cycle", 8)
        net = MDST.build_network(
            g, ProtocolRunConfig(options={"search_period": 1}))
        initialize_from_tree(net, bfs_spanning_tree(g))
        sim = Simulator(net, scheduler=SynchronousScheduler())
        for _ in range(5):
            sim.step_round()
        # dmax == 2: improvements are impossible, so no node starts a search
        assert sum(p.stats["searches_initiated"] for p in net.processes.values()) == 0

    def test_search_token_reaches_target_and_triggers_action(self):
        g = make_graph("wheel", 7)
        net = MDST.build_network(
            g, ProtocolRunConfig(options={"search_period": 1}))
        initialize_from_tree(net, bfs_spanning_tree(g))
        sim = Simulator(net, scheduler=SynchronousScheduler())
        for _ in range(12):
            sim.step_round()
        actions = sum(p.stats["actions_on_cycle"] for p in net.processes.values())
        assert actions > 0

    def test_improvement_produces_removals_and_attachments(self):
        g = make_graph("wheel", 7)
        net = MDST.build_network(
            g, ProtocolRunConfig(options={"search_period": 1}))
        initialize_from_tree(net, bfs_spanning_tree(g))
        sim = Simulator(net, scheduler=SynchronousScheduler())
        for _ in range(30):
            sim.step_round()
        removals = sum(p.stats["removals_performed"] for p in net.processes.values())
        attachments = sum(p.stats["attachments"] for p in net.processes.values())
        assert removals > 0
        assert attachments > 0

    def test_stale_remove_is_discarded(self):
        """A Remove whose target edge no longer satisfies the guard must abort."""
        g = make_graph("wheel", 7)
        net = MDST.build_network(g, ProtocolRunConfig())
        initialize_from_tree(net, bfs_spanning_tree(g))
        hub = net.processes[0]
        # Craft a Remove claiming the hub's degree is 3 (it is 6): guard fails.
        msg = Remove(init_edge=(2, 1), deg_max=3, target_edge=(0, 1),
                     path=(1, 0, 2), reversing=False)
        before = dict(hub.snapshot())
        net.processes[0].on_message(1, msg)
        assert hub.stats["removals_aborted"] == 1
        assert hub.snapshot()["parent"] == before["parent"]

    def test_deblock_flood_is_throttled(self):
        node = make_node(node_id=2, neighbors=(0, 1, 3), deblock_cooldown=100)
        node.on_message(0, info(root=0, parent=0, distance=1))
        node.s.parent = 0
        node.on_message(1, Deblock(idblock=7))
        first = len(node.outbox.drain())
        node.on_message(1, Deblock(idblock=7))
        second = len(node.outbox.drain())
        assert second <= first
