"""Integration tests of the full message-passing MDST protocol."""

from __future__ import annotations

import subprocess
import sys

import networkx as nx
import pytest

from repro.baselines import exact_mdst_degree
from repro.core import MDSTNode, ReferenceMDST
from repro.graphs import bfs_spanning_tree, is_spanning_tree, make_graph, tree_degree
from repro.protocols import ProtocolRunConfig, get_protocol, run_protocol
from repro.protocols.mdst import initialize_from_tree, initialize_isolated
from repro.sim import FaultPlan

MDST = get_protocol("mdst")


def test_core_does_not_import_the_protocol_layer():
    """The algorithm layer stands below the driver layer: importing
    :mod:`repro.core` loads nothing of :mod:`repro.protocols`."""
    code = ("import sys, repro.core; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] == ['repro', 'protocols']))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


class TestConfig:
    def test_network_construction_builds_mdst_nodes(self, small_dense):
        net = MDST.build_network(small_dense, ProtocolRunConfig())
        assert all(isinstance(p, MDSTNode) for p in net.processes.values())

    def test_initialize_from_tree_is_coherent(self, small_dense):
        net = MDST.build_network(small_dense, ProtocolRunConfig())
        tree = bfs_spanning_tree(small_dense)
        initialize_from_tree(net, tree)
        snaps = net.snapshots()
        k = tree_degree(small_dense.nodes, tree)
        assert all(s["root"] == 0 for s in snaps.values())
        assert all(s["dmax"] == k for s in snaps.values())

    def test_initialize_isolated(self, small_dense):
        net = MDST.build_network(small_dense, ProtocolRunConfig())
        initialize_isolated(net)
        snaps = net.snapshots()
        assert all(s["root"] == v for v, s in snaps.items())


class TestEndToEnd:
    @pytest.mark.parametrize("family,n,seed", [
        ("cycle", 7, 0), ("wheel", 8, 0), ("complete", 7, 0),
        ("two_hub", 7, 0), ("ring_with_chords", 9, 1),
        ("erdos_renyi_dense", 9, 2), ("hard_hub", 8, 0),
    ])
    def test_converges_to_within_one_of_optimal_from_bfs_tree(self, family, n, seed):
        g = make_graph(family, n, seed=seed)
        result = run_protocol(g, ProtocolRunConfig(seed=seed, initial="bfs_tree",
                                                   max_rounds=2500))
        assert result.converged, f"{family}: no convergence"
        assert is_spanning_tree(g, result.tree_edges)
        optimal = exact_mdst_degree(g)
        assert optimal <= result.tree_degree <= optimal + 1

    def test_matches_reference_engine_degree(self):
        """Differential test: protocol and reference engine reach trees of the
        same maximum degree (both are fixpoints of the same rule)."""
        for family, n, seed in [("wheel", 8, 0), ("complete", 7, 0),
                                ("erdos_renyi_dense", 9, 4)]:
            g = make_graph(family, n, seed=seed)
            ref = ReferenceMDST(g).run()
            proto = run_protocol(g, ProtocolRunConfig(seed=seed, initial="bfs_tree",
                                                      max_rounds=2500))
            assert proto.converged
            assert abs(proto.tree_degree - ref.final_degree) <= 1
            optimal = exact_mdst_degree(g)
            assert proto.tree_degree <= optimal + 1
            assert ref.final_degree <= optimal + 1

    def test_star_graph_no_improvement_needed(self):
        g = make_graph("star", 7)
        result = run_protocol(g, ProtocolRunConfig(seed=0, initial="bfs_tree",
                                                   max_rounds=300))
        assert result.converged
        assert result.tree_degree == g.number_of_nodes() - 1

    def test_explicit_initial_tree_argument(self, wheel8):
        tree = bfs_spanning_tree(wheel8)
        result = run_protocol(wheel8, ProtocolRunConfig(seed=0, max_rounds=2000),
                              initial_tree=tree)
        assert result.converged
        assert result.tree_degree <= 3

    def test_isolated_cold_start(self):
        g = make_graph("wheel", 8)
        result = run_protocol(g, ProtocolRunConfig(seed=1, initial="isolated",
                                                   max_rounds=2000))
        assert result.converged
        assert result.tree_degree <= exact_mdst_degree(g) + 1

    def test_run_result_contains_statistics(self, wheel8):
        result = run_protocol(wheel8, ProtocolRunConfig(seed=0, initial="bfs_tree",
                                                        max_rounds=2000))
        assert result.run.messages > 0
        assert result.run.extra["max_message_bits"] > 0
        assert result.run.extra["max_state_bits"] > 0
        by_type = result.run.extra["deliveries_by_type"]
        assert by_type.get("MInfo", 0) > 0
        assert by_type.get("Search", 0) > 0
        assert sum(s["searches_initiated"] for s in result.node_stats.values()) > 0

    def test_tree_snapshot_exposed_when_converged(self, wheel8):
        result = run_protocol(wheel8, ProtocolRunConfig(seed=0, initial="bfs_tree",
                                                        max_rounds=2000))
        assert result.run.tree is not None
        assert result.run.tree.degree() == result.tree_degree

    def test_reduction_can_be_disabled(self, wheel8):
        result = run_protocol(wheel8, ProtocolRunConfig(
            seed=0, initial="isolated", max_rounds=500,
            options={"enable_reduction": False}))
        assert result.converged
        # without the reduction layer the wheel keeps its star-shaped BFS tree
        assert result.tree_degree == 7


class TestSelfStabilization:
    @pytest.mark.parametrize("scheduler", ["synchronous", "random"])
    def test_converges_from_fully_corrupted_state(self, scheduler):
        g = make_graph("wheel", 8)
        result = run_protocol(g, ProtocolRunConfig(seed=3, initial="corrupted",
                                                   scheduler=scheduler,
                                                   max_rounds=3000))
        assert result.converged
        assert is_spanning_tree(g, result.tree_edges)
        assert result.tree_degree <= exact_mdst_degree(g) + 1

    def test_recovers_from_mid_run_fault(self):
        g = make_graph("erdos_renyi_dense", 9, seed=5)
        plan = FaultPlan().add(round_index=40, node_fraction=0.5)
        result = run_protocol(g, ProtocolRunConfig(seed=5, initial="bfs_tree",
                                                   max_rounds=3000),
                              fault_plan=plan)
        assert result.converged
        assert is_spanning_tree(g, result.tree_edges)

    def test_adversarial_scheduler_still_converges(self):
        g = make_graph("wheel", 7)
        slow = [(0, 1), (1, 0)]
        result = run_protocol(g, ProtocolRunConfig(
            seed=2, initial="bfs_tree", scheduler="adversarial",
            slow_links=slow, max_delay=3, max_rounds=3000))
        assert result.converged
        assert result.tree_degree <= exact_mdst_degree(g) + 1
