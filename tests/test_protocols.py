"""Tests for the unified protocol registry (:mod:`repro.protocols`).

Covers the registry contract (lazy built-ins, lookup errors, duplicate
guard), the adapter capability gates, the equivalence of
``run_protocol(protocol="mdst")`` with the historical :func:`run_mdst`
entry point, convergence of every registered protocol from clean and
corrupted starts, the live-topology delta hooks of the standalone
processes, and spanning-tree re-convergence under random churn plans on
the three named graph families.
"""

from __future__ import annotations

import pytest

from repro.core import MDSTConfig, run_mdst
from repro.exceptions import ConfigurationError
from repro.graphs import make_graph
from repro.protocols import (
    PROTOCOLS,
    ProtocolAdapter,
    ProtocolRunConfig,
    get_protocol,
    protocol_names,
    register_protocol,
    run_protocol,
)
from repro.sim.faults import ChurnPlan, random_churn_plan
from repro.stabilization.pif import MaxDegreeProcess
from repro.stabilization.predicates import tree_coherent
from repro.stabilization.spanning_tree import SpanningTreeProcess

CHURN_FAMILIES = ("erdos_renyi_sparse", "random_geometric", "barabasi_albert")


class TestRegistry:
    def test_builtins_registered(self):
        assert protocol_names() == ["mdst", "pif_max_degree", "spanning_tree"]
        assert sorted(PROTOCOLS) == protocol_names()
        assert len(PROTOCOLS) == 3
        assert "mdst" in PROTOCOLS

    def test_get_protocol_returns_adapter(self):
        adapter = get_protocol("spanning_tree")
        assert isinstance(adapter, ProtocolAdapter)
        assert adapter.name == "spanning_tree"
        assert PROTOCOLS["spanning_tree"] is adapter

    def test_unknown_name_lists_registry(self):
        with pytest.raises(ConfigurationError, match="registered protocols"):
            get_protocol("bogus")

    def test_capability_flags(self):
        assert PROTOCOLS["mdst"].supports_churn
        assert PROTOCOLS["spanning_tree"].supports_churn
        assert not PROTOCOLS["pif_max_degree"].supports_churn
        assert PROTOCOLS["mdst"].supports_initial_tree
        assert not PROTOCOLS["spanning_tree"].supports_initial_tree

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_protocol(PROTOCOLS["mdst"])

    def test_adapter_initial_policies(self):
        assert PROTOCOLS["mdst"].initial_policies == (
            "bfs_tree", "random_tree", "isolated", "corrupted")
        for name in ("spanning_tree", "pif_max_degree"):
            assert PROTOCOLS[name].initial_policies == ("isolated", "corrupted")


class TestConfigValidation:
    def test_unsupported_initial_policy_rejected(self):
        graph = make_graph("wheel", 8, seed=1)
        config = ProtocolRunConfig(protocol="spanning_tree", initial="bfs_tree")
        with pytest.raises(ConfigurationError, match="initial policies"):
            run_protocol(graph, config)

    def test_generic_field_validation(self):
        graph = make_graph("wheel", 8, seed=1)
        with pytest.raises(ConfigurationError, match="max_rounds"):
            run_protocol(graph, ProtocolRunConfig(max_rounds=0))
        with pytest.raises(ConfigurationError, match="stability_window"):
            run_protocol(graph, ProtocolRunConfig(stability_window=0))

    def test_unknown_mdst_option_rejected(self):
        graph = make_graph("wheel", 8, seed=1)
        config = ProtocolRunConfig(options={"search_priod": 1})
        with pytest.raises(ConfigurationError,
                           match="search_period, deblock_cooldown, "
                                 "enable_reduction"):
            run_protocol(graph, config)

    def test_initial_tree_requires_capability(self):
        graph = make_graph("wheel", 8, seed=1)
        tree = [(0, v) for v in range(1, 8)]
        config = ProtocolRunConfig(protocol="spanning_tree", max_rounds=100)
        with pytest.raises(ConfigurationError, match="initial tree"):
            run_protocol(graph, config, initial_tree=tree)

    def test_churn_requires_capability(self):
        graph = make_graph("wheel", 8, seed=1)
        plan = ChurnPlan().remove_edge(10, 1, 3)
        config = ProtocolRunConfig(protocol="pif_max_degree", max_rounds=100)
        with pytest.raises(ConfigurationError, match="churn"):
            run_protocol(graph, config, churn_plan=plan)


class TestMDSTEquivalence:
    """run_mdst and run_protocol("mdst") are one code path: same outputs."""

    @pytest.mark.parametrize("initial", ["isolated", "corrupted"])
    def test_results_identical(self, initial):
        graph = make_graph("erdos_renyi_sparse", 12, seed=4)
        mdst_cfg = MDSTConfig(seed=4, initial=initial, max_rounds=3000)
        a = run_mdst(graph, mdst_cfg)
        b = run_protocol(graph, mdst_cfg.protocol_run_config())
        assert b.protocol == "mdst"
        assert a.converged == b.converged
        assert a.rounds == b.rounds
        assert a.run.steps == b.run.steps
        assert a.run.messages == b.run.messages
        assert a.tree_degree == b.tree_degree
        assert a.tree_edges == b.tree_edges
        assert a.run.extra == b.run.extra
        assert a.node_stats == b.node_stats

    def test_initial_tree_round_trips(self):
        graph = make_graph("wheel", 8, seed=1)
        tree = [(0, v) for v in range(1, 8)]
        a = run_mdst(graph, MDSTConfig(seed=1, max_rounds=2000),
                     initial_tree=tree)
        b = run_protocol(graph,
                         MDSTConfig(seed=1, max_rounds=2000).protocol_run_config(),
                         initial_tree=tree)
        assert a.converged and b.converged
        assert a.tree_edges == b.tree_edges


class TestProtocolRuns:
    @pytest.mark.parametrize("protocol", ["spanning_tree", "pif_max_degree"])
    @pytest.mark.parametrize("initial", ["isolated", "corrupted"])
    def test_substrate_protocols_converge(self, protocol, initial):
        graph = make_graph("erdos_renyi_sparse", 12, seed=2)
        result = run_protocol(graph, ProtocolRunConfig(
            protocol=protocol, seed=2, initial=initial, max_rounds=800))
        assert result.protocol == protocol
        assert result.converged
        assert result.report.closure_violations == []

    def test_spanning_tree_matches_direct_harness(self):
        """The registry path reproduces what the hand-rolled harness finds."""
        graph = make_graph("random_geometric", 12, seed=3)
        result = run_protocol(graph, ProtocolRunConfig(
            protocol="spanning_tree", seed=3, max_rounds=400))
        assert result.converged
        # the induced tree is rooted at the minimum id
        assert result.run.tree is not None
        parent = result.run.tree.parent
        assert parent[min(graph.nodes)] == min(graph.nodes)
        assert len(result.tree_edges) == graph.number_of_nodes() - 1

    def test_pif_reports_expected_dmax(self):
        graph = make_graph("wheel", 10, seed=1)
        result = run_protocol(graph, ProtocolRunConfig(
            protocol="pif_max_degree", seed=1, max_rounds=400))
        assert result.converged
        expected = result.run.extra["expected_dmax"]
        assert expected >= 1
        assert result.tree_degree == expected

    def test_mdst_fault_plan_through_generic_runner(self):
        from repro.sim import FaultPlan
        graph = make_graph("wheel", 8, seed=1)
        plan = FaultPlan().add(round_index=30, node_fraction=0.5)
        result = run_protocol(
            graph, ProtocolRunConfig(seed=1, max_rounds=3000), fault_plan=plan)
        assert result.converged
        assert result.run.extra["convergence_round"] > 30

    @pytest.mark.parametrize("protocol", ["spanning_tree", "pif_max_degree"])
    def test_fault_plan_on_substrate_protocols(self, protocol):
        from repro.sim import FaultPlan
        graph = make_graph("erdos_renyi_sparse", 10, seed=6)
        plan = FaultPlan().add(round_index=20, node_fraction=1.0)
        result = run_protocol(graph, ProtocolRunConfig(
            protocol=protocol, seed=6, max_rounds=800), fault_plan=plan)
        assert result.converged
        assert result.run.extra["convergence_round"] > 20


class TestSpanningTreeDeltaHooks:
    """Satellite: the standalone processes survive live neighbour deltas."""

    def test_add_neighbor_creates_unheard_view(self):
        proc = SpanningTreeProcess(4, [1, 2], n_upper=8)
        proc.add_neighbor(3)
        assert proc.neighbors == (1, 2, 3)
        assert 3 in proc.s.view and not proc.s.view[3].heard

    def test_remove_neighbor_evicts_view(self):
        proc = SpanningTreeProcess(4, [1, 2], n_upper=8)
        proc.remove_neighbor(2)
        assert proc.neighbors == (1,)
        assert 2 not in proc.s.view

    def test_losing_parent_resets_to_own_root(self):
        from repro.stabilization.spanning_tree import STInfo
        proc = SpanningTreeProcess(4, [1, 2], n_upper=8)
        proc.on_message(1, STInfo(root=0, parent=1, distance=2))
        assert proc.s.parent == 1 and proc.s.root == 0
        proc.remove_neighbor(1)
        assert proc.s.root == 4 and proc.s.parent == 4
        assert proc.s.distance == 0

    def test_losing_non_parent_keeps_tree_state(self):
        from repro.stabilization.spanning_tree import STInfo
        proc = SpanningTreeProcess(4, [1, 2], n_upper=8)
        proc.on_message(1, STInfo(root=0, parent=1, distance=2))
        proc.remove_neighbor(2)
        assert proc.s.root == 0 and proc.s.parent == 1

    def test_stale_view_cannot_win_r1_after_removal(self):
        from repro.stabilization.spanning_tree import STInfo
        proc = SpanningTreeProcess(4, [1, 2], n_upper=8)
        proc.on_message(2, STInfo(root=-3, parent=2, distance=1))
        assert proc.s.root == -3
        proc.remove_neighbor(2)
        # the eviction re-runs the rules: no neighbour advertises -3 anymore
        assert proc.s.root == 4 and proc.s.parent == 4


class TestMaxDegreeDeltaHooks:
    def _proc(self):
        # star: 0 is the root, 1/2/3 its children
        parent_map = {0: 0, 1: 0, 2: 0, 3: 0}
        return MaxDegreeProcess(0, [1, 2, 3], parent_map)

    def test_add_neighbor_starts_as_non_tree(self):
        proc = self._proc()
        proc.add_neighbor(5)
        assert 5 in proc.view_parent and proc.view_parent[5] == 5
        assert proc.degree == 3  # tree degree unchanged until 5 claims us

    def test_remove_tree_neighbor_shrinks_degree(self):
        proc = self._proc()
        assert proc.degree == 3
        proc.remove_neighbor(2)
        assert proc.degree == 2
        assert 2 not in proc.view_parent
        assert 2 not in proc.view_sub_max and 2 not in proc.view_dmax
        assert proc.sub_max >= proc.degree

    def test_losing_parent_promotes_to_fragment_root(self):
        parent_map = {0: 0, 1: 0, 2: 1}
        proc = MaxDegreeProcess(1, [0, 2], parent_map)
        assert proc.parent == 0
        proc.remove_neighbor(0)
        assert proc.parent == 1  # self-parented: root of the fragment
        assert proc.degree == 1

    def test_dead_subtree_cannot_inflate_sub_max(self):
        from repro.stabilization.pif import DegreeInfo
        proc = self._proc()
        proc.on_message(2, DegreeInfo(parent=0, degree=1, sub_max=99, dmax=99))
        assert proc.sub_max == 99
        proc.remove_neighbor(2)
        assert proc.sub_max < 99


class TestCrossProtocolChurn:
    """Satellite: spanning-tree re-convergence under random churn plans on
    the three named graph families (mirroring the MDST churn coverage)."""

    @pytest.mark.parametrize("family", CHURN_FAMILIES)
    def test_spanning_tree_reconverges_after_churn(self, family):
        graph = make_graph(family, 16, seed=9)
        plan = random_churn_plan(graph, events=5, start_round=20, period=10,
                                 seed=13)
        config = ProtocolRunConfig(
            protocol="spanning_tree", seed=9, max_rounds=2000,
            n_upper=graph.number_of_nodes() + 6)
        result = run_protocol(graph, config, churn_plan=plan)
        assert result.converged, f"no re-convergence on {family}"
        assert result.run.extra["churn_applied"] >= 1
        assert result.final_graph is not None
        # the final tree spans the *mutated* graph
        assert len(result.tree_edges) == result.final_graph.number_of_nodes() - 1
        for a, b in result.tree_edges:
            assert result.final_graph.has_edge(a, b)

    def test_min_id_departure_reroots_the_tree(self):
        graph = make_graph("erdos_renyi_sparse", 12, seed=5)
        plan = ChurnPlan().remove_node(25, min(graph.nodes))
        config = ProtocolRunConfig(
            protocol="spanning_tree", seed=5, max_rounds=2000,
            n_upper=graph.number_of_nodes() + 2)
        result = run_protocol(graph, config, churn_plan=plan)
        assert result.converged
        survivors = sorted(result.final_graph.nodes)
        new_root = min(survivors)
        assert result.run.tree is not None
        assert result.run.tree.parent[new_root] == new_root

    def test_node_join_is_adopted(self):
        graph = make_graph("random_geometric", 12, seed=7)
        newcomer = max(graph.nodes) + 1
        plan = ChurnPlan().add_node(30, newcomer,
                                    attach=sorted(graph.nodes)[:2])
        config = ProtocolRunConfig(
            protocol="spanning_tree", seed=7, max_rounds=2000,
            n_upper=graph.number_of_nodes() + 3)
        result = run_protocol(graph, config, churn_plan=plan)
        assert result.converged
        assert newcomer in result.final_graph.nodes
        assert any(newcomer in edge for edge in result.tree_edges)


class TestThirdPartyAdapter:
    """The extension story: a new protocol is a small adapter subclass."""

    def test_register_and_run_a_custom_adapter(self):
        from repro.sim.network import Network
        from repro.stabilization.spanning_tree import (
            spanning_tree_process_factory,
        )

        class TightBoundSpanningTree(ProtocolAdapter):
            name = "st_tight"
            description = "spanning tree with an exact distance bound"
            initial_policies = ("isolated",)
            supports_churn = False

            def build_network(self, graph, config):
                return Network(graph, spanning_tree_process_factory(
                    n_upper=graph.number_of_nodes()))

            def prepare_initial(self, network, config, rng):
                pass

            def make_legitimacy(self, network, config):
                return tree_coherent

        adapter = TightBoundSpanningTree()
        try:
            register_protocol(adapter)
            assert "st_tight" in protocol_names()
            graph = make_graph("cycle", 8, seed=0)
            result = run_protocol(graph, ProtocolRunConfig(
                protocol="st_tight", seed=0, max_rounds=400))
            assert result.converged
        finally:
            # keep the global registry pristine for other tests
            from repro.protocols import registry as _registry
            _registry._ADAPTERS.pop("st_tight", None)
