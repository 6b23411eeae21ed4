"""Dynamic-topology subsystem: network mutation APIs, churn plans, recovery.

Three layers under test:

* **Kernel** -- ``Network.add_node/remove_node/add_edge/remove_edge`` keep
  every incremental structure consistent: graph/adjacency/channel agreement,
  pending and outbox counters, dropped-message accounting, dirty-set and
  snapshot-cache invalidation, version and topology-version bumps, and
  process neighbour sets.
* **Plans** -- :class:`ChurnPlan` scheduling, the connectivity guard,
  determinism of :func:`random_churn_plan`, and composition with
  :class:`FaultPlan` inside the simulator.
* **Protocol** -- :class:`MDSTNode` handles neighbour-set deltas (stale
  view eviction, correction-phase re-entry) and re-converges after churn to
  a tree that ``make_mdst_legitimacy`` accepts for the *mutated* graph, on
  the three families named by the acceptance criteria.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.core.legitimacy import make_mdst_legitimacy
from repro.exceptions import ProtocolError, SimulationError
from repro.graphs import make_graph
from repro.graphs.validation import check_spanning_tree
from repro.protocols import ProtocolRunConfig, get_protocol, run_protocol
from repro.sim import (ChurnEvent, ChurnPlan, FaultPlan, PredicateCache,
                       SynchronousScheduler, random_churn_plan)
from repro.sim.scheduler import RoundStats

MDST = get_protocol("mdst")


def build_net(family: str, n: int, seed: int):
    graph = make_graph(family, n, seed=seed)
    return MDST.build_network(graph, ProtocolRunConfig(seed=seed))


def assert_consistent(net) -> None:
    """Every incremental structure agrees with the graph ground truth."""
    assert net.n == net.graph.number_of_nodes()
    assert net.m == net.graph.number_of_edges()
    assert net.node_ids == sorted(net.graph.nodes)
    assert set(net.processes) == set(net.node_ids)
    for v in net.node_ids:
        expected = tuple(sorted(net.graph.neighbors(v)))
        assert net.adjacency[v] == expected
        assert net.processes[v].neighbors == expected
        assert net.processes[v]._neighbor_set == frozenset(expected)
        assert sorted(net.processes[v].s.view) == list(expected)
    expected_channels = {(u, v) for a, b in net.graph.edges
                         for u, v in ((a, b), (b, a))}
    assert set(net.channels) == expected_channels
    assert net.pending_messages() == sum(len(c) for c in net.channels.values())
    # snapshot caches serve exactly the live node set
    assert set(net.snapshots()) == set(net.node_ids)
    assert [v for v, _ in net.snapshot_key()] == net.node_ids


class TestNetworkMutation:
    def test_add_edge_updates_everything(self):
        net = build_net("cycle", 6, 0)
        tv, cv = net.topology_version, net.version
        net.add_edge(0, 3)
        assert net.has_edge(0, 3) and net.has_edge(3, 0)
        assert net.topology_version == tv + 1 and net.version > cv
        assert_consistent(net)

    def test_remove_edge_drops_in_flight_messages(self):
        net = build_net("wheel", 8, 0)
        sched = SynchronousScheduler()
        sched.run_round(net)                 # fills channels with gossip
        u, v = 0, net.adjacency[0][0]
        pending = len(net.channel(u, v)) + len(net.channel(v, u))
        assert pending > 0
        net.remove_edge(u, v)
        assert net.dropped_messages == pending
        assert not net.has_edge(u, v)
        assert_consistent(net)

    def test_add_node_joins_with_working_channels(self):
        net = build_net("cycle", 5, 0)
        proc = net.add_node(7, [0, 2])
        assert proc is net.processes[7]
        assert net.node_ids == [0, 1, 2, 3, 4, 7]
        assert_consistent(net)
        # the newcomer can actually communicate
        sched = SynchronousScheduler()
        sched.run_round(net)
        assert net.processes[7].steps_taken > 0

    def test_remove_node_releases_all_state(self):
        net = build_net("wheel", 8, 1)
        sched = SynchronousScheduler()
        sched.run_round(net)
        net.set_node_enabled(3, False)
        net.remove_node(3)
        assert 3 not in net.processes and 3 not in net.adjacency
        assert net.node_enabled(3) is False or 3 not in net._disabled  # released
        assert_consistent(net)
        # quiescence counter survives: drain everything and check ground truth
        for _ in range(500):
            deliveries = net.enabled_deliveries()
            if not deliveries:
                break
            src, dst, _ = deliveries[0]
            SynchronousScheduler._deliver_one(net, src, dst, None, RoundStats())
        assert net.is_quiescent() == (
            net.pending_messages() == 0
            and all(len(p.outbox) == 0 for p in net.processes.values()))

    def test_caller_graph_is_never_mutated(self):
        graph = make_graph("cycle", 6, seed=0)
        edges_before = set(graph.edges)
        net = MDST.build_network(graph, ProtocolRunConfig(seed=0))
        net.add_edge(0, 3)
        net.remove_node(5)
        assert set(graph.edges) == edges_before
        assert graph.number_of_nodes() == 6

    def test_mutation_errors(self):
        net = build_net("cycle", 5, 0)
        with pytest.raises(SimulationError):
            net.add_edge(0, 1)               # already exists
        with pytest.raises(SimulationError):
            net.add_edge(0, 0)               # self-loop
        with pytest.raises(SimulationError):
            net.add_edge(0, 99)              # unknown endpoint
        with pytest.raises(SimulationError):
            net.remove_edge(0, 2)            # not an edge
        with pytest.raises(SimulationError):
            net.add_node(3, [0])             # id taken
        with pytest.raises(SimulationError):
            net.add_node(9, [99])            # unknown attach point
        with pytest.raises(SimulationError):
            net.remove_node(42)              # unknown node

    def test_removed_last_node_rejected(self):
        graph = nx.path_graph(2)
        net = MDST.build_network(graph, ProtocolRunConfig())
        net.remove_node(1)
        with pytest.raises(SimulationError):
            net.remove_node(0)

    def test_removed_channel_stats_are_retired_not_lost(self):
        net = build_net("wheel", 8, 0)
        sched = SynchronousScheduler()
        sched.run_round(net)
        max_bits = net.max_channel_message_bits()
        sent = net.total_messages_sent()
        assert max_bits > 0 and sent > 0
        for u in list(net.adjacency[0]):     # node 0 is the wheel hub
            if len(net.adjacency[0]) == 1:
                break
            probe = net.graph.copy()
            probe.remove_edge(0, u)
            if nx.is_connected(probe):
                net.remove_edge(0, u)
        assert net.max_channel_message_bits() >= max_bits
        assert net.total_messages_sent() == sent

    def test_channel_size_model_follows_node_churn(self):
        net = build_net("cycle", 6, 0)
        net.add_node(10, [0, 3])
        sizes = {c._network_size for c in net.channels.values()}
        assert sizes == {7}
        net.remove_node(10)
        assert {c._network_size for c in net.channels.values()} == {6}

    def test_channel_order_stays_unique_through_churn(self):
        net = build_net("cycle", 6, 0)
        net.remove_edge(0, 1)
        net.add_edge(0, 3)
        net.add_edge(0, 1)
        orders = list(net._channel_order.values())
        assert len(orders) == len(set(orders))
        # pending_channels keeps a stable deterministic order
        net.processes[0].on_timeout()
        net.flush_outbox(0)
        keys = [c.endpoints for c in net.pending_channels()]
        assert keys == sorted(keys, key=net._channel_order.__getitem__)


class TestProcessNeighborDeltas:
    def test_process_level_guards(self):
        net = build_net("cycle", 5, 0)
        proc = net.processes[0]
        with pytest.raises(ProtocolError):
            proc.add_neighbor(0)
        with pytest.raises(ProtocolError):
            proc.add_neighbor(1)             # already a neighbour
        with pytest.raises(ProtocolError):
            proc.remove_neighbor(2)          # not a neighbour

    def test_lost_parent_reenters_correction_phase(self):
        net = build_net("cycle", 6, 0)
        sched = SynchronousScheduler()
        for _ in range(30):
            sched.run_round(net)
        child = next(v for v in net.node_ids
                     if net.processes[v].s.parent != v)
        parent = net.processes[child].s.parent
        net.remove_edge(child, parent)
        st = net.processes[child].s
        assert parent not in st.view          # stale view evicted
        assert st.parent != parent            # no pointer to the dead link
        # fresh-root re-entry (possibly already re-attached by _refresh)
        assert st.parent == child or st.parent in st.view

    def test_new_neighbor_starts_unheard(self):
        net = build_net("cycle", 6, 0)
        net.add_edge(0, 3)
        assert net.processes[0].s.view[3].heard is False
        assert net.processes[3].s.view[0].heard is False

    def test_send_to_removed_neighbor_raises(self):
        net = build_net("cycle", 5, 0)
        net.add_edge(0, 2)
        net.remove_edge(0, 2)
        from repro.core.messages import MInfo
        msg = MInfo(root=0, parent=0, distance=0, degree=0, sub_max=0,
                    dmax=0, color=True)
        with pytest.raises(ProtocolError):
            net.processes[0].send(2, msg)


class TestPredicateTopologyInvalidation:
    def test_cache_reevaluates_after_silent_topology_change(self):
        """Adding a non-tree edge changes no snapshot, yet can flip the
        legitimacy verdict -- the cache must not serve the stale one."""
        net = build_net("cycle", 6, 0)
        sched = SynchronousScheduler()
        legit = make_mdst_legitimacy()
        cache = PredicateCache(legit)
        for _ in range(60):
            sched.run_round(net)
            if cache(net):
                break
        assert cache(net) is True
        key_before = net.snapshot_key()
        evals_before = cache.evaluations
        net.add_edge(0, 3)                   # silent for snapshots...
        assert net.snapshot_key() == key_before
        verdict = cache(net)
        assert cache.evaluations == evals_before + 1   # ...not for the cache
        assert verdict == legit(net)

    def test_reduction_memo_not_stale_across_mutation(self):
        """Same tree edge set, mutated graph: the fixpoint verdict must be
        recomputed against the new graph, not replayed."""
        net = build_net("two_hub", 8, 0)
        sched = SynchronousScheduler()
        legit = make_mdst_legitimacy()
        for _ in range(400):
            sched.run_round(net)
            if legit(net):
                break
        assert legit(net) is True
        # remove a non-tree edge: tree unchanged, graph smaller -- verdict
        # must still be computed against the new graph without crashing
        from repro.core.legitimacy import current_tree_edges
        tree = current_tree_edges(net)
        non_tree = next((u, v) for (u, v) in
                        ((min(a, b), max(a, b)) for a, b in net.graph.edges)
                        if (u, v) not in tree)
        probe = net.graph.copy()
        probe.remove_edge(*non_tree)
        if nx.is_connected(probe):
            net.remove_edge(*non_tree)
            assert isinstance(legit(net), bool)


class TestChurnPlan:
    def test_fluent_construction_and_scheduling(self):
        plan = (ChurnPlan()
                .add_edge(5, 0, 2)
                .remove_edge(9, 1, 3)
                .add_node(9, 42, [0])
                .remove_node(12, 4))
        assert plan.last_round == 12
        assert [e.kind for e in plan.pending_at(9)] == ["remove_edge", "add_node"]
        assert plan.pending_at(7) == []

    def test_event_validation(self):
        with pytest.raises(Exception):
            ChurnEvent(1, "explode")
        with pytest.raises(Exception):
            ChurnEvent(1, "add_node")        # missing node
        with pytest.raises(Exception):
            ChurnEvent(1, "remove_edge")     # missing edge

    def test_guard_skips_disconnecting_removals(self):
        graph = nx.path_graph(4)             # every edge is a bridge
        net = MDST.build_network(graph, ProtocolRunConfig())
        plan = ChurnPlan().remove_edge(1, 1, 2).remove_node(1, 0)
        # node 0 is a leaf: removing it keeps the path connected
        applied = plan.apply_due(net, 1)
        assert [e.kind for e in applied] == ["remove_node"]
        assert len(plan.skipped) == 1
        assert "disconnect" in plan.skipped[0][1]
        assert_consistent(net)

    def test_guard_skips_stale_events(self):
        net = build_net("cycle", 6, 0)
        plan = (ChurnPlan()
                .remove_node(1, 3)
                .remove_node(2, 3)           # already gone by round 2
                .add_edge(3, 0, 2))
        plan.apply_due(net, 1)
        plan.apply_due(net, 2)
        plan.apply_due(net, 3)
        assert len(plan.applied) == 2
        assert len(plan.skipped) == 1
        assert "no longer present" in plan.skipped[0][1]

    def test_unguarded_plan_may_disconnect(self):
        graph = nx.path_graph(4)
        net = MDST.build_network(graph, ProtocolRunConfig())
        plan = ChurnPlan(guard_connectivity=False).remove_edge(1, 1, 2)
        assert plan.apply_due(net, 1)
        assert not nx.is_connected(net.graph)

    def test_random_plan_is_deterministic_and_applies_cleanly(self):
        graph = make_graph("erdos_renyi_sparse", 14, seed=5)
        p1 = random_churn_plan(graph, events=8, start_round=10, period=5, seed=3)
        p2 = random_churn_plan(graph, events=8, start_round=10, period=5, seed=3)
        assert p1.events == p2.events
        assert len(p1.events) == 8
        p3 = random_churn_plan(graph, events=8, start_round=10, period=5, seed=4)
        assert p1.events != p3.events
        # generated against an evolving working copy: applies without skips
        net = MDST.build_network(graph, ProtocolRunConfig(seed=5))
        for event in p1.events:
            assert p1.apply_event(net, event), p1.skipped
        assert_consistent(net)
        assert nx.is_connected(net.graph)


CHURN_FAMILIES = ("erdos_renyi_sparse", "random_geometric", "barabasi_albert")


class TestChurnRecovery:
    """Acceptance criteria: re-convergence to a legitimate MDST of the
    mutated graph on the three named families."""

    @pytest.mark.parametrize("family", CHURN_FAMILIES)
    def test_reconverges_to_legitimate_tree_of_mutated_graph(self, family):
        graph = make_graph(family, 14, seed=7)
        plan = random_churn_plan(graph, events=5, start_round=60, period=20,
                                 seed=21)
        config = ProtocolRunConfig(seed=7, max_rounds=6000,
                                   n_upper=graph.number_of_nodes() + 5 + 1)
        result = run_protocol(graph, config, churn_plan=plan)
        assert result.converged, (family, result.rounds)
        assert result.run.extra["churn_applied"] == 5
        final = result.final_graph
        assert final is not None
        assert final.number_of_nodes() == result.run.extra["final_n"]
        # the final tree spans the mutated graph...
        check_spanning_tree(final, result.tree_edges)
        # ...and convergence never predates the last topology event (the
        # first legitimate observation is of the post-churn configuration)
        assert (result.run.extra["convergence_round"]
                >= max(result.run.extra["churn_rounds"]))

    def test_reused_plan_counts_per_run_not_cumulatively(self):
        graph = make_graph("erdos_renyi_sparse", 10, seed=2)
        leaf = next(v for v in sorted(graph.nodes)
                    if v not in set(nx.articulation_points(graph))
                    and v != min(graph.nodes))
        plan = ChurnPlan().remove_node(30, leaf)
        config = ProtocolRunConfig(seed=2, max_rounds=5000)
        first = run_protocol(graph, config, churn_plan=plan)
        second = run_protocol(graph, config, churn_plan=plan)
        assert first.run.extra["churn_applied"] == 1
        assert second.run.extra["churn_applied"] == 1   # not 2

    def test_composes_with_fault_plan(self):
        graph = make_graph("erdos_renyi_sparse", 12, seed=9)
        churn = ChurnPlan().remove_node(40, max(graph.nodes))
        faults = FaultPlan().add(round_index=40, node_fraction=0.5)
        config = ProtocolRunConfig(seed=9, max_rounds=6000)
        result = run_protocol(graph, config, fault_plan=faults, churn_plan=churn)
        assert result.converged
        assert result.run.extra["churn_applied"] == 1
        assert result.run.extra["final_n"] == graph.number_of_nodes() - 1
        check_spanning_tree(result.final_graph, result.tree_edges)

    def test_min_id_node_departure_recovers(self):
        """Losing the root (the minimum identifier) is the hardest leave:
        every node must abandon the ghost root and re-elect."""
        graph = make_graph("erdos_renyi_sparse", 12, seed=3)
        if set(nx.articulation_points(graph)) & {min(graph.nodes)}:
            pytest.skip("min node is an articulation point for this seed")
        churn = ChurnPlan().remove_node(50, min(graph.nodes))
        config = ProtocolRunConfig(seed=3, max_rounds=6000)
        result = run_protocol(graph, config, churn_plan=churn)
        assert result.converged
        assert result.run.extra["churn_applied"] == 1
        check_spanning_tree(result.final_graph, result.tree_edges)
        # the tree must exclude the departed node entirely
        assert all(min(graph.nodes) not in edge for edge in result.tree_edges)
