"""Tests for repro.sim.faults, monitors and rng."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.sim import (
    AdversarialScheduler,
    ConvergenceMonitor,
    ClosureMonitor,
    FaultPlan,
    GarbageMessage,
    InvariantMonitor,
    Network,
    Simulator,
    corrupt_channels,
    corrupt_everything,
    corrupt_states,
    derive_seed,
    spawn_generators,
)
from repro.stabilization import (
    SpanningTreeProcess,
    spanning_tree_process_factory,
)
from repro.stabilization.predicates import tree_coherent


def _net(n=6):
    return Network(nx.cycle_graph(n), spanning_tree_process_factory(n_upper=n + 1))


class TestFaultInjection:
    def test_corrupt_all_states(self):
        net = _net()
        rng = np.random.default_rng(0)
        corrupted = corrupt_states(net, rng, fraction=1.0)
        assert sorted(corrupted) == net.node_ids

    def test_corrupt_fraction(self):
        net = _net(10)
        rng = np.random.default_rng(0)
        corrupted = corrupt_states(net, rng, fraction=0.5)
        assert len(corrupted) == 5

    def test_corrupt_explicit_nodes(self):
        net = _net()
        rng = np.random.default_rng(0)
        assert corrupt_states(net, rng, nodes=[1, 3]) == [1, 3]

    def test_corrupt_unknown_node_rejected(self):
        net = _net()
        with pytest.raises(ConfigurationError):
            corrupt_states(net, np.random.default_rng(0), nodes=[99])

    def test_corrupt_invalid_fraction_rejected(self):
        net = _net()
        with pytest.raises(ConfigurationError):
            corrupt_states(net, np.random.default_rng(0), fraction=1.5)

    def test_corrupt_channels_injects_garbage(self):
        net = _net()
        injected = corrupt_channels(net, np.random.default_rng(1), fraction=1.0)
        assert injected > 0
        assert net.pending_messages() == injected
        some_channel = next(c for c in net.channels.values() if c)
        assert isinstance(some_channel.peek(), GarbageMessage)

    def test_corrupt_everything_report(self):
        net = _net()
        report = corrupt_everything(net, np.random.default_rng(2))
        assert report["corrupted_nodes"] == len(net)

    def test_fault_plan_scheduling(self):
        plan = FaultPlan().add(5, node_fraction=0.5).add(9)
        assert plan.last_round == 9
        assert [e.round_index for e in plan.pending_at(5)] == [5]
        assert plan.pending_at(6) == []

    def test_fault_plan_apply_due(self):
        net = _net()
        plan = FaultPlan().add(2, node_fraction=1.0, channel_fraction=1.0)
        fired = plan.apply_due(net, np.random.default_rng(3), 2)
        assert len(fired) == 1
        assert net.pending_messages() > 0


class TestMonitors:
    def test_convergence_monitor_requires_window(self):
        net = _net()
        flags = iter([True, True, False, True, True, True, True])
        monitor = ConvergenceMonitor(lambda n: next(flags), stability_window=3)
        results = [monitor.observe(net, i) for i in range(7)]
        assert results[:5] == [False] * 5
        assert monitor.converged
        assert monitor.converged_round == 5
        assert monitor.first_hold_round == 3

    def test_convergence_monitor_rejects_bad_window(self):
        with pytest.raises(ValueError):
            ConvergenceMonitor(lambda n: True, stability_window=0)

    def test_closure_monitor_records_violations(self):
        net = _net()
        closure = ClosureMonitor(lambda n: False)
        closure.observe(net, 1)       # not armed yet: no violation
        assert not closure.violated
        closure.arm()
        closure.observe(net, 2)
        assert closure.violations == [2]

    def test_invariant_monitor_collects_without_raise(self):
        net = _net()
        mon = InvariantMonitor([("always_bad", lambda n: "broken")],
                               raise_on_violation=False)
        mon.observe(net, 1)
        mon.observe(net, 2)
        assert len(mon.violations) == 2
        assert mon.violations[0].detail == "broken"


class TestAdversarialSchedulerWithFaults:
    """AdversarialScheduler + FaultPlan interaction (previously untested)."""

    def test_recovery_under_slow_links(self):
        """A mid-run fault under adversarially slow links still re-stabilizes."""
        n = 6
        net = _net(n)
        fault_round = 30
        plan = FaultPlan().add(fault_round, node_fraction=0.5)
        sched = AdversarialScheduler(slow_links=[(0, 1), (3, 2)], max_delay=3)
        sim = Simulator(net, scheduler=sched, legitimacy=tree_coherent,
                        stability_window=3, fault_plan=plan,
                        rng=np.random.default_rng(7))
        report = sim.run(max_rounds=600)
        assert report.converged
        assert report.fault_rounds == [fault_round]
        # re-convergence is measured after the fault, never before it
        assert report.convergence_round is not None
        assert report.convergence_round > fault_round

    def test_fault_channel_garbage_released_by_slow_link(self):
        """Garbage injected on a slow link is withheld, then flushed, and the
        protocol still converges (FIFO + bounded delay preserved)."""
        net = _net(6)
        plan = FaultPlan().add(10, node_fraction=0.0, channel_fraction=1.0)
        sched = AdversarialScheduler(slow_links=[(1, 0)], max_delay=4)
        sim = Simulator(net, scheduler=sched, legitimacy=tree_coherent,
                        stability_window=3, fault_plan=plan,
                        rng=np.random.default_rng(11))
        report = sim.run(max_rounds=600)
        assert report.converged
        assert net.pending_messages() == sum(len(c) for c in net.channels.values())

    def test_slow_link_ages_only_while_pending(self):
        """An empty slow link must not accumulate delay credit.

        The first gossip lands on the slow link during round 1, so the link
        is first seen non-empty (and starts aging) at round 2; the backlog
        must be withheld until exactly round ``1 + max_delay``.  A scheduler
        that aged the still-empty link during round 1 would release one
        round early.
        """
        max_delay = 3
        net = Network(nx.path_graph(2), spanning_tree_process_factory(n_upper=3))
        sched = AdversarialScheduler(slow_links=[(0, 1)], max_delay=max_delay)
        delivered_per_round = []
        for _ in range(1 + max_delay):
            sched.run_round(net)
            delivered_per_round.append(net.channel(0, 1).stats.delivered)
        # withheld through round max_delay, released exactly at 1 + max_delay
        assert delivered_per_round[:max_delay] == [0] * max_delay
        assert delivered_per_round[max_delay] > 0


class TestClosureMonitorRecording:
    """ClosureMonitor violation recording through the simulator."""

    def test_simulator_records_closure_violation(self):
        """A predicate that holds for a window and then breaks after
        convergence must surface as recorded closure violations."""
        net = _net(6)
        # Converges once every node knows root 0; later rounds break the
        # (artificial) predicate when total steps pass a threshold.
        def fickle(network):
            total = sum(p.steps_taken for p in network.processes.values())
            return total < 120
        sim = Simulator(net, legitimacy=fickle, stability_window=2,
                        cache_predicate=False)
        report = sim.run(max_rounds=40, extra_rounds_after_convergence=30)
        assert report.converged
        assert report.closure_violations, "violations after convergence must be recorded"
        # violations are only recorded once closure is armed (at convergence)
        assert min(report.closure_violations) > sim.monitor.converged_round

    def test_closure_monitor_not_active_before_arm(self):
        net = _net()
        closure = ClosureMonitor(lambda n: False)
        for r in range(3):
            closure.observe(net, r)
        assert closure.violations == []
        closure.arm()
        closure.observe(net, 3)
        closure.observe(net, 4)
        assert closure.violations == [3, 4]
        assert closure.violated

    def test_violations_stop_counting_when_predicate_recovers(self):
        net = _net()
        flags = iter([False, True, False])
        closure = ClosureMonitor(lambda n: next(flags))
        closure.arm()
        for r in (1, 2, 3):
            closure.observe(net, r)
        assert closure.violations == [1, 3]


class TestRng:
    def test_spawn_generators_deterministic(self):
        a = spawn_generators(42, ["x", "y"])
        b = spawn_generators(42, ["x", "y"])
        assert a["x"].integers(0, 1000) == b["x"].integers(0, 1000)

    def test_spawn_generators_independent_streams(self):
        gens = spawn_generators(42, ["x", "y"])
        assert gens["x"].integers(0, 10**9) != gens["y"].integers(0, 10**9)

    def test_derive_seed_stable(self):
        assert derive_seed(7, 0) == derive_seed(7, 0)
        assert derive_seed(7, 0) != derive_seed(7, 1)
