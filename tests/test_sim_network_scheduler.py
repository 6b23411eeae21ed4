"""Tests for repro.sim.network, scheduler, node and simulator basics.

These use a tiny hand-written protocol (token counting / echo) so that the
simulator machinery is exercised independently of the MDST algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np
import pytest

from repro.exceptions import ProtocolError, SchedulerError
from repro.sim import (
    AdversarialScheduler,
    Message,
    Network,
    Process,
    RandomAsyncScheduler,
    Simulator,
    SynchronousScheduler,
    TraceRecorder,
    make_scheduler,
)


@dataclass(frozen=True)
class Hello(Message):
    hops: int = 0


class EchoProcess(Process):
    """Counts greetings; on timeout greets all neighbours once per round."""

    def __init__(self, node_id, neighbors):
        super().__init__(node_id, neighbors)
        self.received = 0
        self.greeted = 0

    def on_timeout(self):
        self.greeted += 1
        self.broadcast(Hello(hops=0))

    def on_message(self, sender, message):
        if isinstance(message, Hello):
            self.received += 1

    def corrupt(self, rng):
        self.received = int(rng.integers(0, 100))

    def state_bits(self, network_size):
        return 32

    def snapshot(self):
        return {"received": self.received, "greeted": self.greeted}


def echo_factory(node_id, neighbors):
    return EchoProcess(node_id, neighbors)


@pytest.fixture
def triangle_net():
    return Network(nx.cycle_graph(3), echo_factory)


class TestNetwork:
    def test_construction(self, triangle_net):
        assert len(triangle_net) == 3
        assert triangle_net.m == 3
        assert len(triangle_net.channels) == 6  # two directed per edge

    def test_neighbors_sorted(self, triangle_net):
        assert triangle_net.neighbors(0) == (1, 2)

    def test_send_to_non_neighbor_raises(self):
        g = nx.path_graph(3)
        net = Network(g, echo_factory)
        with pytest.raises(ProtocolError):
            net.processes[0].send(2, Hello())

    def test_flush_outbox_moves_messages(self, triangle_net):
        proc = triangle_net.processes[0]
        proc.on_timeout()
        moved = triangle_net.flush_outbox(0)
        assert moved == 2
        assert triangle_net.pending_messages() == 2

    def test_quiescence(self, triangle_net):
        assert triangle_net.is_quiescent()
        triangle_net.processes[1].on_timeout()
        assert not triangle_net.is_quiescent()

    def test_state_and_message_accounting(self, triangle_net):
        assert triangle_net.max_state_bits() == 32
        assert triangle_net.total_state_bits() == 96
        assert triangle_net.max_graph_degree() == 2

    def test_snapshots(self, triangle_net):
        snaps = triangle_net.snapshots()
        assert set(snaps) == {0, 1, 2}
        assert snaps[0]["received"] == 0


class TestSchedulers:
    @pytest.mark.parametrize("scheduler", [SynchronousScheduler(),
                                           RandomAsyncScheduler(seed=1),
                                           AdversarialScheduler(slow_links=[(0, 1)],
                                                                max_delay=2, seed=1)])
    def test_one_round_gives_every_node_a_timeout(self, scheduler):
        net = Network(nx.cycle_graph(4), echo_factory)
        stats = scheduler.run_round(net)
        assert stats.timeouts == 4
        assert stats.steps >= 4

    def test_synchronous_delivers_previous_round_messages(self):
        net = Network(nx.cycle_graph(4), echo_factory)
        sched = SynchronousScheduler()
        sched.run_round(net)   # round 1: everyone greets
        sched.run_round(net)   # round 2: greetings delivered
        assert all(net.processes[v].received == 2 for v in net.node_ids)

    def test_random_scheduler_is_seeded(self):
        def run(seed):
            net = Network(nx.cycle_graph(5), echo_factory)
            sched = RandomAsyncScheduler(seed=seed)
            trace = TraceRecorder()
            trace.start_round(0)
            sched.run_round(net, trace)
            return [(e.kind, e.node, e.sender) for e in trace.events]
        assert run(3) == run(3)

    def test_adversarial_scheduler_delays_slow_link(self):
        net = Network(nx.path_graph(2), echo_factory)
        sched = AdversarialScheduler(slow_links=[(0, 1)], max_delay=4)
        for _ in range(3):
            sched.run_round(net)
        # messages from 0 to 1 were withheld: node 1 received fewer than node 0
        assert net.processes[1].received < net.processes[0].received
        # ... but the backlog is released within max_delay rounds (fairness)
        for _ in range(4):
            sched.run_round(net)
        assert net.processes[1].received > 0

    def test_adversarial_requires_positive_delay(self):
        with pytest.raises(SchedulerError):
            AdversarialScheduler(max_delay=0)

    def test_make_scheduler_factory(self):
        assert isinstance(make_scheduler("synchronous"), SynchronousScheduler)
        assert isinstance(make_scheduler("random", seed=1), RandomAsyncScheduler)
        assert isinstance(make_scheduler("adversarial"), AdversarialScheduler)
        with pytest.raises(SchedulerError):
            make_scheduler("no_such_daemon")


class TestSimulator:
    def test_runs_fixed_rounds_without_legitimacy(self):
        net = Network(nx.cycle_graph(4), echo_factory)
        sim = Simulator(net)
        report = sim.run(max_rounds=5)
        assert report.rounds == 5
        assert report.converged  # vacuously true without a predicate

    def test_convergence_with_predicate(self):
        net = Network(nx.cycle_graph(4), echo_factory)
        legit = lambda n: all(p.received >= 4 for p in n.processes.values())
        sim = Simulator(net, legitimacy=legit, stability_window=2)
        report = sim.run(max_rounds=50)
        assert report.converged
        assert report.convergence_round is not None
        assert report.convergence_round < 50

    def test_budget_exhaustion_reports_not_converged(self):
        net = Network(nx.cycle_graph(4), echo_factory)
        sim = Simulator(net, legitimacy=lambda n: False)
        report = sim.run(max_rounds=3)
        assert not report.converged

    def test_invariant_monitor_raises(self):
        from repro.exceptions import SimulationError
        net = Network(nx.cycle_graph(3), echo_factory)
        sim = Simulator(net, invariants=[("never", lambda n: False)])
        with pytest.raises(SimulationError):
            sim.step_round()

    def test_trace_records_message_types(self):
        net = Network(nx.cycle_graph(3), echo_factory)
        trace = TraceRecorder()
        sim = Simulator(net, trace=trace)
        report = sim.run(max_rounds=3)
        assert report.deliveries_by_type().get("Hello", 0) > 0
        assert sum(e.kind == "timeout" for e in trace.events) == 9
        assert any(e.kind == "deliver" for e in trace.events)
