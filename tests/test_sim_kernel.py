"""Tests for the activity-aware simulation kernel.

Covers the kernel features added by the kernel refactor: the configuration
version, per-node enabled flags, the enabled-event set, quiescence
detection, the weighted-fair scheduler, the predicate cache, and the
``first_hold_round`` reset after mid-run faults; then the per-step message
accounting (its counters against a scan of the queues at every step
boundary) and pinned digests of object runs under every scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import SchedulerError, SimulationError
from repro.sim import (
    AdversarialScheduler,
    FaultPlan,
    Message,
    Network,
    PredicateCache,
    Process,
    RandomAsyncScheduler,
    Simulator,
    SynchronousScheduler,
    WeightedFairScheduler,
    make_scheduler,
)


@dataclass(frozen=True)
class Ping(Message):
    payload: int = 0


class CounterProcess(Process):
    """Greets all neighbours each timeout; counts receipts."""

    def __init__(self, node_id, neighbors):
        super().__init__(node_id, neighbors)
        self.received = 0

    def on_timeout(self):
        self.broadcast(Ping())

    def on_message(self, sender, message):
        self.received += 1

    def corrupt(self, rng):
        self.received = int(rng.integers(0, 100))

    def snapshot(self):
        return {"received": self.received}


class SilentProcess(Process):
    """Never sends anything (used for quiescence tests)."""

    def on_timeout(self):
        pass

    def on_message(self, sender, message):
        pass

    def snapshot(self):
        return {}


def counter_factory(node_id, neighbors):
    return CounterProcess(node_id, neighbors)


def silent_factory(node_id, neighbors):
    return SilentProcess(node_id, neighbors)


class TestConfigurationVersion:
    def test_send_and_deliver_bump_version(self):
        net = Network(nx.path_graph(2), counter_factory)
        v0 = net.version
        net.processes[0].on_timeout()
        net.flush_outbox(0)                    # one send
        assert net.version > v0
        v1 = net.version
        SynchronousScheduler().run_round(net)  # deliveries + timeouts
        assert net.version > v1

    def test_note_state_write_bumps_and_invalidates(self):
        net = Network(nx.path_graph(2), counter_factory)
        snaps = net.snapshots()
        assert net.snapshots() is snaps        # cached at same version
        net.processes[0].received = 7          # out-of-band mutation
        net.note_state_write()
        fresh = net.snapshots()
        assert fresh is not snaps
        assert fresh[0]["received"] == 7

    def test_snapshot_key_tracks_observable_state(self):
        net = Network(nx.path_graph(2), counter_factory)
        k0 = net.snapshot_key()
        net.note_state_write()                 # version bump, same state
        assert net.snapshot_key() == k0
        net.processes[1].received = 3
        net.note_state_write()
        assert net.snapshot_key() != k0


class TestEnabledEvents:
    def test_default_event_set(self):
        net = Network(nx.cycle_graph(3), counter_factory)
        events = net.enabled_events()
        assert events.timeouts == (0, 1, 2)
        assert events.deliveries == ()
        net.processes[0].on_timeout()
        net.flush_outbox(0)
        events = net.enabled_events()
        assert set(events.deliveries) == {(0, 1, 1), (0, 2, 1)}
        assert events.total == 5

    def test_pending_counters_stay_consistent(self):
        net = Network(nx.cycle_graph(4), counter_factory)
        sched = SynchronousScheduler()
        for _ in range(3):
            sched.run_round(net)
            assert net.pending_messages() == sum(len(c) for c in net.channels.values())
            active = {c.endpoints for c in net.pending_channels()}
            assert active == {k for k, c in net.channels.items() if c}

    def test_disabled_node_takes_no_steps(self):
        net = Network(nx.cycle_graph(3), counter_factory)
        net.set_node_enabled(1, False)
        sched = SynchronousScheduler()
        sched.run_round(net)  # everyone else gossips
        sched.run_round(net)  # deliveries happen, but not to node 1
        assert net.processes[1].steps_taken == 0
        assert net.processes[1].received == 0
        # messages addressed to the disabled node stay queued
        assert len(net.channel(0, 1)) > 0
        # re-enabling restores delivery
        net.set_node_enabled(1, True)
        sched.run_round(net)
        assert net.processes[1].received > 0

    def test_set_enabled_unknown_node_rejected(self):
        net = Network(nx.path_graph(2), counter_factory)
        with pytest.raises(SimulationError):
            net.set_node_enabled(99, False)


class TestQuiescence:
    def test_all_enabled_is_never_quiescent(self):
        net = Network(nx.path_graph(2), silent_factory)
        assert net.has_enabled_events()

    def test_all_disabled_silent_network_is_quiescent(self):
        net = Network(nx.path_graph(2), silent_factory)
        for v in net.node_ids:
            net.set_node_enabled(v, False)
        assert not net.has_enabled_events()

    def test_simulator_short_circuits_on_quiescence(self):
        net = Network(nx.path_graph(2), silent_factory)
        for v in net.node_ids:
            net.set_node_enabled(v, False)
        report = Simulator(net).run(max_rounds=1000)
        assert report.rounds == 0
        assert report.quiescent

    def test_pending_message_to_disabled_node_is_quiescent(self):
        net = Network(nx.path_graph(2), counter_factory)
        net.processes[0].on_timeout()
        net.flush_outbox(0)
        for v in net.node_ids:
            net.set_node_enabled(v, False)
        # the queued message cannot be delivered: no enabled event remains
        assert not net.has_enabled_events()

    def test_unflushable_outbox_is_quiescent(self):
        """With all nodes disabled an un-flushed outbox can never be flushed,
        so it must not keep the round loop alive."""
        net = Network(nx.path_graph(2), counter_factory)
        net.processes[0].on_timeout()  # fills the outbox, no flush
        for v in net.node_ids:
            net.set_node_enabled(v, False)
        assert not net.has_enabled_events()
        report = Simulator(net).run(max_rounds=1000)
        assert report.rounds == 0
        assert report.quiescent


class TestWeightedFairScheduler:
    def test_weights_multiply_timeouts(self):
        net = Network(nx.cycle_graph(4), counter_factory)
        sched = WeightedFairScheduler(weights={0: 3, 2: 2})
        stats = sched.run_round(net)
        assert stats.timeouts == 3 + 1 + 2 + 1
        assert net.processes[0].steps_taken == 3
        assert net.processes[1].steps_taken == 1

    def test_weak_fairness_every_node_steps(self):
        net = Network(nx.cycle_graph(5), counter_factory)
        sched = WeightedFairScheduler(weights={0: 4})
        sched.run_round(net)
        assert all(net.processes[v].steps_taken >= 1 for v in net.node_ids)

    def test_default_weight_matches_synchronous(self):
        g = nx.cycle_graph(4)
        a, b = Network(g, counter_factory), Network(g, counter_factory)
        sync, weighted = SynchronousScheduler(), WeightedFairScheduler()
        for _ in range(4):
            sa, sb = sync.run_round(a), weighted.run_round(b)
            assert (sa.steps, sa.deliveries, sa.timeouts) == (sb.steps, sb.deliveries, sb.timeouts)
        assert [a.processes[v].received for v in a.node_ids] == \
               [b.processes[v].received for v in b.node_ids]

    def test_invalid_weights_rejected(self):
        with pytest.raises(SchedulerError):
            WeightedFairScheduler(default_weight=0)
        net = Network(nx.path_graph(2), counter_factory)
        sched = WeightedFairScheduler(weights={0: 0})
        with pytest.raises(SchedulerError):
            sched.run_round(net)

    def test_factory_builds_weighted(self):
        sched = make_scheduler("weighted", weights={1: 2})
        assert isinstance(sched, WeightedFairScheduler)
        assert sched.weight(1) == 2
        assert sched.weight(0) == 1


class TestPredicateCache:
    def test_skips_reevaluation_on_unchanged_configuration(self):
        net = Network(nx.path_graph(2), silent_factory)
        calls = []
        cache = PredicateCache(lambda n: calls.append(1) or True)
        assert cache(net) is True
        assert cache(net) is True
        assert len(calls) == 1
        assert cache.hits == 1
        net.processes[0].received = 1  # SilentProcess has empty snapshot...
        net.note_state_write()
        assert cache(net) is True      # snapshot unchanged -> still cached
        assert len(calls) == 1

    def test_reevaluates_on_observable_change(self):
        net = Network(nx.path_graph(2), counter_factory)
        evals = []
        cache = PredicateCache(lambda n: evals.append(1) or n.processes[0].received >= 1)
        assert cache(net) is False
        net.processes[0].received = 1
        net.note_state_write()
        assert cache(net) is True
        assert len(evals) == 2

    def test_cached_and_uncached_runs_agree(self):
        """The cache may only skip redundant evaluations, never change results."""
        g = nx.cycle_graph(5)
        legit = lambda n: all(p.received >= 6 for p in n.processes.values())
        reports = []
        for cached in (True, False):
            net = Network(g, counter_factory)
            sim = Simulator(net, legitimacy=legit, stability_window=3,
                            cache_predicate=cached)
            reports.append(sim.run(max_rounds=50))
        a, b = reports
        assert (a.converged, a.rounds, a.convergence_round, a.steps,
                a.deliveries, a.messages_sent) == \
               (b.converged, b.rounds, b.convergence_round, b.steps,
                b.deliveries, b.messages_sent)
        assert a.predicate_cache_hits + a.predicate_evaluations >= b.rounds
        assert b.predicate_evaluations == 0  # uncached simulator reports zero


class TestLegitimacyMemoIsolation:
    def test_predicate_reuse_across_graphs_is_safe(self):
        """One predicate judges each network against its own graph: the
        same edge set on a different graph must be re-judged."""
        from repro.core.legitimacy import make_mdst_legitimacy
        from repro.protocols import ProtocolRunConfig, get_protocol
        from repro.protocols.mdst import initialize_from_tree

        star_edges = [(0, 1), (0, 2), (0, 3)]
        g_star = nx.Graph(star_edges)
        g_chord = nx.Graph(star_edges + [(1, 2)])
        legit = make_mdst_legitimacy()
        mdst = get_protocol("mdst")
        net_star = mdst.build_network(g_star, ProtocolRunConfig())
        initialize_from_tree(net_star, star_edges)
        assert legit(net_star)  # K1,3 star: no non-tree edge, fixpoint
        net_chord = mdst.build_network(g_chord, ProtocolRunConfig())
        initialize_from_tree(net_chord, star_edges)
        # same induced tree edges, but the chord (1,2) makes the hub
        # improvable: a verdict carried over from the star would say True
        assert not legit(net_chord)


class TestFirstHoldRoundReset:
    def test_convergence_round_never_predates_last_fault(self):
        """Regression: a late fault that leaves the predicate holding must not
        let the reported convergence round predate the fault (the stale
        ``first_hold_round`` bug)."""
        net = Network(nx.cycle_graph(3), counter_factory)
        # A fault event that corrupts nothing: the predicate keeps holding
        # through it, which is exactly the scenario that leaked the stale
        # first_hold_round before the fix.
        plan = FaultPlan().add(round_index=5, node_fraction=0.0)
        sim = Simulator(net, legitimacy=lambda n: True, stability_window=2,
                        fault_plan=plan)
        report = sim.run(max_rounds=100)
        assert report.converged
        assert report.fault_rounds == [5]
        assert report.convergence_round is not None
        assert report.convergence_round >= 5

    def test_reset_stability_clears_everything(self):
        from repro.sim import ConvergenceMonitor
        net = Network(nx.path_graph(2), counter_factory)
        monitor = ConvergenceMonitor(lambda n: True, stability_window=1)
        monitor.observe(net, 1)
        assert monitor.converged and monitor.first_hold_round == 1
        monitor.reset_stability()
        assert not monitor.converged
        assert monitor.consecutive_holds == 0
        assert monitor.first_hold_round is None


# -- object-kernel digests ------------------------------------------------------

#: md5 of :func:`_kernel_run_digest` per scheduler, pinned before the kernel
#: moved its per-message accounting from channel callbacks onto the step
#: path.  The adversarial and weighted schedulers have no array twin, so
#: these digests are what pins their object runs step for step.
KERNEL_RUN_MD5 = {
    "synchronous": "9916494d9e5dea872df9cd42c8ef2a99",
    "random": "7314f79d55ad4868410926cedf3138df",
    "adversarial": "6131809a6b6e2eac7e0c553708c1a699",
    "weighted": "33aaaed10c31ffa383b3c5ef86288d41",
}


def _kernel_run_digest(kind: str) -> str:
    """Run MDST from a corrupted start (garbage on half the channels, a
    mid-run fault preloading more) and digest what the kernel counted:
    rounds, every round's :class:`RoundStats` with ``by_type``, the final
    tree edges and every node's ``steps_taken``."""
    import hashlib
    import json

    from repro.core.legitimacy import current_tree_edges, make_mdst_legitimacy
    from repro.graphs import make_graph
    from repro.protocols import ProtocolRunConfig, get_protocol
    from repro.sim.faults import corrupt_everything

    graph = make_graph("erdos_renyi_sparse", 10, seed=4)
    net = get_protocol("mdst").build_network(graph, ProtocolRunConfig(seed=4))
    corrupt_everything(net, np.random.default_rng(4))
    edges = sorted(net.channels)
    scheduler = make_scheduler(kind, seed=4, slow_links=edges[::3],
                               max_delay=3, weights={0: 3, 5: 2})
    plan = FaultPlan().add(round_index=40, node_fraction=0.3,
                           channel_fraction=0.3)
    sim = Simulator(net, scheduler=scheduler,
                    legitimacy=make_mdst_legitimacy(), stability_window=5,
                    fault_plan=plan, rng=np.random.default_rng(5))
    report = sim.run(max_rounds=400)
    payload = {
        "rounds": report.rounds,
        "round_stats": [(s.steps, s.deliveries, s.timeouts, s.messages_sent,
                         sorted(s.by_type.items()))
                        for s in report.round_stats],
        "tree": sorted(current_tree_edges(net)),
        "steps_taken": [net.processes[v].steps_taken for v in net.node_ids],
    }
    return hashlib.md5(json.dumps(payload).encode()).hexdigest()


@pytest.mark.parametrize("kind", sorted(KERNEL_RUN_MD5))
def test_object_kernel_runs_match_their_pinned_digest(kind):
    assert _kernel_run_digest(kind) == KERNEL_RUN_MD5[kind]


# -- per-step accounting against a scan ----------------------------------------

def _assert_counters_match_a_scan(net: Network) -> None:
    """The kernel's incremental counters equal a scan of the queues."""
    channels = net.channels
    pending = sum(len(c) for c in channels.values())
    assert net.pending_messages() == pending
    assert ({c.key for c in net.pending_channels()}
            == {key for key, c in channels.items() if c})
    assert net.is_quiescent() == (
        pending == 0 and all(len(p.outbox) == 0
                             for p in net.processes.values()))
    # ``channels`` iterates in creation order, the order of the event set.
    assert net.enabled_deliveries() == [
        (src, dst, len(c)) for (src, dst), c in channels.items()
        if c and net.node_enabled(dst)]


def _checked(net: Network, scheduler_cls, seen: dict):
    """``scheduler_cls`` checking the counters at every step boundary of
    ``net`` and remembering every channel it saw (edge churn retires
    channels).  A receipt step is checked before its pop (the previous
    step is complete there), a timeout before and after."""

    def at_boundary(network):
        _assert_counters_match_a_scan(network)
        seen.update((id(c), c) for c in network.channels.values())

    pop = net.pop

    def checked_pop(channel):
        at_boundary(net)
        return pop(channel)

    net.pop = checked_pop

    class Checked(scheduler_cls):
        def _timeout_one(self, network, *args, **kwargs):
            at_boundary(network)
            scheduler_cls._timeout_one(network, *args, **kwargs)
            at_boundary(network)

    return Checked


_SCHEDULER_CLASSES = {
    "synchronous": (SynchronousScheduler, {}),
    "random": (RandomAsyncScheduler, {"seed": 3}),
    "adversarial": (AdversarialScheduler, {"max_delay": 2}),
    "weighted": (WeightedFairScheduler, {"weights": {0: 2, 3: 3}}),
}


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.sampled_from(sorted(_SCHEDULER_CLASSES)),
       seed=st.integers(0, 2**16),
       garbage=st.sampled_from([0.0, 0.3, 0.8]),
       loss=st.sampled_from([0.0, 0.15]),
       dup=st.sampled_from([0.0, 0.15]),
       reorder=st.sampled_from([0.0, 0.3]),
       churn=st.booleans())
def test_per_step_accounting_matches_a_scan(kind, seed, garbage, loss, dup,
                                            reorder, churn):
    """After every step of every scheduler the pending count, the active
    set, ``is_quiescent`` and the enabled deliveries equal a scan of the
    queues, under fault preloads, edge churn and a lossy, duplicating,
    reordering channel model; summed over every channel the run saw, the
    channel statistics add up to the report's counts."""
    from repro.graphs import make_graph
    from repro.protocols import ProtocolRunConfig, get_protocol
    from repro.sim.adversary import (Adversary, NodeFaultModel,
                                     UnreliableChannelModel)
    from repro.sim.faults import corrupt_everything, random_churn_plan

    graph = make_graph("erdos_renyi_sparse", 8, seed=seed)
    net = get_protocol("mdst").build_network(
        graph, ProtocolRunConfig(seed=seed, n_upper=16))
    corrupt_everything(net, np.random.default_rng(seed),
                       channel_fraction=garbage)
    seen: dict = {}
    cls, kwargs = _SCHEDULER_CLASSES[kind]
    if kind == "adversarial":
        kwargs = dict(kwargs, slow_links=sorted(net.channels)[::2])
    scheduler = _checked(net, cls, seen)(**kwargs)
    model = UnreliableChannelModel(loss=loss, dup=dup, reorder=reorder,
                                   seed=seed)
    # Crash/recover toggles enabled flags (deliveries to a crashed node
    # stay queued); it stays off under churn, which may remove a victim.
    crashes = (None if churn
               else NodeFaultModel(crash_round=3, recover_after=3, seed=seed))
    plan = (random_churn_plan(graph, events=3, start_round=2, period=3,
                              seed=seed) if churn else None)
    faults = FaultPlan().add(round_index=4, node_fraction=0.3,
                             channel_fraction=0.5)
    sim = Simulator(net, scheduler=scheduler, fault_plan=faults,
                    churn_plan=plan,
                    adversary=Adversary(channel_model=model,
                                        node_faults=crashes),
                    rng=np.random.default_rng(seed + 1))
    report = sim.run(max_rounds=12)
    _assert_counters_match_a_scan(net)
    seen.update((id(c), c) for c in net.channels.values())
    stats = [c.stats for c in seen.values()]
    assert sum(s.delivered for s in stats) == report.deliveries
    assert (sum(s.sent for s in stats)
            == report.messages_sent - model.dropped + model.duplicated)
