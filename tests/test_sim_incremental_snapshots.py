"""Equivalence tests for the dirty-set incremental snapshot kernel.

The property at stake: after *any* interleaving of sends, deliveries,
corruptions, fault-style out-of-band writes, enable/disable toggles,
cache-churning snapshot reads **and live topology events** (node/edge churn
through the network mutation APIs), the incrementally maintained
``Network.snapshots()`` / ``Network.snapshot_key()`` must equal a
from-scratch recomputation -- against the network's own processes, against
a fresh identical network driven through the same operations, and against a
fresh network *built from the mutated graph* with the live state installed.

Also covers the satellites that ride on the same plumbing: the read-only
snapshot views, the targeted ``note_state_write(node)`` invalidation, the
O(1) quiescence counter and the interned gossip payload.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.messages import MInfo
from repro.graphs import make_graph
from repro.protocols import PROTOCOLS, ProtocolRunConfig
from repro.sim import Network, SynchronousScheduler
from repro.sim.faults import corrupt_channels, corrupt_states
from repro.sim.scheduler import RoundStats

SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

FAMILIES = ("wheel", "cycle", "erdos_renyi_sparse", "two_hub")

#: Every registry entry runs through the equivalence property: the kernel's
#: incremental snapshot plumbing is protocol-agnostic and must stay correct
#: for any process type, not just the MDST node.
PROTOCOL_NAMES = ("mdst", "spanning_tree", "pif_max_degree")

#: Per-protocol targeted out-of-band state write (op code 6): each pokes a
#: snapshot-visible variable directly, bypassing the message layer, the way
#: a fault-injection hook would.
POKES = {
    "mdst": lambda proc, b, n: setattr(proc.s, "root", b % (n + 2)),
    "spanning_tree": lambda proc, b, n: setattr(proc.s, "root", b % (n + 2)),
    "pif_max_degree": lambda proc, b, n: setattr(proc, "sub_max", b % (n + 2)),
}


def scratch_snapshots(net: Network) -> dict:
    """Per-node snapshots recomputed directly from the processes."""
    return {v: net.processes[v].snapshot() for v in net.node_ids}


def scratch_key(net: Network) -> tuple:
    """The canonical fingerprint recomputed from scratch (pre-refactor code)."""
    return tuple((v, tuple(sorted(snap.items())))
                 for v, snap in scratch_snapshots(net).items())


def build_net(family: str, n: int, seed: int, protocol: str = "mdst") -> Network:
    graph = make_graph(family, n, seed=seed)
    return PROTOCOLS[protocol].build_network(
        graph, ProtocolRunConfig(protocol=protocol, seed=seed))


def apply_op(net: Network, sched: SynchronousScheduler, op: tuple, index: int,
             protocol: str = "mdst") -> None:
    """Apply one mutation/read operation; deterministic given (op, index).

    Topology operations (codes 10-13) stay connectivity-preserving so the
    mutated graph is always a legal :class:`Network` input.
    """
    code, a, b = op
    n = net.n
    v = net.node_ids[a % n]
    if code == 0:                                   # one synchronous round
        sched.run_round(net)
    elif code == 1:                                 # deliver one pending message
        deliveries = net.enabled_deliveries()
        if deliveries:
            src, dst, _ = deliveries[b % len(deliveries)]
            sched._deliver_one(net, src, dst, None, RoundStats())
    elif code == 2:                                 # timeout step of one node
        if net.node_enabled(v):
            sched._timeout_one(net, v, None, RoundStats())
    elif code == 3:                                 # transient fault: corrupt one node
        corrupt_states(net, np.random.default_rng(1000 + index), nodes=[v])
    elif code == 4:                                 # garbage on the channels
        corrupt_channels(net, np.random.default_rng(2000 + index), fraction=0.3)
    elif code == 5:                                 # enable/disable toggle
        net.set_node_enabled(v, not net.node_enabled(v))
    elif code == 6:                                 # targeted out-of-band write
        POKES[protocol](net.processes[v], b, n)
        net.note_state_write(v)
    elif code == 7:                                 # blanket out-of-band notification
        net.note_state_write()
    elif code == 8:                                 # churn the snapshot cache
        net.snapshots()
    elif code == 9:                                 # churn the key cache
        net.snapshot_key()
    elif code == 10:                                # topology: add an edge
        absent = sorted((u, w) for u in net.node_ids for w in net.node_ids
                        if u < w and not net.has_edge(u, w))
        if absent:
            net.add_edge(*absent[b % len(absent)])
    elif code == 11:                                # topology: remove a non-bridge edge
        bridges = {tuple(sorted(e)) for e in nx.bridges(net.graph)}
        removable = sorted(e for e in
                           (tuple(sorted(edge)) for edge in net.graph.edges)
                           if e not in bridges)
        if removable:
            net.remove_edge(*removable[b % len(removable)])
    elif code == 12:                                # topology: a node joins
        attach = sorted({net.node_ids[a % n], net.node_ids[b % n]})
        net.add_node(max(net.node_ids) + 1, attach)
    else:                                           # topology: a node leaves
        if net.n > 3:
            cut = set(nx.articulation_points(net.graph))
            leavable = [u for u in net.node_ids if u not in cut]
            if leavable:
                net.remove_node(leavable[a % len(leavable)])


ops_strategy = st.lists(
    st.tuples(st.integers(0, 13), st.integers(0, 63), st.integers(0, 63)),
    min_size=1, max_size=25)


class TestIncrementalEquivalence:
    @SETTINGS
    @given(protocol=st.sampled_from(PROTOCOL_NAMES),
           family=st.sampled_from(FAMILIES), n=st.integers(5, 9),
           seed=st.integers(0, 5), ops=ops_strategy)
    def test_matches_scratch_recomputation(self, protocol, family, n, seed, ops):
        net = build_net(family, n, seed, protocol)
        sched = SynchronousScheduler()
        for index, op in enumerate(ops):
            apply_op(net, sched, op, index, protocol)
            assert dict(net.snapshots()) == scratch_snapshots(net)
            assert net.snapshot_key() == scratch_key(net)

    @SETTINGS
    @given(protocol=st.sampled_from(PROTOCOL_NAMES),
           family=st.sampled_from(FAMILIES), n=st.integers(5, 9),
           seed=st.integers(0, 5), ops=ops_strategy)
    def test_matches_fresh_identical_network(self, protocol, family, n, seed, ops):
        """Replaying the ops on a fresh identical network yields the same
        snapshots and fingerprint, regardless of when each network's caches
        were (re)built."""
        net_a = build_net(family, n, seed, protocol)
        net_b = build_net(family, n, seed, protocol)
        sched_a = SynchronousScheduler()
        sched_b = SynchronousScheduler()
        for index, op in enumerate(ops):
            apply_op(net_a, sched_a, op, index, protocol)
        for index, op in enumerate(ops):
            apply_op(net_b, sched_b, op, index, protocol)
            net_b.snapshot_key()        # rebuild B's caches at every step
        assert dict(net_a.snapshots()) == dict(net_b.snapshots())
        assert net_a.snapshot_key() == net_b.snapshot_key()

    @SETTINGS
    @given(family=st.sampled_from(FAMILIES), n=st.integers(5, 9),
           seed=st.integers(0, 5), ops=ops_strategy)
    def test_matches_network_rebuilt_from_mutated_graph(self, family, n, seed, ops):
        """Post-churn cache coherence: after any interleaving of topology
        events, deliveries and corruptions, the live network's
        ``snapshots()``/``snapshot_key()`` equal those of a *fresh* network
        built from the mutated graph with the same protocol state installed
        -- no incremental structure leaks state from dead nodes or edges."""
        net = build_net(family, n, seed)
        sched = SynchronousScheduler()
        for index, op in enumerate(ops):
            apply_op(net, sched, op, index)
        fresh = Network(net.graph.copy(),
                        lambda v, nbrs: _clone_process(net.processes[v], nbrs))
        assert fresh.node_ids == net.node_ids
        assert fresh.adjacency == net.adjacency
        assert set(fresh.channels) == set(net.channels)
        assert dict(fresh.snapshots()) == dict(net.snapshots())
        assert fresh.snapshot_key() == net.snapshot_key()


def _clone_process(proc, neighbors):
    """A fresh MDSTNode over ``neighbors`` carrying ``proc``'s protocol state."""
    from repro.core.node_algorithm import MDSTNode

    clone = MDSTNode(proc.node_id, neighbors, n_upper=proc.n_upper)
    src, dst = proc.s, clone.s
    for name in ("root", "parent", "distance", "sub_max", "dmax", "color"):
        setattr(dst, name, getattr(src, name))
    assert set(src.view) == set(dst.view)
    for u, sv in src.view.items():
        dv = dst.view[u]
        for name in ("root", "parent", "distance", "degree", "sub_max",
                     "dmax", "color", "heard"):
            setattr(dv, name, getattr(sv, name))
    return clone


class TestReadOnlySnapshots:
    def test_outer_mapping_rejects_writes(self):
        net = build_net("wheel", 6, 0)
        snaps = net.snapshots()
        with pytest.raises(TypeError):
            snaps[0] = {}                           # type: ignore[index]

    def test_inner_mapping_rejects_writes(self):
        net = build_net("wheel", 6, 0)
        snaps = net.snapshots()
        with pytest.raises(TypeError):
            snaps[0]["root"] = 99                   # type: ignore[index]

    def test_misbehaving_reader_cannot_corrupt_the_cache(self):
        """Even a reader that defeats the proxy via dict() copies cannot
        reach the cached dicts: mutating the copy leaves the cache intact."""
        net = build_net("wheel", 6, 0)
        mutated = {v: dict(snap) for v, snap in net.snapshots().items()}
        mutated[0]["root"] = 12345
        assert dict(net.snapshots()) == scratch_snapshots(net)
        assert net.snapshots()[0]["root"] != 12345


class TestQuiescenceCounter:
    def test_tracks_ground_truth_across_a_run(self):
        net = build_net("erdos_renyi_sparse", 8, 3)
        sched = SynchronousScheduler()

        def scan(network: Network) -> bool:
            return (sum(len(c) for c in network.channels.values()) == 0
                    and all(len(p.outbox) == 0
                            for p in network.processes.values()))

        assert net.is_quiescent() == scan(net)
        for _ in range(6):
            sched.run_round(net)
            assert net.is_quiescent() == scan(net)

    def test_unflushed_outbox_blocks_quiescence(self):
        net = build_net("cycle", 5, 0)
        assert net.is_quiescent()
        net.processes[0].on_timeout()               # fills the outbox, no flush
        assert not net.is_quiescent()
        net.flush_outbox(0)                         # outbox -> channels
        assert not net.is_quiescent()
        while net.pending_messages():
            src, dst, _ = net.enabled_deliveries()[0]
            SynchronousScheduler._deliver_one(net, src, dst, None, RoundStats())
        # delivered messages may have triggered replies; drain fully
        for _ in range(200):
            if net.is_quiescent():
                break
            deliveries = net.enabled_deliveries()
            if not deliveries:
                break
            src, dst, _ = deliveries[0]
            SynchronousScheduler._deliver_one(net, src, dst, None, RoundStats())
        assert net.is_quiescent() == (
            net.pending_messages() == 0
            and all(len(p.outbox) == 0 for p in net.processes.values()))


class TestTargetedInvalidation:
    def test_note_state_write_single_node(self):
        net = build_net("wheel", 6, 0)
        net.snapshot_key()
        net.processes[3].s.distance = 41
        net.note_state_write(3)
        assert net.snapshot_key() == scratch_key(net)
        assert net.snapshots()[3]["distance"] == 41

    def test_unchanged_configuration_reuses_key_object(self):
        net = build_net("wheel", 6, 0)
        k0 = net.snapshot_key()
        net.note_state_write()                      # version bump, same state
        assert net.snapshot_key() is k0


class TestGossipInterning:
    def test_stable_state_reuses_minfo_object(self):
        net = build_net("cycle", 5, 0)
        node = net.processes[0]
        node.on_timeout()
        first = [m for _, m in node.outbox.drain() if isinstance(m, MInfo)]
        node.on_timeout()
        second = [m for _, m in node.outbox.drain() if isinstance(m, MInfo)]
        assert first and second
        # state did not change between the two gossips: same interned object
        assert first[0] is second[0]

    def test_changed_state_mints_a_new_minfo(self):
        net = build_net("cycle", 5, 0)
        node = net.processes[0]
        node.on_timeout()
        first = [m for _, m in node.outbox.drain() if isinstance(m, MInfo)][0]
        # Observable change that survives the pre-gossip refresh: neighbour 1
        # becomes a child, so the gossiped tree degree changes.
        view = node.s.view[1]
        view.heard = True
        view.parent = 0
        view.root = 0
        view.distance = 1
        # An out-of-band write is reported, as the kernel contract asks:
        # the node was settled, and a settled node gossips its cached tree.
        net.note_state_write(0)
        node.on_timeout()
        second = [m for _, m in node.outbox.drain() if isinstance(m, MInfo)][0]
        assert second is not first
        assert second.degree != first.degree
