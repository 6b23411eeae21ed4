"""Exactness guards for the per-hop hot paths of the object and array kernels.

The pieces of the per-message path below are written for speed and must
compute exactly what their plain forms compute:

* **Message sizing** -- :func:`repro.sim.messages.estimate_bits` and
  :meth:`Message.size_bits` share one sizer with exact-type fast paths,
  and ``size_bits`` of a protocol message reads its size from a table
  keyed by its exact class, ``n`` and its declared size shape.  The
  oracle below is the plain recursive ``isinstance`` chain the sizer
  replaced, kept verbatim; hypothesis checks both entry points against it
  on nested values of every supported kind, and on every protocol message
  type: two messages of one shape, one message at two ``n``, and a
  subclass that must not size by its parent's shape.
* **Node predicates** -- :meth:`MDSTNode.locally_stabilized` is fused into
  one pass over the view, and :meth:`TreeRules._apply_tree_rules` evaluates
  ``_new_root_candidate()`` once.  Both are checked against their clause
  by clause forms on corrupted states (and on the states a few synchronous
  rounds later), on the object and the array-backed state; the tree rules
  also on the standalone spanning-tree substrate, which shares them.
* **The fused slot pass** -- :meth:`ArrayKernel.refresh` runs a slot's
  rules and its control gate in one vectorized pass.  On corrupted array
  states with random disjoint rule and gate sets, on both sides of its
  dense/sparse switch, the gate verdicts must equal the scalar
  ``locally_stabilized()``, the rule rows the scalar ``MDSTNode._refresh``
  of an object twin, and every other row must stay untouched.
* **Settled rows** -- the slot engine skips the pass for a node whose
  columns the last pass marked settled and reads its gate verdict from
  ``locally_stab``, so a second pass over such a node must change nothing
  and its cached verdict must equal the scalar predicate; the one outcome
  that is no fixpoint (R3's distance-overflow reset) must stay unsettled,
  and every write to a node's columns must clear its flag.
* **Cached tree queries** -- a settled node answers ``tree_neighbors()``
  from a cache filled in its current settled stretch and ``degree`` from
  the column the pass wrote; through every write path and later passes,
  all tree queries must equal those of an object twin.
* **Settled object nodes** -- an ``MDSTNode`` whose last ``_refresh``
  wrote nothing skips the pass on its timeouts and on gossip that repeats
  its view row, keeps the flag across control steps that write nothing
  (a Search hop, a Deblock flood) and answers ``locally_stabilized()``
  and its tree neighbours from a cache.  Through rounds, corruption,
  direct writes reported by ``note_state_write`` and control deliveries,
  every node whose flag is set must be a fixpoint of ``_refresh`` whose
  cached answers equal fresh ones.
"""

from __future__ import annotations

import collections
import copy
import enum
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.messages import (Back, Deblock, MInfo, Remove, Reverse,
                                 Search, UpdateDist)
from repro.core.node_algorithm import MDSTNode
from repro.graphs.generators import GRAPH_FAMILIES
from repro.protocols import ProtocolRunConfig, get_protocol
from repro.protocols.mdst import initialize_isolated
from repro.sim.array_engine import (ArraySyncScheduler, get_ops,
                                    wrap_scheduler_for_array)
from repro.sim.array_kernel import ArrayNetwork
from repro.sim.faults import corrupt_states
from repro.sim.messages import (TYPE_TAG_BITS, GarbageMessage, estimate_bits,
                                id_bits)
from repro.sim.network import Network
from repro.sim.scheduler import (RandomAsyncScheduler, RoundStats, Scheduler,
                                 SynchronousScheduler)
from repro.stabilization.spanning_tree import (TreeRules,
                                               spanning_tree_process_factory)

MDST = get_protocol("mdst")


# -- message sizing ------------------------------------------------------------

def oracle_bits(value: Any, n: int) -> int:
    """The ``isinstance``-chain sizer, as it stood before the fast paths."""
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return id_bits(n)
    if isinstance(value, float):
        return 32
    if isinstance(value, str):
        return 8 * len(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        total = id_bits(n)
        for item in value:
            total += oracle_bits(item, n)
        return total
    if isinstance(value, dict):
        total = id_bits(n)
        for k, v in value.items():
            total += oracle_bits(k, n) + oracle_bits(v, n)
        return total
    if is_dataclass(value) and not isinstance(value, type):
        return sum(oracle_bits(getattr(value, f.name), n)
                   for f in fields(value) if not f.name.startswith("_"))
    return id_bits(n)


def oracle_size_bits(message, n: int) -> int:
    """``Message.size_bits`` spelled with the oracle: tag + payload fields."""
    return TYPE_TAG_BITS + sum(oracle_bits(getattr(message, f.name), n)
                               for f in fields(message)
                               if not f.name.startswith("_"))


class Colour(enum.IntEnum):
    RED = 1
    BLUE = 7


@dataclass(frozen=True)
class Point:
    """A plain (non-message) dataclass with a private field."""

    x: Any
    y: Any
    _hidden: int = 12345


ids = st.integers(min_value=-3, max_value=70)
hashables = st.one_of(
    st.none(), st.booleans(), ids, st.sampled_from(list(Colour)),
    st.text(max_size=5), st.tuples(ids, ids))
scalars = st.one_of(
    st.none(), st.booleans(), ids, st.sampled_from(list(Colour)),
    ids.map(np.int64), st.floats(allow_nan=False), st.text(max_size=6),
    st.builds(object))
pairs = st.tuples(ids, ids)


def _nest(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.sets(hashables, max_size=5),
        st.frozensets(hashables, max_size=5),
        st.dictionaries(hashables, children, max_size=4),
        st.builds(Point, children, children),
        st.lists(children, max_size=4).map(
            lambda xs: GarbageMessage(payload=tuple(xs))),
        st.builds(Search, init_edge=pairs,
                  idblock=st.one_of(st.none(), ids),
                  path=st.lists(pairs, max_size=6).map(tuple),
                  visited=st.lists(ids, max_size=6).map(tuple)),
    )


values = st.recursive(scalars, _nest, max_leaves=25)
sizes = st.integers(min_value=1, max_value=5000)


@settings(max_examples=200, deadline=None)
@given(value=values, n=sizes)
def test_estimate_bits_matches_the_oracle(value, n):
    assert estimate_bits(value, n) == oracle_bits(value, n)


@settings(max_examples=100, deadline=None)
@given(payload=st.lists(values, max_size=4), n=sizes)
def test_size_bits_matches_the_oracle(payload, n):
    message = GarbageMessage(payload=tuple(payload))
    assert message.size_bits(n) == oracle_size_bits(message, n)
    # The cached value is the same answer, and a new n is re-sized.
    assert message.size_bits(n) == oracle_size_bits(message, n)
    assert message.size_bits(n + 1) == oracle_size_bits(message, n + 1)


@dataclass(frozen=True)
class TaggedSearch(Search):
    """A plain frozen-dataclass subclass adding a variable-length field: it
    must not size by the ``Search`` shape, which ignores ``tags``."""

    tags: Tuple[int, ...] = ()


@settings(max_examples=100, deadline=None)
@given(edge=pairs, block=st.one_of(st.none(), ids),
       path=st.lists(pairs, max_size=20), visited=st.lists(ids, max_size=20),
       cyc=st.lists(ids, max_size=12), flag=st.booleans(), n=sizes,
       other_n=sizes, shift=st.integers(min_value=1, max_value=50),
       tags=st.lists(st.lists(ids, max_size=6), min_size=2, max_size=3))
def test_protocol_message_sizes_match_the_oracle(edge, block, path, visited,
                                                 cyc, flag, n, other_n, shift,
                                                 tags):
    def every_type(edge, block, path, visited, cyc, flag):
        return [
            Search(init_edge=edge, idblock=block, path=tuple(path),
                   visited=tuple(visited)),
            Remove(init_edge=edge, deg_max=edge[0], target_edge=edge,
                   path=tuple(cyc), reversing=flag),
            Back(init_edge=edge, path=tuple(cyc), position=len(cyc)),
            MInfo(root=edge[0], parent=edge[1], distance=len(path), degree=3,
                  sub_max=4, dmax=5, color=flag),
            Deblock(idblock=edge[0]),
            Reverse(target=edge[1]),
            UpdateDist(target_edge=edge, dist=len(cyc)),
        ]

    def moved(x):
        return x + shift

    # Every type, then the same shapes with other contents: the second
    # message of a shape is sized from the table the first one filled.
    first = every_type(edge, block, path, visited, cyc, flag)
    second = every_type(
        tuple(map(moved, edge)), None if block is None else moved(block),
        [tuple(map(moved, p)) for p in path], list(map(moved, visited)),
        list(map(moved, cyc)), not flag)
    # The first Search again, with and then without an ``idblock``.
    flipped = [Search(init_edge=edge, idblock=b, path=tuple(path),
                      visited=tuple(visited)) for b in (edge[0], None)]
    for message in first + second + flipped:
        assert message.size_bits(n) == oracle_size_bits(message, n)
    # The same message at a second n, and back.
    for message in first:
        assert message.size_bits(other_n) == oracle_size_bits(message, other_n)
        assert message.size_bits(n) == oracle_size_bits(message, n)
    # A subclass with the parent's shape but payloads of other sizes.
    for extra in tags:
        message = TaggedSearch(init_edge=edge, idblock=block,
                               path=tuple(path), visited=tuple(visited),
                               tags=tuple(extra))
        assert message.size_bits(n) == oracle_size_bits(message, n)


# -- node predicates -----------------------------------------------------------

def _locally_stabilized_by_clauses(node: MDSTNode) -> bool:
    """The paper's conjunction, one clause at a time."""
    color = node.s.color
    color_stabilized = all(v.color == color
                           for v in node.s.view.values() if v.heard)
    return bool(node.tree_stabilized() and color
                and node._degree_stabilized() and color_stabilized)


def _apply_tree_rules_three_guards(node: TreeRules) -> None:
    """``_apply_tree_rules`` with the candidate guard spelled out on R1 and
    R3: the reference its one-guard form must match."""
    st_ = node.s
    if node._new_root_candidate():                                   # R2
        node._create_new_root()
    if not node._new_root_candidate() and node._better_parent():     # R1
        candidates = [u for u, v in st_.view.items()
                      if v.heard and v.root < st_.root
                      and v.distance + 1 < node.n_upper]
        if candidates:
            best_root = min(st_.view[u].root for u in candidates)
            best = min(u for u in candidates if st_.view[u].root == best_root)
            st_.root = st_.view[best].root
            st_.parent = best
            st_.distance = st_.view[best].distance + 1
    if not node._new_root_candidate() and not node._coherent_distance():  # R3
        if st_.parent == node.node_id:
            st_.distance = 0
        else:
            pv = st_.view.get(st_.parent)
            if pv is not None and pv.heard:
                st_.distance = pv.distance + 1
        if st_.distance >= node.n_upper:
            node._create_new_root()


def _corrupted_network(backend: str, n: int, graph_seed: int,
                       corrupt_seed: int, rounds: int):
    """A network whose every node ran its ``corrupt`` hook, then ``rounds``
    synchronous rounds (which reach the stabilized states too).

    ``backend`` is ``object`` or ``array`` for MDST nodes, or
    ``spanning_tree`` for the standalone substrate's processes.
    """
    graph = GRAPH_FAMILIES["erdos_renyi_sparse"](n, seed=graph_seed)
    n_upper = n + 1
    if backend == "object":
        net = MDST.build_network(graph, ProtocolRunConfig(n_upper=n_upper))
    elif backend == "spanning_tree":
        net = Network(graph, spanning_tree_process_factory(n_upper=n_upper))
    else:
        net = ArrayNetwork(graph, n_upper=n_upper)
    rng = np.random.default_rng(corrupt_seed)
    for v in net.node_ids:
        net.processes[v].corrupt(rng)
    sched = SynchronousScheduler()
    for _ in range(rounds):
        sched.run_round(net)
    return net


def _tree_vars(node: TreeRules):
    return node.s.root, node.s.parent, node.s.distance


network_params = dict(
    n=st.integers(min_value=3, max_value=10),
    graph_seed=st.integers(min_value=0, max_value=10_000),
    corrupt_seed=st.integers(min_value=0, max_value=10_000),
    rounds=st.sampled_from([0, 0, 1, 3, 12, 40]),
)


@pytest.mark.parametrize("backend", ["object", "array"])
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(**network_params)
def test_fused_node_predicates_match_their_clauses(backend, n, graph_seed,
                                                   corrupt_seed, rounds):
    net = _corrupted_network(backend, n, graph_seed, corrupt_seed, rounds)
    for v in net.node_ids:
        node = net.processes[v]
        expected = _locally_stabilized_by_clauses(node)
        # The object form over either storage, and the node's own override.
        assert MDSTNode.locally_stabilized(node) is expected
        assert bool(node.locally_stabilized()) is expected
        assert len(node.s.tree_neighbors()) == node.s.degree


@pytest.mark.parametrize("backend", ["object", "array", "spanning_tree"])
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(**network_params)
def test_tree_rules_match_the_three_guard_form(backend, n, graph_seed,
                                               corrupt_seed, rounds):
    fast = _corrupted_network(backend, n, graph_seed, corrupt_seed, rounds)
    slow = _corrupted_network(backend, n, graph_seed, corrupt_seed, rounds)
    for v in fast.node_ids:
        assert _tree_vars(fast.processes[v]) == _tree_vars(slow.processes[v])
        fast.processes[v]._apply_tree_rules()
        _apply_tree_rules_three_guards(slow.processes[v])
        assert _tree_vars(fast.processes[v]) == _tree_vars(slow.processes[v])


def test_predicate_sample_covers_both_outcomes():
    """The property inputs reach stabilized nodes, not only corrupted ones."""
    seen = set()
    for corrupt_seed in range(4):
        for rounds in (0, 40):
            net = _corrupted_network("object", 8, 3, corrupt_seed, rounds)
            seen.update(_locally_stabilized_by_clauses(net.processes[v])
                        for v in net.node_ids)
    assert seen == {True, False}


# -- the fused slot pass -------------------------------------------------------

_OWN = ("root", "parent", "distance", "sub_max", "dmax", "color", "degree",
        "locally_stab")
_VIEW = ("v_root", "v_parent", "v_distance", "v_degree", "v_sub_max",
         "v_dmax", "v_color", "v_heard")
_VIEW_FIELDS = ("root", "parent", "distance", "degree", "sub_max", "dmax",
                "color", "heard")


def _corrupted_array_network(n: int, graph_seed: int, corrupt_seed: int,
                             rounds: int) -> ArrayNetwork:
    """``_corrupted_network("array", ...)`` with its rounds run by the
    vectorized synchronous scheduler (byte-identical, and much faster at
    n >= 64)."""
    net = _corrupted_network("array", n, graph_seed, corrupt_seed, 0)
    sched = ArraySyncScheduler()
    for _ in range(rounds):
        sched.run_round(net)
    return net


def _perturb(net: ArrayNetwork, rng: np.random.Generator) -> None:
    """Knock single clauses out of (often stabilized) states: flip own
    colours, point parents at non-neighbours, push distances past the
    bound -- so the gate meets nodes that fail exactly one clause."""
    k = net.kernel
    n = k.n
    flip = rng.random(n) < 0.25
    k.color[flip] = ~k.color[flip]
    wild = rng.random(n) < 0.1
    k.parent[wild] = rng.integers(-5, k.n_upper + 5, size=int(wild.sum()))
    far = rng.random(n) < 0.1
    k.distance[far] = k.n_upper + rng.integers(0, 3, size=int(far.sum()))
    net.note_state_write()


def _object_twin(net: ArrayNetwork, graph, n_upper: int):
    """An object network holding exactly the array network's state."""
    twin = MDST.build_network(graph, ProtocolRunConfig(n_upper=n_upper))
    k = net.kernel
    for v in twin.node_ids:
        i = k.index[v]
        s = twin.processes[v].s
        s.root = int(k.root[i])
        s.parent = int(k.parent[i])
        s.distance = int(k.distance[i])
        s.sub_max = int(k.sub_max[i])
        s.dmax = int(k.dmax[i])
        s.color = bool(k.color[i])
        for u, view in s.view.items():
            f = k.pos[(v, u)]
            for name in _VIEW_FIELDS:
                setattr(view, name, getattr(k, "v_" + name)[f].item())
    return twin


def _own_state(node: MDSTNode):
    s = node.s
    return (s.root, s.parent, s.distance, s.sub_max, s.dmax, s.color,
            s.degree)


@pytest.mark.parametrize("geometry", ["dense", "sparse"])
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), graph_seed=st.integers(min_value=0, max_value=10_000),
       corrupt_seed=st.integers(min_value=0, max_value=10_000),
       rounds=st.sampled_from([0, 1, 3, 12, 40]),
       predicates=st.booleans())
def test_fused_slot_pass_matches_the_scalar_node(geometry, data, graph_seed,
                                                 corrupt_seed, rounds,
                                                 predicates):
    # n=16 with most nodes in play computes over the full columns; n >= 64
    # with a handful of nodes gathers the subset geometry.
    if geometry == "dense":
        n = 16
        size = data.draw(st.integers(min_value=4, max_value=n))
    else:
        n = data.draw(st.integers(min_value=64, max_value=96))
        size = data.draw(st.integers(min_value=1, max_value=n // 4 - 1))
    n_upper = n + 1
    net = _corrupted_array_network(n, graph_seed, corrupt_seed, rounds)
    _perturb(net, np.random.default_rng(corrupt_seed))
    k = net.kernel
    assert (4 * size >= n) == (geometry == "dense")
    order = data.draw(st.permutations(range(n)))
    n_rules = data.draw(st.integers(min_value=0, max_value=size))
    R = np.asarray(order[:n_rules], dtype=np.int64)
    G = np.asarray(order[n_rules:size], dtype=np.int64)
    ids = k.node_ids
    expected_verdict = [bool(net.processes[ids[i]].locally_stabilized())
                        for i in G.tolist()]
    graph = GRAPH_FAMILIES["erdos_renyi_sparse"](n, seed=graph_seed)
    twin = _object_twin(net, graph, n_upper)
    before = {name: getattr(k, name).copy() for name in _OWN + _VIEW}

    verdict = k.refresh(R, predicates=predicates, gate=G)

    assert verdict.tolist() == expected_verdict
    for name in _VIEW:
        assert np.array_equal(getattr(k, name), before[name]), name
    untouched = np.ones(n, dtype=bool)
    untouched[R] = False
    for name in _OWN:
        # Without predicates the pass writes no locally_stab row at all.
        kept = (slice(None) if name == "locally_stab" and not predicates
                else untouched)
        assert np.array_equal(getattr(k, name)[kept], before[name][kept]), name
    for i in R.tolist():
        node = twin.processes[ids[i]]
        node._refresh()
        assert (int(k.root[i]), int(k.parent[i]), int(k.distance[i]),
                int(k.sub_max[i]), int(k.dmax[i]), bool(k.color[i]),
                int(k.degree[i])) == _own_state(node)
        if predicates:
            assert bool(k.locally_stab[i]) is node.locally_stabilized()


def test_fused_slot_pass_sample_covers_both_verdicts():
    """The gate inputs above reach both verdicts, and a node whose only
    failing clause is its own colour."""
    verdicts = set()
    colour_only = 0
    for corrupt_seed in range(6):
        net = _corrupted_array_network(16, 3, corrupt_seed, 40)
        _perturb(net, np.random.default_rng(corrupt_seed))
        k = net.kernel
        G = np.arange(16, dtype=np.int64)
        verdicts.update(k.refresh(np.zeros(0, dtype=np.int64),
                                  gate=G).tolist())
        for i in range(16):
            node = net.processes[k.node_ids[i]]
            if not k.color[i]:
                k.color[i] = True
                colour_only += bool(node.locally_stabilized())
                k.color[i] = False
    assert verdicts == {True, False}
    assert colour_only > 0


# -- settled rows ----------------------------------------------------------------

def _sample_rules(data, n: int, size: int) -> np.ndarray:
    order = data.draw(st.permutations(range(n)))
    return np.sort(np.asarray(order[:size], dtype=np.int64))


@pytest.mark.parametrize("geometry", ["dense", "sparse"])
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), graph_seed=st.integers(min_value=0, max_value=10_000),
       corrupt_seed=st.integers(min_value=0, max_value=10_000),
       rounds=st.sampled_from([0, 1, 3, 12]))
def test_settled_rows_are_fixpoints_of_the_pass(geometry, data, graph_seed,
                                                corrupt_seed, rounds):
    """The slot engine skips the rules of a settled destination whose view
    row a gossip pop left unchanged, which is exact only if a second pass
    over a node the first pass marked settled changes nothing."""
    if geometry == "dense":
        n = 16
        size = data.draw(st.integers(min_value=4, max_value=n))
    else:
        n = data.draw(st.integers(min_value=64, max_value=96))
        size = data.draw(st.integers(min_value=1, max_value=n // 4 - 1))
    net = _corrupted_array_network(n, graph_seed, corrupt_seed, rounds)
    _perturb(net, np.random.default_rng(corrupt_seed))
    k = net.kernel
    R = _sample_rules(data, n, size)
    k.refresh(R, predicates=True)
    settled = R[k.settled[R]]
    first = {name: getattr(k, name)[settled].copy() for name in _OWN}
    k.refresh(R, predicates=True)
    for name in _OWN:
        assert np.array_equal(getattr(k, name)[settled], first[name]), name


def test_settled_sample_covers_a_pass_that_is_no_fixpoint():
    """The inputs above reach R3's distance-overflow reset, the one outcome
    a second pass can still move, and the pass leaves it unsettled; state
    writes outside the engine clear the flag."""
    moved = 0
    for corrupt_seed in range(12):
        net = _corrupted_array_network(16, 3, corrupt_seed, 0)
        _perturb(net, np.random.default_rng(corrupt_seed))
        k = net.kernel
        k.refresh(k._all_idx, predicates=True)
        settled = k.settled.copy()
        first = k.root.copy(), k.parent.copy(), k.distance.copy()
        k.refresh(k._all_idx, predicates=True)
        changed = ((k.root != first[0]) | (k.parent != first[1])
                   | (k.distance != first[2]))
        moved += int(changed.sum())
        assert not (changed & settled).any()
    assert moved > 0
    # The flag follows writes to a node's columns, not its steps.
    k.refresh(k._all_idx, predicates=True)
    i = int(np.flatnonzero(k.settled)[0])
    node = net.processes[k.node_ids[i]]
    count = int(k.settled.sum())
    net.note_step(node.node_id)
    assert k.settled[i]
    node.s.color = node.s.color
    assert not k.settled[i]
    assert int(k.settled.sum()) == count - 1
    k.refresh(k._all_idx, predicates=True)
    assert k.settled[i] and int(k.settled.sum()) == count
    view = next(iter(node.s.view.values()))
    view.heard = view.heard
    assert not k.settled[i]
    assert int(k.settled.sum()) == count - 1
    net.note_state_write()
    assert not k.settled.any()


def _control_message(data, v: int, u: int, ids, n_upper: int):
    """A drawn control message for ``v`` from its neighbour ``u``."""
    w = data.draw(st.sampled_from(ids))
    kind = data.draw(st.sampled_from(
        ["search", "deblock", "update", "remove", "back", "reverse"]))
    if kind == "search":
        return Search(init_edge=(u, w), idblock=None, path=((u, v),),
                      visited=(u,))
    if kind == "deblock":
        return Deblock(idblock=w)
    if kind == "update":
        return UpdateDist(target_edge=(u, v),
                          dist=data.draw(st.integers(0, n_upper)))
    if kind == "remove":
        return Remove(init_edge=(u, w), deg_max=data.draw(st.integers(2, 6)),
                      target_edge=(u, v), path=(u, v))
    if kind == "back":
        return Back(init_edge=(u, w), path=(w, u, v), position=2)
    return Reverse(target=w)


_WRITABLE = {"own": ("root", "parent", "distance", "sub_max", "dmax",
                     "color"),
             "view": _VIEW_FIELDS}


@pytest.mark.parametrize("geometry", ["dense", "sparse"])
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), graph_seed=st.integers(min_value=0, max_value=10_000),
       corrupt_seed=st.integers(min_value=0, max_value=10_000),
       rounds=st.sampled_from([1, 12, 40]))
def test_settled_nodes_answer_the_scalar_predicate(geometry, data, graph_seed,
                                                   corrupt_seed, rounds):
    """A settled node is one the slot engine neither refreshes nor gates:
    after random array rounds, setter writes and scalar control deliveries,
    every settled node's ``locally_stab`` must be the scalar predicate of
    its current state and a second pass must leave its columns alone."""
    n = 16 if geometry == "dense" else data.draw(st.integers(64, 96))
    n_upper = n + 1
    net = _corrupted_network("array", n, graph_seed, corrupt_seed, 0)
    sched = wrap_scheduler_for_array(RandomAsyncScheduler(seed=corrupt_seed))
    for _ in range(rounds):
        sched.run_round(net)
    k = net.kernel
    ids = k.node_ids
    for _ in range(data.draw(st.integers(1, 16))):
        # Aim at settled nodes: a write that fails to clear their flag is
        # what the checks below must catch.
        settled = np.flatnonzero(k.settled).tolist()
        v = ids[data.draw(st.sampled_from(settled or list(range(n))))]
        node = net.processes[v]
        # Half the time a tree neighbour, whose row feeds the rules.
        nbrs = list(node.s.view)
        tree = [w for w in nbrs if node.s.is_tree_edge(w)]
        u = data.draw(st.sampled_from(tree if tree and data.draw(st.booleans())
                                      else nbrs))
        op = data.draw(st.sampled_from(
            ["own", "view", "view", "control", "deliver"]))
        if op == "control":
            node.on_message(u, _control_message(data, v, u, ids, n_upper))
            net.note_step(v)
            net.flush_outbox(v)
        elif op == "deliver":
            enabled = net.enabled_deliveries()
            if enabled:
                src, dst, _ = data.draw(st.sampled_from(enabled))
                Scheduler._deliver_one(net, src, dst, None, RoundStats())
        else:
            name = data.draw(st.sampled_from(_WRITABLE[op]))
            target = node.s if op == "own" else node.s.view[u]
            now = getattr(target, name)
            value = (not now if name in ("color", "heard")
                     else data.draw(st.sampled_from(
                         [v, u, now - 1, now + 1, -1, n_upper])))
            setattr(target, name, value)
    settled = np.flatnonzero(k.settled)
    graph = GRAPH_FAMILIES["erdos_renyi_sparse"](n, seed=graph_seed)
    twin = _object_twin(net, graph, n_upper)
    for i in settled.tolist():
        expected = twin.processes[ids[i]].locally_stabilized()
        assert bool(k.locally_stab[i]) is expected
        assert net.processes[ids[i]].locally_stabilized() is expected
    first = {name: getattr(k, name)[settled].copy() for name in _OWN}
    # One pass over all of them computes over the full columns; one pass
    # per node gathers the subset geometry.
    for S in (settled[None] if geometry == "dense" else settled[:, None]):
        k.refresh(S, predicates=True)
    for name in _OWN:
        assert np.array_equal(getattr(k, name)[settled], first[name]), name


# -- cached tree queries of settled nodes ----------------------------------------

def _assert_tree_queries_match_the_twin(net: ArrayNetwork, graph,
                                        n_upper: int) -> None:
    """Every node's tree queries equal its object twin's, asked twice (the
    second answer of a settled node comes from its cache)."""
    twin = _object_twin(net, graph, n_upper)
    for v in net.node_ids:
        s, t = net.processes[v].s, twin.processes[v].s
        for _ in range(2):
            assert s.tree_neighbors() == t.tree_neighbors(), v
            assert s.degree == t.degree, v
            assert s.children() == t.children(), v
            assert s.non_tree_neighbors() == t.non_tree_neighbors(), v


def _write_tree_edge(net: ArrayNetwork, data, v: int, u: int,
                     path: str) -> None:
    """Make ``u`` a child of ``v`` in ``v``'s view, or move ``v``'s parent,
    through the write path ``path``."""
    k = net.kernel
    i = k.index[v]
    row = k.pos[(v, u)]
    if path == "own setter":
        net.processes[v].s.parent = u
    elif path == "view setter":
        view = net.processes[v].s.view[u]
        view.parent = v
        view.heard = True
    elif path == "scatter_tokens":
        # ``u`` names ``v`` its parent and mints its gossip; the pop of
        # that token rewrites v's view row of ``u``.
        j = k.index[u]
        k.parent[j] = v
        net.note_state_write(u)
        net._mint(np.asarray([j], dtype=np.int64))
        # An older token still in flight pops first.
        for _ in range(int(net._vg_sent_src[j] - net._vg_del_row[row])):
            get_ops(net).scatter_tokens(np.asarray([row], dtype=np.int64),
                                        np.asarray([i], dtype=np.int64))
    elif path == "scatter_fields":
        get_ops(net).scatter_fields(
            [row], [i], [(int(k.v_root[row]), v, int(k.v_distance[row]),
                          1, 1, int(k.v_dmax[row]), bool(k.v_color[row]))])
    elif path == "corrupt":
        net.processes[v].s.corrupt(np.random.default_rng(
            data.draw(st.integers(0, 10_000))))
    elif path == "note_state_write":
        k.parent[i] = u
        net.note_state_write(v)
    else:  # the global form of note_state_write
        k.v_parent[row] = v
        k.v_heard[row] = True
        net.note_state_write()


_WRITE_PATHS = ("own setter", "view setter", "scatter_tokens",
                "scatter_fields", "corrupt", "note_state_write",
                "note_state_write()")


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), graph_seed=st.integers(min_value=0, max_value=10_000),
       corrupt_seed=st.integers(min_value=0, max_value=10_000),
       rounds=st.sampled_from([0, 1, 12, 40]))
def test_cached_tree_queries_match_the_object_twin(data, graph_seed,
                                                   corrupt_seed, rounds):
    """``tree_neighbors()`` and ``degree`` of a settled node answer from a
    cache filled in its current settled stretch.  From corrupted states and
    a pass, writes through every path that clears ``settled`` and further
    passes (which re-settle nodes, possibly with other trees) must leave
    every tree query equal to the object twin's."""
    n = 16
    n_upper = n + 1
    net = _corrupted_array_network(n, graph_seed, corrupt_seed, rounds)
    graph = GRAPH_FAMILIES["erdos_renyi_sparse"](n, seed=graph_seed)
    k = net.kernel
    ids = k.node_ids
    k.refresh(k._all_idx, predicates=True)
    _assert_tree_queries_match_the_twin(net, graph, n_upper)
    for _ in range(data.draw(st.integers(1, 10))):
        if data.draw(st.booleans()):
            # A pass over a random subset (either geometry) re-settles it.
            size = data.draw(st.integers(1, n))
            k.refresh(_sample_rules(data, n, size), predicates=True)
        else:
            settled = np.flatnonzero(k.settled).tolist()
            v = ids[data.draw(st.sampled_from(settled or list(range(n))))]
            u = data.draw(st.sampled_from(list(net.processes[v].s.view)))
            path = data.draw(st.sampled_from(_WRITE_PATHS))
            _write_tree_edge(net, data, v, u, path)
        _assert_tree_queries_match_the_twin(net, graph, n_upper)


def test_tree_cache_sample_reaches_settled_tree_changes():
    """The inputs above settle nodes whose cached tree a write then
    changes, and re-settle nodes with another tree than they cached."""
    written = resettled = 0
    for corrupt_seed in range(6):
        net = _corrupted_array_network(16, 3, corrupt_seed, 12)
        k = net.kernel
        k.refresh(k._all_idx, predicates=True)
        for i in np.flatnonzero(k.settled).tolist():
            v = k.node_ids[i]
            s = net.processes[v].s
            before = s.tree_neighbors()
            u = next((w for w in s.view if w not in before), None)
            if u is None:
                continue
            s.view[u].parent = v
            s.view[u].heard = True
            written += s.tree_neighbors() != before
            k.refresh(np.asarray([i], dtype=np.int64), predicates=True)
            resettled += bool(k.settled[i]) and s.tree_neighbors() != before
    assert written > 0 and resettled > 0


# -- settled object nodes ----------------------------------------------------------

_OBJECT_OWN = ("root", "parent", "distance", "sub_max", "dmax", "color")


def _twin(node: MDSTNode) -> MDSTNode:
    """A fresh, unsettled node over a deep copy of ``node``'s state.

    The original's outbox is watched by its network, which must not be
    copied along; the twin has no cache, so its queries compute afresh.
    """
    twin = MDSTNode(node.node_id, node.neighbors, n_upper=node.n_upper)
    twin.s = copy.deepcopy(node.s)
    return twin


def _is_fixpoint(node: MDSTNode) -> bool:
    """Whether ``_refresh`` on a deep copy of the node changes no field."""
    twin = _twin(node)
    before = tuple(getattr(twin.s, f) for f in _OBJECT_OWN)
    twin._refresh()
    return tuple(getattr(twin.s, f) for f in _OBJECT_OWN) == before


def _assert_settled_nodes_are_fixpoints(net: Network) -> None:
    """Each settled node is a fixpoint, and its cached answers (filled
    here if they were not) equal fresh ones."""
    for v, node in net.processes.items():
        if node._settled:
            twin = _twin(node)
            assert node.locally_stabilized() is twin.locally_stabilized(), v
            assert list(node._tree_neighbors()) == twin.s.tree_neighbors(), v
            assert _is_fixpoint(node), v


def _object_network(start: str, n: int, graph_seed: int, corrupt_seed: int):
    graph = GRAPH_FAMILIES["erdos_renyi_sparse"](n, seed=graph_seed)
    net = MDST.build_network(graph, ProtocolRunConfig(n_upper=n + 1))
    if start == "isolated":
        initialize_isolated(net)
    else:
        corrupt_states(net, np.random.default_rng(corrupt_seed))
    return net


@pytest.mark.parametrize("scheduler", ["synchronous", "random"])
@pytest.mark.parametrize("start", ["isolated", "corrupted"])
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), n=st.integers(min_value=3, max_value=10),
       graph_seed=st.integers(min_value=0, max_value=10_000),
       corrupt_seed=st.integers(min_value=0, max_value=10_000),
       rounds=st.sampled_from([0, 3, 12, 40]))
def test_settled_object_nodes_are_fixpoints(start, scheduler, data, n,
                                            graph_seed, corrupt_seed, rounds):
    """A settled node skips its rules pass and answers its gate and tree
    neighbours from a cache, so after every round, corruption (through
    ``corrupt_states`` or the bare hook), reported direct write and
    control delivery each node whose flag is set must be a fixpoint of
    ``_refresh`` whose cached answers equal a fresh computation.  The
    checks fill the caches, so a later step that fails to drop them
    is caught too."""
    n_upper = n + 1
    net = _object_network(start, n, graph_seed, corrupt_seed)
    sched = (SynchronousScheduler() if scheduler == "synchronous"
             else RandomAsyncScheduler(seed=corrupt_seed))
    rng = np.random.default_rng(corrupt_seed + 1)
    for _ in range(rounds):
        sched.run_round(net)
    _assert_settled_nodes_are_fixpoints(net)
    ids = net.node_ids
    for _ in range(data.draw(st.integers(1, 12))):
        # Aim at settled nodes: a write that fails to clear their flag is
        # what the check must catch.
        settled = [v for v in ids if net.processes[v]._settled]
        v = data.draw(st.sampled_from(settled or ids))
        node = net.processes[v]
        nbrs = list(node.s.view)
        op = data.draw(st.sampled_from(
            ["corrupt_states", "corrupt", "write", "write", "control",
             "control", "swap", "deliver", "round"]))
        if op == "corrupt_states":
            corrupt_states(net, rng, nodes=[v])
        elif op == "corrupt":
            # The hook alone, as harnesses call it: it must clear the flag
            # itself.  ``note_step`` keeps the network's caches current
            # without touching the flag.
            node.corrupt(rng)
            net.note_step(v)
        elif op == "write":
            u = data.draw(st.sampled_from(nbrs))
            name = data.draw(st.sampled_from(_OBJECT_OWN + _VIEW_FIELDS))
            target = node.s if name in _OBJECT_OWN else node.s.view[u]
            now = getattr(target, name)
            value = (not now if name in ("color", "heard")
                     else data.draw(st.sampled_from(
                         [v, u, now - 1, now + 1, -1, n_upper])))
            setattr(target, name, value)
            net.note_state_write(v if data.draw(st.booleans()) else None)
        elif op == "control":
            # Half the time from the parent, whose UpdateDist is obeyed.
            parent = node.s.parent
            u = (parent if parent in node.s.view and data.draw(st.booleans())
                 else data.draw(st.sampled_from(nbrs)))
            node.on_message(u, _control_message(data, v, u, ids, n_upper))
            net.note_step(v)
            net.flush_outbox(v)
        elif op == "swap":
            # A Remove whose guard holds deletes the tree edge to ``u``:
            # the node re-points (``u`` its parent) or recolours (``u`` a
            # child) without a rules pass.
            tree = [w for w in nbrs if node.s.is_tree_edge(w)]
            u = data.draw(st.sampled_from(tree or nbrs))
            node.on_message(u, Remove(
                init_edge=(u, data.draw(st.sampled_from(ids))),
                deg_max=node.s.degree, target_edge=(u, v), path=(u, v)))
            net.note_step(v)
            net.flush_outbox(v)
        elif op == "deliver":
            enabled = net.enabled_deliveries()
            if enabled:
                src, dst, _ = data.draw(st.sampled_from(enabled))
                Scheduler._deliver_one(net, src, dst, None, RoundStats())
        else:
            sched.run_round(net)
        _assert_settled_nodes_are_fixpoints(net)


def test_settled_object_sample_settles_and_skips(monkeypatch):
    """The inputs above settle nodes from both starts, and settled nodes
    then skip repeated gossip: fewer passes run than steps are taken."""
    calls = []
    refresh = MDSTNode._refresh

    def counted(node):
        calls.append(node.node_id)
        refresh(node)

    for start in ("isolated", "corrupted"):
        net = _object_network(start, 10, 3, 5)
        sched = SynchronousScheduler()
        for _ in range(40):
            sched.run_round(net)
        assert any(p._settled for p in net.processes.values())
        with monkeypatch.context() as m:
            m.setattr(MDSTNode, "_refresh", counted)
            calls.clear()
            stats = sched.run_round(net)
        assert len(calls) < stats.steps


def test_note_state_write_unsettles_before_repeated_gossip():
    """An out-of-band write reported by ``note_state_write`` must make the
    next gossip run the rules, even when that gossip repeats the view row
    of a node that was settled before the write."""
    net = _object_network("isolated", 8, 3, 0)
    sched = SynchronousScheduler()
    for _ in range(100):
        sched.run_round(net)
    v, node = next((v, p) for v, p in net.processes.items()
                   if p._settled and p.s.parent != v)
    root = node.s.root
    node.s.parent = v  # claims to be a root under another's identifier
    net.note_state_write(v)
    u = next(u for u, row in node.s.view.items() if row.heard)
    row = node.s.view[u]
    node.on_message(u, MInfo(root=row.root, parent=row.parent,
                             distance=row.distance, degree=row.degree,
                             sub_max=row.sub_max, dmax=row.dmax,
                             color=row.color))
    assert node.s.parent != v and node.s.root == root
    assert node.tree_stabilized() and _is_fixpoint(node)


def test_settled_object_sample_keeps_the_flag_across_control_hops(monkeypatch):
    """The inputs above reach settled nodes whose Search hop or Deblock
    flood sends on and writes nothing: they keep the flag."""
    kept = collections.Counter()
    on_message = MDSTNode.on_message

    def recorded(node, sender, message):
        settled = node._settled
        on_message(node, sender, message)
        if settled and node._settled and len(node.outbox):
            kept[start, type(message)] += 1

    monkeypatch.setattr(MDSTNode, "on_message", recorded)
    for start in ("isolated", "corrupted"):
        net = _object_network(start, 10, 3, 5)
        sched = SynchronousScheduler()
        for _ in range(40):
            sched.run_round(net)
        assert kept[start, Search] > 0 and kept[start, Deblock] > 0
