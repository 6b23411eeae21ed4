"""Tier-1 guards for the array kernel backend (``backend="array"``).

Four invariants protect the backend's central promise -- byte-identical
results, only faster -- across the v4 -> v5 schema bump:

* **Gating** -- the array kernel runs MDST alone, freezes the topology
  and owns the channel objects, so churn, adversary models and the
  substrate protocols are rejected up front, never silently degraded.
* **Equivalence** -- object and array backends produce identical results
  step for step: same per-round trace, same messages, same tree, same
  channel-derived statistics.  Checked on fixed regression cases (fault
  plans included) and as a hypothesis property over random graphs, seeds,
  schedulers and initial policies.
* **Determinism** -- an array-backend run does not depend on the process
  hash seed (subprocesses under different ``PYTHONHASHSEED`` values agree
  byte for byte).
* **Cache key discipline** -- mirroring ``tests/test_adversary_guard.py``
  for schema v5: legacy v4 dicts (no ``backend`` key) deserialize to the
  object backend and share its cache entries; selecting the array backend
  changes the key; default rows carry no ``backend`` column, so the
  committed E1-E8 tables keep their historical shape.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, GraphError
from repro.experiments.config import get_profile
from repro.experiments.workloads import scaling_workload
from repro.graphs.generators import GRAPH_FAMILIES
from repro.protocols import PROTOCOLS, capable_names
from repro.protocols.base import ProtocolRunConfig
from repro.protocols.runner import run_protocol
from repro.runtime.spec import CACHE_SCHEMA_VERSION, RunSpec, spec_key
from repro.runtime.tasks import run_protocol_task
from repro.sim.adversary import Adversary, make_channel_model
from repro.sim.array_engine import wrap_scheduler_for_array
from repro.sim.faults import ChurnPlan, FaultPlan
from repro.sim.scheduler import make_scheduler

from test_adversary_guard import E2_FAST_SLICE_MD5, LEGACY_V3_DICT

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: A spec dict exactly as schema v4 wrote it: adversary keys, no backend.
LEGACY_V4_DICT = {**LEGACY_V3_DICT,
                  "loss_rate": 0.0, "dup_rate": 0.0, "reorder_rate": 0.0,
                  "crash_count": 0, "crash_round": 50, "crash_recover": None,
                  "byzantine_count": 0, "byzantine_start": 10,
                  "byzantine_rounds": 20}


def _graph(n: int, seed: int):
    return GRAPH_FAMILIES["erdos_renyi_sparse"](n, seed=seed)


def _result_key(result):
    """Everything a run reports, flattened into one comparable value."""
    run, report = result.run, result.report
    return (
        run.converged, run.rounds, run.steps, run.messages, run.tree_degree,
        tuple(sorted(result.tree_edges)),
        tuple(sorted((v, tuple(sorted(d.items())))
                     for v, d in result.node_stats.items())),
        tuple(sorted(run.extra["deliveries_by_type"].items())),
        run.extra["max_message_bits"], run.extra["max_state_bits"],
        run.extra["convergence_round"],
        report.deliveries, report.steps, report.messages_sent,
        tuple((rec.steps, rec.deliveries, rec.timeouts, rec.messages_sent,
               tuple(sorted(rec.by_type.items())))
              for rec in report.round_stats),
    )


def _run_both(graph, fault_plan=None, **cfg):
    obj = run_protocol(graph, ProtocolRunConfig(backend="object", **cfg),
                       fault_plan=fault_plan)
    arr = run_protocol(graph, ProtocolRunConfig(backend="array", **cfg),
                       fault_plan=fault_plan)
    return obj, arr


class TestBackendGating:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="backend"):
            ProtocolRunConfig(backend="simd").validate()

    def test_registry_flags(self):
        assert capable_names("supports_array_backend") == ["mdst"]

    def test_array_rejects_non_capable_protocol(self):
        """The substrates stay on the object backend; the refusal names
        ``mdst`` as the one capable protocol."""
        for protocol in ("spanning_tree", "pif_max_degree"):
            with pytest.raises(ConfigurationError,
                               match=(f"protocol {protocol!r} does not "
                                      f"support the array backend; capable "
                                      f"protocols: mdst$")):
                run_protocol(_graph(8, 1),
                             ProtocolRunConfig(protocol=protocol,
                                               backend="array"))

    def test_array_rejects_churn(self):
        with pytest.raises(ConfigurationError, match="churn"):
            run_protocol(_graph(8, 1), ProtocolRunConfig(backend="array"),
                         churn_plan=ChurnPlan())

    def test_array_rejects_adversary(self):
        adversary = Adversary(channel_model=make_channel_model(loss=0.1))
        with pytest.raises(ConfigurationError, match="adversary"):
            run_protocol(_graph(8, 1), ProtocolRunConfig(backend="array"),
                         adversary=adversary)


class TestByteIdentity:
    """Fixed regression cases; the hypothesis property below widens them."""

    def test_isolated_synchronous(self):
        obj, arr = _run_both(_graph(16, 7), scheduler="synchronous",
                             initial="isolated", seed=5, max_rounds=400)
        assert _result_key(obj) == _result_key(arr)

    def test_corrupted_synchronous(self):
        obj, arr = _run_both(_graph(16, 7), scheduler="synchronous",
                             initial="corrupted", seed=5, max_rounds=400)
        assert _result_key(obj) == _result_key(arr)

    def test_corrupted_synchronous_with_faults(self):
        plan = FaultPlan().add(20, node_fraction=0.5, channel_fraction=0.25)
        obj, arr = _run_both(_graph(16, 7), scheduler="synchronous",
                             initial="corrupted", seed=5, max_rounds=600,
                             fault_plan=plan)
        assert _result_key(obj) == _result_key(arr)

    def test_e2_fast_slice_matches_object_digest(self):
        """The array backend reproduces E2's committed quick-profile rows.

        The only permitted difference is the identifying ``backend``
        column itself (non-default backends are labelled so timing rows
        never alias); every measured value must be byte-identical to the
        object-backend digest recorded in ``test_adversary_guard.py``.
        """
        profile = get_profile("quick")
        rows = []
        for inst in list(scaling_workload(profile))[:3]:
            row = run_protocol_task(
                RunSpec(task="protocol", family=inst.family, n=inst.n,
                        seed=inst.seed, initial="isolated",
                        max_rounds=profile.max_rounds,
                        backend="array")).row
            assert row.pop("backend") == "array"
            rows.append(row)
        digest = hashlib.md5(json.dumps(rows, sort_keys=True,
                                        default=str).encode()).hexdigest()
        assert digest == E2_FAST_SLICE_MD5


class TestStepForStepProperty:
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(n=st.integers(min_value=6, max_value=20),
           graph_seed=st.integers(min_value=0, max_value=10_000),
           run_seed=st.integers(min_value=0, max_value=10_000),
           scheduler=st.sampled_from(("synchronous", "random", "adversarial",
                                      "weighted")),
           initial=st.sampled_from(("isolated", "corrupted")),
           fault=st.booleans())
    def test_array_equals_object(self, n, graph_seed, run_seed, scheduler,
                                 initial, fault):
        plan = (FaultPlan().add(15, node_fraction=0.5, channel_fraction=0.25)
                if fault else None)
        obj, arr = _run_both(_graph(n, graph_seed), scheduler=scheduler,
                             initial=initial, seed=run_seed,
                             max_rounds=2500, fault_plan=plan)
        assert _result_key(obj) == _result_key(arr)


def _relabeled(graph):
    """``graph`` on the non-contiguous ids ``3 * v + 10``."""
    return nx.relabel_nodes(graph, {v: 3 * v + 10 for v in graph.nodes})


def _shuffled(graph, seed: int):
    """``graph`` rebuilt so that ``graph.edges`` iterates in a drawn order,
    with drawn orientations: neither sorted nor canonical."""
    rng = np.random.default_rng(seed)
    edges = list(graph.edges)
    out = nx.Graph()
    out.add_nodes_from(rng.permutation(sorted(graph.nodes)).tolist())
    for i in rng.permutation(len(edges)).tolist():
        u, v = edges[i]
        out.add_edge(*((v, u) if rng.random() < 0.5 else (u, v)))
    return out


class TestConstructionRoute:
    """Every array network is built from edge arrays; an nx graph is
    converted once.  The conversion keeps the caller's ids, its edge
    order as the channel creation order, its validation and its graph
    object."""

    GRAPHS = {"relabeled": lambda: _relabeled(_graph(14, 5)),
              "shuffled": lambda: _shuffled(_graph(14, 5), seed=9)}

    def test_shuffled_graph_is_not_in_sorted_order(self):
        edges = list(self.GRAPHS["shuffled"]().edges)
        assert edges != sorted(edges)
        assert edges != sorted(tuple(sorted(e)) for e in edges)

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_random_corrupted_run_matches_object(self, name):
        graph = self.GRAPHS[name]()
        obj, arr = _run_both(graph, scheduler="random", initial="corrupted",
                             seed=3, max_rounds=150, stability_window=151)
        assert arr.run.rounds == 150
        assert _result_key(obj) == _result_key(arr)

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_round_zero_deliveries_and_graph_identity(self, name):
        graph = self.GRAPHS[name]()
        config = ProtocolRunConfig(scheduler="random", initial="corrupted",
                                   seed=3)
        adapter = PROTOCOLS["mdst"]
        seen = []
        for build in (adapter.build_network, adapter.build_array_network):
            network = build(graph, config)
            adapter.prepare_initial(network, config,
                                    np.random.default_rng(config.seed))
            assert network.graph is graph
            seen.append((list(network.channels),
                         network.enabled_deliveries()))
        assert seen[0][1] and seen[0] == seen[1]

    @pytest.mark.parametrize("make", [
        lambda: nx.Graph([(0, 1), (1, 2), (2, 2)]),
        lambda: nx.DiGraph([(0, 1), (1, 2), (2, 0)]),
        lambda: nx.Graph(),
        lambda: nx.Graph([(0, 1), (2, 3)]),
    ], ids=["self_loop", "directed", "empty", "disconnected"])
    def test_invalid_graph_raises_as_on_the_object_backend(self, make):
        raised = []
        for backend in ("object", "array"):
            with pytest.raises(GraphError) as info:
                run_protocol(make(), ProtocolRunConfig(backend=backend))
            raised.append(type(info.value))
        assert raised[0] is raised[1]

    def test_array_run_imports_no_scipy(self):
        script = (
            "import sys\n"
            f"sys.path.insert(0, {SRC!r})\n"
            "from repro.graphs.generators import GRAPH_FAMILIES\n"
            "from repro.protocols.base import ProtocolRunConfig\n"
            "from repro.protocols.runner import run_protocol\n"
            "graph = GRAPH_FAMILIES['erdos_renyi_sparse'](12, seed=1)\n"
            "run_protocol(graph, ProtocolRunConfig(backend='array',"
            " scheduler='random', initial='corrupted', max_rounds=40))\n"
            "print(sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'scipy'))\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"


_SCHEDULERS = ("synchronous", "random", "adversarial", "weighted")
_PROTOCOLS = ("mdst",)


def _fallback_config(protocol: str, scheduler: str, initial: str,
                     backend: str, **extra) -> ProtocolRunConfig:
    """A small run whose adversarial and weighted schedules are non-trivial:
    slow links on both directions of two edges, weight 3 on two nodes."""
    graph = _graph(12, 3)
    edges = sorted(graph.edges)[:2]
    slow = tuple(edges) + tuple((v, u) for u, v in edges)
    return ProtocolRunConfig(protocol=protocol, scheduler=scheduler,
                             initial=initial, seed=4, backend=backend,
                             slow_links=slow, max_delay=3,
                             node_weights={0: 3, 5: 3}, **extra)


@pytest.mark.parametrize("initial", ["isolated", "corrupted"])
@pytest.mark.parametrize("protocol", _PROTOCOLS)
@pytest.mark.parametrize("scheduler", _SCHEDULERS)
def test_full_event_log_matches_object(scheduler, protocol, initial):
    """``keep_trace_events=True`` takes the scalar fallback on the array
    backend; the run and its event log equal the object run's."""
    graph = _graph(12, 3)
    results = [run_protocol(graph, _fallback_config(
        protocol, scheduler, initial, backend, max_rounds=60,
        keep_trace_events=True)) for backend in ("object", "array")]
    obj, arr = results
    assert _result_key(obj) == _result_key(arr)
    assert obj.trace.events and obj.trace.events == arr.trace.events
    delivered = Counter(e.message_type for e in obj.trace.events
                        if e.kind == "deliver")
    assert delivered == obj.run.extra["deliveries_by_type"]
    assert sum(delivered.values()) == obj.report.deliveries


def _run_with_a_disabled_node(protocol: str, scheduler: str, initial: str,
                              backend: str):
    """Per-round stats and final snapshots of a run in which node 2 is
    disabled from round 8 to round 20 (its channels keep their queues)."""
    config = _fallback_config(protocol, scheduler, initial, backend)
    graph = _graph(12, 3)
    adapter = PROTOCOLS[protocol]
    rng = np.random.default_rng(config.seed)
    network = (adapter.build_array_network(graph, config)
               if backend == "array" else adapter.build_network(graph, config))
    adapter.prepare_initial(network, config, rng)
    sched = make_scheduler(scheduler, seed=config.seed,
                           slow_links=config.slow_links,
                           max_delay=config.max_delay,
                           weights=config.node_weights)
    if backend == "array":
        sched = wrap_scheduler_for_array(sched)
    per_round = []
    for r in range(40):
        if r in (8, 20):
            network.set_node_enabled(2, r == 20)
        stats = sched.run_round(network)
        per_round.append((stats.steps, stats.deliveries, stats.timeouts,
                          stats.messages_sent))
    snaps = {v: dict(s) for v, s in network.snapshots().items()}
    return per_round, snaps


@pytest.mark.parametrize("initial", ["isolated", "corrupted"])
@pytest.mark.parametrize("protocol", _PROTOCOLS)
@pytest.mark.parametrize("scheduler", _SCHEDULERS)
def test_disabled_node_matches_object(scheduler, protocol, initial):
    """A node disabled mid-run sends the array backend to the scalar
    fallback and back; every round and the final state equal the object
    run's."""
    obj = _run_with_a_disabled_node(protocol, scheduler, initial, "object")
    arr = _run_with_a_disabled_node(protocol, scheduler, initial, "array")
    assert obj == arr


class TestHashSeedDeterminism:
    #: Rounds replayed per run.  The corrupted n=24 seed-7 instance does not
    #: converge, so the run spends the whole budget in control-heavy rounds;
    #: the per-round digest pins every one of them, not only the end state.
    ROUNDS = 120

    @pytest.mark.parametrize("scheduler", ["synchronous", "random"])
    def test_array_run_is_hash_seed_independent(self, scheduler):
        """Two subprocesses with different PYTHONHASHSEED agree exactly:
        per-round steps, deliveries and messages, and the final row."""
        script = (
            "import sys, json, hashlib\n"
            f"sys.path.insert(0, {SRC!r})\n"
            "import repro.runtime.tasks as tasks\n"
            "from repro.runtime.spec import RunSpec\n"
            "results = []\n"
            "run_protocol = tasks.run_protocol\n"
            "def capture(*args, **kwargs):\n"
            "    results.append(run_protocol(*args, **kwargs))\n"
            "    return results[-1]\n"
            "tasks.run_protocol = capture\n"
            "row = tasks.run_protocol_task(RunSpec(task='protocol',"
            " family='erdos_renyi_sparse', n=24, seed=7,"
            f" scheduler={scheduler!r}, initial='corrupted',"
            f" max_rounds={self.ROUNDS}, backend='array')).row\n"
            "rounds = [(i, r.steps, r.deliveries, r.messages_sent,"
            " r.by_type) for i, r in"
            " enumerate(results[0].report.round_stats)]\n"
            "print(len(rounds), hashlib.md5(json.dumps([rounds, row],"
            " sort_keys=True, default=str).encode()).hexdigest())\n")
        digests = []
        for hash_seed in ("0", "31337"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed}
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, check=True)
            digests.append(proc.stdout.strip())
        assert digests[0] == digests[1]
        assert digests[0].split()[0] == str(self.ROUNDS)


class TestThroughputProfile:
    def test_profile_param_profiles_the_array_round_loop(self):
        """``profile=N`` under backend='array' ranks kernel work, not imports.

        Runs in a subprocess so the array modules are cold:
        before the pre-warm fix, the lazy import storm landed inside the
        profiled region and importlib frames drowned the round loop.
        """
        script = (
            "import sys, json\n"
            f"sys.path.insert(0, {SRC!r})\n"
            "from repro.runtime.spec import RunSpec\n"
            "from repro.runtime.tasks import run_throughput_task\n"
            "spec = RunSpec(task='throughput', family='erdos_renyi_sparse',"
            " n=64, seed=3, max_rounds=30, stability_window=31,"
            " backend='array').with_params(profile=15)\n"
            "row = run_throughput_task(spec).row\n"
            "print(json.dumps(row['profile_top']))\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, check=True)
        top = json.loads(proc.stdout.strip().splitlines()[-1])
        assert len(top) == 15
        functions = [entry["function"] for entry in top]
        assert not any("importlib" in f for f in functions), functions
        assert any("array_kernel" in f for f in functions), functions


class TestSchemaV5:
    def test_schema_version_bumped_for_the_backend_axis(self):
        # >= 5: the backend axis landed in v5; later PRs may bump further
        # (v6 added graph_params/graph_file) without invalidating this guard
        assert CACHE_SCHEMA_VERSION >= 5

    def test_legacy_v4_dict_loads_object_backend(self):
        spec = RunSpec.from_dict(LEGACY_V4_DICT)
        assert spec.backend == "object"
        assert "-array" not in spec.label

    def test_array_spec_round_trips_exactly(self):
        spec = RunSpec(task="protocol", family="wheel", n=12, seed=5,
                       backend="array")
        payload = spec.to_dict()
        assert payload["backend"] == "array"
        clone = RunSpec.from_dict(payload)
        assert clone == spec
        assert spec_key(clone) == spec_key(spec)

    def test_legacy_and_explicit_object_specs_hash_identically(self):
        """A v4 dict and the equivalent v5 spec share one cache entry."""
        legacy = RunSpec.from_dict(LEGACY_V4_DICT)
        explicit = RunSpec.from_dict({**LEGACY_V4_DICT, "backend": "object"})
        assert spec_key(legacy) == spec_key(explicit)

    def test_array_backend_changes_the_cache_key(self):
        base = RunSpec(task="protocol", family="wheel", n=12, seed=5)
        assert spec_key(replace(base, backend="array")) != spec_key(base)

    def test_array_label_is_suffixed(self):
        assert RunSpec(backend="array").label.endswith("-array")

    def test_default_rows_carry_no_backend_column(self):
        """E1-E8 row shape: the column appears only for non-default kernels."""
        row = run_protocol_task(RunSpec(task="protocol", family="wheel",
                                        n=8, seed=1)).row
        assert "backend" not in row
