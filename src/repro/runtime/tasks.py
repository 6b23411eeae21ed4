"""Task registry: the functions the sweep engine executes in worker processes.

Every task is a **module-level** function ``(RunSpec) -> RunOutcome`` so it
can be pickled by :class:`concurrent.futures.ProcessPoolExecutor`.  A task
receives only the spec -- it builds the graph itself from
``(family, n, seed)`` -- and returns a :class:`RunOutcome` whose ``row`` is a
plain JSON-serializable dict ready to be appended to an
:class:`~repro.analysis.reporting.ExperimentReport`.

The registry covers every kind of measurement the E1-E8 experiments need:

=============  ==============================================================
``protocol``   one :func:`~repro.protocols.runner.run_protocol` execution of
               the spec's registered protocol (E2, E4, E5 and the generic
               ``repro run`` / ``repro sweep``)
``reference``  the centralized reference engine (sanity sweeps)
``memory``     per-node state accounting without running the protocol (E3)
``quality``    exact/certified optimum + reference + FR + optional protocol
               degree on one instance (E1)
``baselines``  naive spanning trees vs reference vs local search (E6)
``hub``        serialized-vs-concurrent reduction model + protocol (E7)
``improvement`` single-improvement micro-benchmark on a hard-hub graph (E8)
``throughput`` timed protocol execution reporting rounds/sec (the large-n
               scaling and cross-protocol benchmarks; never cached)
``churn``      timed protocol execution under a live topology churn plan
               (node/edge joins and leaves through the network mutation
               APIs); reports recovery and throughput, never cached
``adversary``  timed protocol execution under the spec's adversary models
               (unreliable channels, crash/recover nodes, Byzantine
               gossip); reports a survival verdict and recovery rounds,
               never cached
=============  ==============================================================

The protocol-style tasks (``protocol``/``throughput``/``churn``) dispatch
on :attr:`~repro.runtime.spec.RunSpec.protocol` through the
:data:`repro.protocols.PROTOCOLS` registry and execute on the
activity-aware simulation kernel via
:func:`~repro.protocols.runner.run_protocol`; the spec's ``scheduler``
field names any kernel scheduling policy (``synchronous``/``random``/
``adversarial``/``weighted``), with per-node weights for the weighted-fair
policy supplied through the ``node_weights`` task parameter.  The
MDST-specific composite tasks (``quality``/``hub``/``improvement``/
``memory``/``reference``) reject specs naming any other protocol.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from ..analysis.convergence import ConvergenceRecord
from ..analysis.memory import memory_report
from ..baselines.blin_butelle import serialized_vs_concurrent_cost
from ..baselines.exact import exact_mdst_degree
from ..baselines.fuerer_raghavachari import fuerer_raghavachari
from ..baselines.local_search import greedy_local_search
from ..baselines.simple_trees import evaluate_simple_trees
from ..core.reference import ReferenceMDST
from ..exceptions import ConfigurationError
from ..graphs.generators import hard_hub_graph
from ..graphs.properties import is_hamiltonian_path_certificate, mdst_lower_bound
from ..graphs.spanning import bfs_spanning_tree, tree_degree
from ..protocols.registry import get_protocol
from ..protocols.runner import run_protocol
from ..sim.faults import FaultPlan
from .spec import RunSpec

__all__ = ["OBJECT_ONLY_TASKS", "RunOutcome", "TASKS", "UNCACHEABLE_TASKS",
           "execute_spec", "task_names"]


@dataclass
class RunOutcome:
    """The result of executing one :class:`RunSpec`.

    ``row`` is the experiment-facing view (a flat dict of JSON-friendly
    values); ``record`` is additionally populated by protocol-style tasks so
    outcomes can flow into the :class:`ConvergenceRecord` aggregation
    pipeline.  ``from_cache`` is transport metadata set by the engine, never
    persisted.
    """

    spec: RunSpec
    row: Dict[str, object]
    record: Optional[ConvergenceRecord] = None
    from_cache: bool = field(default=False, compare=False)

    def to_dict(self) -> Dict[str, object]:
        return {
            "spec": self.spec.to_dict(),
            "row": self.row,
            "record": dataclasses.asdict(self.record) if self.record else None,
        }

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "RunOutcome":
        record = data.get("record")
        return RunOutcome(
            spec=RunSpec.from_dict(data["spec"]),  # type: ignore[arg-type]
            row=dict(data["row"]),  # type: ignore[arg-type]
            record=ConvergenceRecord(**record) if record else None,
        )


# ---------------------------------------------------------------------------
# Helpers shared by the tasks
# ---------------------------------------------------------------------------

#: Tasks that never run the array kernel, with the reason.  An array-backend
#: spec of one is refused rather than labelled ``array`` over an object row
#: (and cached a second time under its own key).
OBJECT_ONLY_TASKS: Dict[str, str] = {
    "memory": "accounts the object network",
    "reference": "runs no simulation",
    "baselines": "runs no simulation",
}


def _require_object_backend(spec: RunSpec) -> None:
    """Refuse a non-object backend for a task of :data:`OBJECT_ONLY_TASKS`."""
    if spec.backend != "object":
        raise ConfigurationError(
            f"task {spec.task!r} {OBJECT_ONLY_TASKS[spec.task]}; got backend "
            f"{spec.backend!r}")


def _fault_plan(spec: RunSpec) -> Optional[FaultPlan]:
    if spec.fault_round is None:
        return None
    return FaultPlan().add(round_index=spec.fault_round,
                           node_fraction=spec.fault_fraction)


def _require_mdst(spec: RunSpec) -> None:
    """Guard for the MDST-specific composite tasks.

    ``quality``/``hub``/``improvement`` compare against Δ* oracles and
    count MDST message types, and ``memory``/``reference`` account MDST
    state -- none of that is meaningful for another registry entry, so a
    spec naming one fails fast instead of silently mislabelling a row.
    """
    if spec.protocol != "mdst":
        raise ConfigurationError(
            f"task {spec.task!r} is MDST-specific; got protocol "
            f"{spec.protocol!r} (use the protocol/throughput/churn tasks "
            f"for other registry entries)")


def _family_of(spec: RunSpec, graph) -> str:
    """The family column: for ``graph_file`` runs the file defines the
    instance, so the tag read from its header (or ``"file"``) replaces the
    spec's meaningless family default."""
    if spec.graph_file:
        return str(graph.graph.get("family", "file"))
    return spec.family


def _identify(spec: RunSpec, graph) -> Dict[str, object]:
    """The leading identity columns shared by the protocol-style rows.

    The ``protocol`` and ``backend`` columns appear only for non-default
    values: the E1-E8 reproduction tables predate the registry and the
    array kernel, and their rows are verified byte-identical across
    refactors, so the default MDST/object rows must keep their exact
    historical shape.
    """
    row: Dict[str, object] = {
        "family": _family_of(spec, graph),
        "n": graph.number_of_nodes(),
        "m": graph.number_of_edges(),
        "seed": spec.seed,
        "scheduler": spec.scheduler,
        "initial": spec.initial,
    }
    if spec.protocol != "mdst":
        row["protocol"] = spec.protocol
    if spec.backend != "object":
        row["backend"] = spec.backend
    if spec.graph_params:
        row["graph_params"] = dict(spec.graph_params)
    if spec.graph_file:
        row["graph_file"] = spec.graph_file
    return row


def _record_for(spec: RunSpec, graph, result) -> ConvergenceRecord:
    return ConvergenceRecord(
        nodes=graph.number_of_nodes(),
        edges=graph.number_of_edges(),
        rounds=result.run.rounds,
        convergence_round=result.run.extra.get("convergence_round"),
        steps=result.run.steps,
        messages=result.run.messages,
        converged=result.run.converged,
        tree_degree=result.run.tree_degree,
        seed=spec.seed,
        family=spec.family,
        scheduler=spec.scheduler,
    )


def _known_optimal(graph, exact_limit: int = 12) -> Optional[int]:
    """Δ* when cheaply available: a certificate or the exact solver (small n)."""
    cert = graph.graph.get("hamiltonian_path")
    if cert and is_hamiltonian_path_certificate(graph, cert):
        return 2
    if graph.graph.get("family") == "two_hub":
        # L leaves each adjacent to both hubs: any tree needs deg(a)+deg(b) >= L+1,
        # and a balanced split achieves ceil((L+1)/2) = L//2 + 1.
        leaves = graph.number_of_nodes() - 2
        return leaves // 2 + 1
    if graph.number_of_nodes() <= exact_limit:
        return exact_mdst_degree(graph)
    return None


# ---------------------------------------------------------------------------
# Tasks
# ---------------------------------------------------------------------------

def run_protocol_task(spec: RunSpec) -> RunOutcome:
    """One full protocol execution; the workhorse of E2/E4/E5 and the CLI.

    Dispatches on ``spec.protocol`` through the registry: any registered
    protocol runs on the same kernel, with the same fault plans, and
    reports the same row shape.
    """
    graph = spec.build_graph()
    result = run_protocol(graph, spec.protocol_run_config(),
                          fault_plan=_fault_plan(spec),
                          adversary=spec.build_adversary())
    record = _record_for(spec, graph, result)
    convergence_round = result.run.extra.get("convergence_round")
    row = _identify(spec, graph)
    row.update({
        "converged": result.converged,
        "rounds": convergence_round or result.rounds,
        "total_rounds": result.rounds,
        "steps": result.run.steps,
        "messages": result.run.messages,
        "tree_degree": result.tree_degree,
        "closure_violations": len(result.report.closure_violations),
        "max_message_bits": result.run.extra.get("max_message_bits", 0),
        "deliveries_by_type": result.run.extra.get("deliveries_by_type", {}),
    })
    if spec.adversary_enabled:
        # Only adversarial specs grow these columns: the E1-E8 rows are
        # verified byte-identical across refactors and must keep shape.
        row["adversary"] = result.run.extra.get("adversary", "")
        row["adversary_events"] = result.run.extra.get("adversary_events", 0)
    return RunOutcome(spec=spec, row=row, record=record)


def run_reference_task(spec: RunSpec) -> RunOutcome:
    """Centralized reference engine on one instance (no message passing)."""
    _require_mdst(spec)
    _require_object_backend(spec)
    graph = spec.build_graph()
    initial = bfs_spanning_tree(graph)
    result = ReferenceMDST(graph, initial_tree=initial).run()
    row = {
        "family": _family_of(spec, graph),
        "n": graph.number_of_nodes(),
        "m": graph.number_of_edges(),
        "seed": spec.seed,
        "bfs_degree": tree_degree(graph.nodes, initial),
        "reference_degree": result.final_degree,
        "lower_bound": mdst_lower_bound(graph),
    }
    return RunOutcome(spec=spec, row=row)


def run_memory_task(spec: RunSpec) -> RunOutcome:
    """Per-node state accounting vs the O(δ log n) envelope (E3)."""
    _require_mdst(spec)
    _require_object_backend(spec)
    graph = spec.build_graph()
    config = spec.protocol_run_config()
    adapter = get_protocol(spec.protocol)
    adapter.validate_config(config)
    network = adapter.build_network(graph, config)
    row = memory_report(network).as_dict()
    row["family"] = _family_of(spec, graph)
    row["seed"] = spec.seed
    return RunOutcome(spec=spec, row=row)


def run_quality_task(spec: RunSpec) -> RunOutcome:
    """Degree quality of one instance vs Δ* and Fürer–Raghavachari (E1).

    Params: ``use_protocol`` (bool) and ``protocol_cap`` (max n for which the
    message-passing protocol is also run).
    """
    _require_mdst(spec)
    graph = spec.build_graph()
    optimal = _known_optimal(graph)
    reference = ReferenceMDST(graph).run()
    fr = fuerer_raghavachari(graph)
    row: Dict[str, object] = {
        "family": _family_of(spec, graph),
        "n": graph.number_of_nodes(),
        "m": graph.number_of_edges(),
        "seed": spec.seed,
        "optimal": optimal,
        "lower_bound": mdst_lower_bound(graph),
        "bfs_degree": tree_degree(graph.nodes, bfs_spanning_tree(graph)),
        "reference_degree": reference.final_degree,
        "fr_degree": fr.final_degree,
    }
    record: Optional[ConvergenceRecord] = None
    use_protocol = bool(spec.param("use_protocol", True))
    # default cap = this graph's size, so a bare spec (e.g. from the CLI)
    # runs the protocol; E1 passes the profile's cap explicitly
    protocol_cap = int(spec.param("protocol_cap", graph.number_of_nodes()))
    if use_protocol and graph.number_of_nodes() <= protocol_cap:
        result = run_protocol(graph, spec.protocol_run_config())
        row["protocol_degree"] = result.tree_degree
        row["protocol_converged"] = result.converged
        record = _record_for(spec, graph, result)
    if optimal is not None:
        achieved = row.get("protocol_degree", reference.final_degree)
        row["within_one"] = achieved <= optimal + 1
    return RunOutcome(spec=spec, row=row, record=record)


def run_baselines_task(spec: RunSpec) -> RunOutcome:
    """Naive spanning trees vs reference MDST vs local search (E6)."""
    _require_mdst(spec)
    _require_object_backend(spec)
    graph = spec.build_graph()
    naive = evaluate_simple_trees(graph, seed=spec.seed)
    reference = ReferenceMDST(graph).run()
    local = greedy_local_search(graph)
    row: Dict[str, object] = {
        "family": _family_of(spec, graph),
        "n": graph.number_of_nodes(),
        "m": graph.number_of_edges(),
        "seed": spec.seed,
        "mdst_degree": reference.final_degree,
        "local_search_degree": local.final_degree,
        "lower_bound": mdst_lower_bound(graph),
    }
    for name, res in naive.items():
        row[f"{name}_degree"] = res.degree
    return RunOutcome(spec=spec, row=row)


def run_hub_task(spec: RunSpec) -> RunOutcome:
    """Serialized vs concurrent multi-hub reduction plus the real protocol (E7)."""
    _require_mdst(spec)
    graph = spec.build_graph()
    model = serialized_vs_concurrent_cost(graph)
    result = run_protocol(graph, spec.protocol_run_config())
    initial_deg = tree_degree(graph.nodes, bfs_spanning_tree(graph))
    row = {
        "hubs": spec.n // 5,
        "n": graph.number_of_nodes(),
        "m": graph.number_of_edges(),
        "initial_degree": initial_deg,
        "final_degree": model.final_degree,
        "swaps": model.swaps,
        "serialized_rounds": model.serialized_rounds,
        "concurrent_rounds": model.concurrent_rounds,
        "speedup": round(model.speedup, 2),
        "protocol_rounds": result.run.extra.get("convergence_round") or result.rounds,
        "protocol_degree": result.tree_degree,
        "protocol_converged": result.converged,
    }
    return RunOutcome(spec=spec, row=row, record=_record_for(spec, graph, result))


def run_improvement_task(spec: RunSpec) -> RunOutcome:
    """Cost of a single improvement on a hard-hub graph (E8, Figs 4-5).

    Params: ``hub_degree`` -- the fundamental-cycle length of the
    :func:`~repro.graphs.generators.hard_hub_graph` instance.
    """
    _require_mdst(spec)
    length = int(spec.param("hub_degree", spec.n))
    graph = hard_hub_graph(length)
    initial = bfs_spanning_tree(graph, root=0)
    initial_degree = tree_degree(graph.nodes, initial)
    result = run_protocol(graph, spec.protocol_run_config(),
                          initial_tree=initial)
    by_type = result.run.extra.get("deliveries_by_type", {})
    row = {
        "hub_degree": length,
        "n": graph.number_of_nodes(),
        "initial_degree": initial_degree,
        "final_degree": result.tree_degree,
        "converged": result.converged,
        "rounds": result.run.extra.get("convergence_round") or result.rounds,
        "search_messages": by_type.get("Search", 0),
        "remove_messages": by_type.get("Remove", 0),
        "back_messages": by_type.get("Back", 0),
        "deblock_messages": by_type.get("Deblock", 0),
    }
    return RunOutcome(spec=spec, row=row, record=_record_for(spec, graph, result))


def run_throughput_task(spec: RunSpec) -> RunOutcome:
    """Kernel throughput measurement: simulated rounds per wall-clock second.

    Drives one full protocol execution (same code path as ``protocol``) and
    times the simulation only -- graph construction is excluded.  Used by the
    scaling benchmark (``benchmarks/test_bench_scaling.py``) and the
    cross-protocol benchmark (``benchmarks/test_bench_protocols.py``) to
    chart rounds/sec across network sizes, graph families and protocols.
    Convergence is reported but *not* required: large instances run against
    a fixed round budget.  The engine never caches these rows (see
    :data:`UNCACHEABLE_TASKS`) -- a cached wall-clock measurement would
    masquerade as a fresh one.

    Params: ``profile`` (int, default 0) -- when positive, the run executes
    under :mod:`cProfile` and the row grows a ``profile_top`` column with
    that many hottest functions by cumulative time (who-is-slow triage for
    kernel work, e.g. ``spec.with_params(profile=25)``).  Profiled
    timings carry interpreter tracing overhead and are *not* comparable to
    unprofiled rows; the column exists for ranking, not for rates.
    """
    graph = spec.build_graph()
    config = spec.protocol_run_config()
    adversary = spec.build_adversary()
    profile_top = int(spec.param("profile", 0))
    if config.backend == "array":
        # The array modules import lazily on first use inside run_protocol.
        # In a cold process that one-time import storm would land inside
        # the timed region -- and the profiled one -- so warm it up before
        # the clock starts.
        import repro.sim.array_engine    # noqa: F401
        import repro.sim.array_kernel    # noqa: F401
    profiler = None
    if profile_top > 0:
        import cProfile
        profiler = cProfile.Profile()
        profiler.enable()
    start = time.perf_counter()
    result = run_protocol(graph, config, fault_plan=_fault_plan(spec),
                          adversary=adversary)
    seconds = time.perf_counter() - start
    if profiler is not None:
        profiler.disable()
    row = _identify(spec, graph)
    row.update({
        "max_rounds": spec.max_rounds,
        "rounds": result.rounds,
        "converged": result.converged,
        "tree_degree": result.tree_degree,
        "seconds": round(seconds, 4),
        "rounds_per_sec": round(result.rounds / seconds, 2) if seconds > 0 else 0.0,
    })
    if profiler is not None:
        import pstats
        stats = pstats.Stats(profiler)
        entries = sorted(
            ((func, nc, ct, tt) for func, (_cc, nc, tt, ct, _callers)
             in stats.stats.items()),
            key=lambda item: item[2], reverse=True)
        row["profile_top"] = [
            {"function": f"{func[0]}:{func[1]}({func[2]})",
             "ncalls": nc,
             "cumtime": round(ct, 4),
             "tottime": round(tt, 4)}
            for func, nc, ct, tt in entries[:profile_top]]
    return RunOutcome(spec=spec, row=row, record=_record_for(spec, graph, result))


def run_churn_task(spec: RunSpec) -> RunOutcome:
    """Protocol execution under live topology churn (node/edge joins/leaves).

    Builds the spec's deterministic connectivity-preserving churn plan
    (:meth:`~repro.runtime.spec.RunSpec.build_churn_plan`), gives the
    spanning-tree layer ``n_upper`` headroom for the joins the plan may
    schedule, and runs the protocol through the churned execution.
    Convergence is judged against the *mutated* graph -- the legitimacy
    predicate reads the live network -- so ``converged`` doubles as the
    re-convergence-after-churn verdict.  ``recovery_rounds`` is the gap
    between the last applied churn event and the convergence round.  Rows
    carry wall-clock timing, so the engine never caches them (see
    :data:`UNCACHEABLE_TASKS`).

    Dispatches on ``spec.protocol``; protocols whose adapter declares
    ``supports_churn = False`` (the fixed-tree PIF aggregation) are
    rejected before any work happens.
    """
    get_protocol(spec.protocol).require("supports_churn", "topology churn")
    graph = spec.build_graph()
    plan = spec.build_churn_plan(graph)
    config = spec.protocol_run_config()
    if plan is not None:
        # Joins may grow the network past the input size: keep the distance
        # bound legal for every topology the plan can produce.
        config.n_upper = graph.number_of_nodes() + spec.churn_events + 1
    adversary = spec.build_adversary()
    start = time.perf_counter()
    result = run_protocol(graph, config, fault_plan=_fault_plan(spec),
                          churn_plan=plan, adversary=adversary)
    seconds = time.perf_counter() - start
    extra = result.run.extra
    convergence_round = extra.get("convergence_round")
    churn_rounds = extra.get("churn_rounds", [])
    recovery: Optional[int] = None
    if result.converged and convergence_round is not None and churn_rounds:
        recovery = convergence_round - max(churn_rounds)
    row = _identify(spec, graph)
    row.update({
        "churn_rate": spec.churn_rate,
        "churn_events": spec.churn_events,
        "churn_applied": extra.get("churn_applied", 0),
        "churn_skipped": extra.get("churn_skipped", 0),
        "dropped_messages": extra.get("dropped_messages", 0),
        "final_n": extra.get("final_n", graph.number_of_nodes()),
        "final_m": extra.get("final_m", graph.number_of_edges()),
        "converged": result.converged,
        "rounds": result.rounds,
        "convergence_round": convergence_round,
        "recovery_rounds": recovery,
        "steps": result.run.steps,
        "messages": result.run.messages,
        "tree_degree": result.tree_degree,
        "seconds": round(seconds, 4),
        "rounds_per_sec": round(result.rounds / seconds, 2) if seconds > 0 else 0.0,
    })
    if spec.adversary_enabled:
        # Adversary losses are accounted by the channel model, never in
        # ``dropped_messages`` (which is churn-only) -- the two columns
        # stay independently meaningful on a lossy churned run.
        row["adversary"] = extra.get("adversary", "")
        row["adversary_dropped"] = extra.get("adversary_dropped", 0)
    return RunOutcome(spec=spec, row=row, record=_record_for(spec, graph, result))


def run_adversary_task(spec: RunSpec) -> RunOutcome:
    """Protocol execution under the spec's adversary models.

    Builds the spec's :class:`~repro.sim.adversary.Adversary` (unreliable
    channels and/or crash/recover node faults and/or Byzantine gossip --
    :meth:`~repro.runtime.spec.RunSpec.build_adversary`), runs the protocol
    through the hostile execution, and reports a *survival verdict*:
    ``"recovered"`` when the legitimacy predicate re-stabilized after the
    last scheduled adversary event (or under continuous channel noise),
    ``"not_recovered"`` otherwise.  ``recovery_rounds`` is the gap between
    the last fired scheduled event and the convergence round (``None`` for
    channel-noise-only adversaries, which schedule no events).  Rows carry
    wall-clock timing, so the engine never caches them (see
    :data:`UNCACHEABLE_TASKS`).

    Dispatches on ``spec.protocol``; every registered protocol accepts
    every adversary model.
    """
    if not spec.adversary_enabled:
        raise ConfigurationError(
            "the adversary task needs at least one adversary knob "
            "(--loss/--dup/--reorder/--crash-count/--byzantine-count)")
    adversary = spec.build_adversary()
    graph = spec.build_graph()
    config = spec.protocol_run_config()
    start = time.perf_counter()
    result = run_protocol(graph, config, fault_plan=_fault_plan(spec),
                          adversary=adversary)
    seconds = time.perf_counter() - start
    extra = result.run.extra
    convergence_round = extra.get("convergence_round")
    adversary_rounds = extra.get("adversary_rounds", [])
    recovery: Optional[int] = None
    if result.converged and convergence_round is not None and adversary_rounds:
        recovery = convergence_round - max(adversary_rounds)
    row = _identify(spec, graph)
    row.update({
        "adversary": extra.get("adversary", ""),
        "loss_rate": spec.loss_rate,
        "dup_rate": spec.dup_rate,
        "reorder_rate": spec.reorder_rate,
        "crash_count": spec.crash_count,
        "crash_recover": spec.crash_recover,
        "byzantine_count": spec.byzantine_count,
        "converged": result.converged,
        "verdict": "recovered" if result.converged else "not_recovered",
        "rounds": result.rounds,
        "convergence_round": convergence_round,
        "recovery_rounds": recovery,
        "adversary_events": extra.get("adversary_events", 0),
        "adversary_dropped": extra.get("adversary_dropped", 0),
        "adversary_duplicated": extra.get("adversary_duplicated", 0),
        "adversary_reordered": extra.get("adversary_reordered", 0),
        "node_crashes": extra.get("node_crashes", 0),
        "node_recoveries": extra.get("node_recoveries", 0),
        "byzantine_corruptions": extra.get("byzantine_corruptions", 0),
        "steps": result.run.steps,
        "messages": result.run.messages,
        "tree_degree": result.tree_degree,
        "seconds": round(seconds, 4),
        "rounds_per_sec": round(result.rounds / seconds, 2) if seconds > 0 else 0.0,
    })
    return RunOutcome(spec=spec, row=row, record=_record_for(spec, graph, result))


#: Tasks whose rows are wall-clock measurements: the engine never serves
#: them from (or writes them to) the result cache -- a cached timing row
#: would silently masquerade as a fresh measurement.
UNCACHEABLE_TASKS = frozenset({"throughput", "churn", "adversary"})

TASKS: Dict[str, Callable[[RunSpec], RunOutcome]] = {
    "protocol": run_protocol_task,
    "throughput": run_throughput_task,
    "churn": run_churn_task,
    "adversary": run_adversary_task,
    "reference": run_reference_task,
    "memory": run_memory_task,
    "quality": run_quality_task,
    "baselines": run_baselines_task,
    "hub": run_hub_task,
    "improvement": run_improvement_task,
}


def task_names() -> list:
    """Sorted names of the registered tasks."""
    return sorted(TASKS)


def execute_spec(spec: RunSpec) -> RunOutcome:
    """Execute one spec in the current process (the worker entry point)."""
    try:
        task = TASKS[spec.task]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown task {spec.task!r}; known: {task_names()}") from exc
    return task(spec)
