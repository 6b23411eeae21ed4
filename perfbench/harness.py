"""Time-to-legitimate-tree benchmark: workloads, tracing, verification.

Every workload drives the public library path -- ``make_graph`` then
``run_protocol`` -- over a small suite of instances, run back to back as a
closed loop.  A *pass* runs the whole suite once; a run repeats passes
until its time budget is spent.

Timing comes from spans recorded by :class:`Tracer`.  An untraced pass
wraps only ``Simulator.run`` and ``Simulator.step_round``, which splits
set-up from simulation and times every round (see
:func:`end_to_end_times`); a traced pass also wraps the adapter hooks, the
legitimacy predicate and the scheduler's ``run_round``, and attributes
self time (span minus child spans) to each layer.  Span names are the
module-path names of the per-layer metrics without their ``_s``.

Outputs are verified outside the timed region; any failed check, any
count that differs between passes of the same instance, and any
impossible number (non-positive duration, non-finite rate, a layer self
time outside ``[0, wall]``) makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import math
import random
import resource
import statistics
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Iterator, List, Sequence, Tuple

import networkx as nx

from repro.baselines.exact import exact_mdst_degree
from repro.graphs import make_graph
from repro.protocols import run_protocol
from repro.protocols.base import ProtocolRunConfig
from repro.protocols.registry import get_protocol
from repro.sim.simulator import Simulator

__all__ = [
    "WORKLOADS", "END_TO_END", "PER_LAYER", "Workload", "Tracer",
    "run_workload", "verify_tree", "check_numbers", "BenchmarkError",
]


class BenchmarkError(Exception):
    """A verification failure or an impossible measurement."""


# -- workloads ----------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a protocol configuration and its instances.

    A workload runs graph seeds ``0 .. instances-1`` (also the run seeds) in
    an order drawn from the run seed.  Time to legitimacy is heavy-tailed
    over graphs, so drawing the graphs from the run seed would measure the
    draw rather than the program.
    """

    name: str
    why: str
    protocol: str
    backend: str
    scheduler: str
    initial: str
    family: str
    n: int
    instances: int
    max_rounds: int

    def instance_seeds(self, seed: int) -> List[int]:
        seeds = list(range(self.instances))
        random.Random(seed).shuffle(seeds)
        return seeds

    def config(self, seed: int) -> ProtocolRunConfig:
        return ProtocolRunConfig(
            protocol=self.protocol, scheduler=self.scheduler, seed=seed,
            initial=self.initial, backend=self.backend,
            max_rounds=self.max_rounds)

    def tiny(self) -> "Workload":
        """The same configuration on one small instance (warm-up, smoke tests)."""
        return dataclasses.replace(self, n=8, instances=1)

    def generate(self, seed: int) -> nx.Graph:
        return make_graph(self.family, self.n, seed=seed)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="mdst-cold-sync-n16",
        why=("headline cold start (isolated, synchronous, object backend) at "
             "a size where convergence is established; monitor and object "
             "kernel share the work"),
        protocol="mdst", backend="object", scheduler="synchronous",
        initial="isolated", family="erdos_renyi_sparse", n=16,
        instances=4, max_rounds=5000),
    Workload(
        name="mdst-corrupted-async-array-n16",
        why=("control-heavy corrupted start under the random scheduler on the "
             "array backend: slot planner, batched control waves, corrupted "
             "initial policy"),
        protocol="mdst", backend="array", scheduler="random",
        initial="corrupted", family="erdos_renyi_sparse", n=16,
        instances=1, max_rounds=5000),
)}

#: End-to-end metrics (untraced run): name -> unit.
END_TO_END: Dict[str, str] = {
    "wall_s": "s",
    "setup_s": "s",
    "run_s": "s",
    "rounds_per_s": "1/s",
    "deliveries_per_s": "1/s",
    "ok_frac": "ratio",
    "sim_rounds": "count",
    "messages_sent": "count",
    "tree_degree_max": "count",
    "peak_rss_mb": "MB",
}

#: Layer spans, in nesting order; each reports ``<span>_s`` self time.
SPANS: Tuple[str, ...] = (
    "graphs.generate",
    "protocols.runner",
    "protocols.build",
    "protocols.initial",
    "protocols.legitimacy",
    "sim.simulator.loop",
    "sim.monitors.overhead",
    "sim.scheduler.round",
    "sim.monitors.predicate",
    "protocols.extract",
)

#: Message types the workloads deliver (``Reverse`` did not occur on them).
MESSAGE_TYPES: Tuple[str, ...] = (
    "MInfo", "Search", "Back", "Remove", "Deblock", "UpdateDist",
    "GarbageMessage")
CONTROL_TYPES = frozenset(("Search", "Back", "Remove", "Deblock", "Reverse",
                           "UpdateDist"))

#: Per-layer metrics (traced run): name -> unit.
PER_LAYER: Dict[str, str] = {
    **{f"{span}_s": "s" for span in SPANS},
    "graphs.edges": "count",
    "sim.scheduler.ms_per_round": "ms",
    "sim.scheduler.steps": "count",
    "sim.scheduler.deliveries": "count",
    "sim.monitors.evaluations": "count",
    "sim.monitors.cache_hits": "count",
    "sim.monitors.hit_ratio": "ratio",
    **{f"core.msgs.{t}": "count" for t in MESSAGE_TYPES},
    "core.control_share": "ratio",
    "core.improvements_started": "count",
    "core.removals_performed": "count",
    "core.swap_success": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.coverage": "ratio",
}


# -- tracing ------------------------------------------------------------------

class Tracer:
    """In-memory span recorder: per-name self time and every call's duration."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.last_end: Dict[str, float] = {}
        self._children: List[float] = []

    def total(self, name: str) -> float:
        return sum(self.durations[name])

    def calls(self, name: str) -> int:
        return len(self.durations[name])

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        self._children.append(0.0)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(name, start)

    def _close(self, name: str, start: float) -> None:
        end = perf_counter()
        duration = end - start
        self.self_s[name] += duration - self._children.pop()
        self.durations[name].append(duration)
        self.last_end[name] = end
        if self._children:
            self._children[-1] += duration

    def wrap(self, name: str, fn):
        """``fn`` recording one ``name`` span per call."""
        def traced(*args, **kwargs):
            self._children.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, start)
        return traced

    def add_child(self, name: str, seconds: float) -> None:
        """Attribute an interval measured inside the open span to ``name``."""
        self.self_s[name] += seconds
        self.durations[name].append(seconds)
        self._children[-1] += seconds


@contextlib.contextmanager
def instrumented(tracer: Tracer, protocol: str, full: bool) -> Iterator[None]:
    """Wrap the library's public callables with ``tracer`` spans.

    Always wraps ``Simulator.run``.  Without ``full`` it times each
    ``Simulator.step_round`` as one ``sim.round`` span; with ``full`` it
    also wraps the adapter hooks, the predicate ``make_legitimacy``
    returns and, per simulator, its scheduler's ``run_round``, so a round
    splits into monitor overhead, scheduler and predicate self time.
    Everything is restored on exit.
    """
    adapter = get_protocol(protocol)
    patches = [(Simulator, "run",
                tracer.wrap("sim.simulator.loop", Simulator.run))]
    if not full:
        patches.append((Simulator, "step_round",
                        tracer.wrap("sim.round", Simulator.step_round)))
    else:
        step_round = Simulator.step_round

        def traced_step_round(sim):
            scheduler = sim.scheduler
            if "run_round" not in vars(scheduler):
                scheduler.run_round = tracer.wrap(
                    "sim.scheduler.round", scheduler.run_round)
            return step_round(sim)

        make_legitimacy = adapter.make_legitimacy

        def traced_make_legitimacy(network, config):
            return tracer.wrap("sim.monitors.predicate",
                               make_legitimacy(network, config))

        patches += [
            (Simulator, "step_round",
             tracer.wrap("sim.monitors.overhead", traced_step_round)),
            (adapter, "build_network",
             tracer.wrap("protocols.build", adapter.build_network)),
            (adapter, "build_array_network",
             tracer.wrap("protocols.build", adapter.build_array_network)),
            (adapter, "prepare_initial",
             tracer.wrap("protocols.initial", adapter.prepare_initial)),
            (adapter, "make_legitimacy",
             tracer.wrap("protocols.legitimacy", traced_make_legitimacy)),
        ]
    with patched(patches):
        yield


@contextlib.contextmanager
def patched(patches) -> Iterator[None]:
    """Set ``(obj, attr, value)`` attributes, restoring the originals on exit."""
    saved = [(obj, attr, vars(obj).get(attr)) for obj, attr, _ in patches]
    try:
        for obj, attr, new in patches:
            setattr(obj, attr, new)
        yield
    finally:
        for obj, attr, old in saved:
            if old is None:
                delattr(obj, attr)
            else:
                setattr(obj, attr, old)


class _SimulationReached(Exception):
    """Raised in place of ``Simulator.run`` to end a set-up-only sample."""


def setup_sample(wl: Workload, seeds: Sequence[int]) -> List[float]:
    """Per-instance set-up time: generate, then ``run_protocol`` up to the
    moment it starts simulating (the same code path a full run takes)."""
    def reached(*args, **kwargs):
        raise _SimulationReached(perf_counter())

    times = []
    with patched([(Simulator, "run", reached)]):
        for seed in seeds:
            start = perf_counter()
            try:
                run_protocol(wl.generate(seed), wl.config(seed))
            except _SimulationReached as stop:
                times.append(stop.args[0] - start)
            else:
                raise BenchmarkError("run_protocol returned without simulating")
    return times


# -- verification ---------------------------------------------------------------

def verify_tree(graph: nx.Graph, edges) -> int:
    """Check ``edges`` is a spanning tree of ``graph``; return its degree."""
    n = graph.number_of_nodes()
    edges = list(edges)
    if len(edges) != n - 1:
        raise BenchmarkError(f"tree has {len(edges)} edges, expected {n - 1}")
    parent = {v: v for v in graph.nodes}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    degree: Dict[object, int] = defaultdict(int)
    for u, v in edges:
        if not graph.has_edge(u, v):
            raise BenchmarkError(f"tree edge {(u, v)} is not a graph edge")
        ru, rv = find(u), find(v)
        if ru == rv:
            raise BenchmarkError(f"tree edge {(u, v)} closes a cycle")
        parent[ru] = rv
        degree[u] += 1
        degree[v] += 1
    return max(degree.values(), default=0)


def verify_instance(graph: nx.Graph, result) -> None:
    """Check one instance's output; raise :class:`BenchmarkError` if wrong."""
    if not result.converged:
        raise BenchmarkError(f"no legitimate tree within {result.rounds} rounds")
    degree = verify_tree(graph, result.tree_edges)
    if degree != result.tree_degree:
        raise BenchmarkError(
            f"reported tree degree {result.tree_degree}, tree has {degree}")
    optimum = exact_mdst_degree(graph)
    if degree > optimum + 1:
        raise BenchmarkError(f"tree degree {degree} exceeds OPT+1 = {optimum + 1}")


#: Set-up samples per instance an untraced run takes at least.
SETUP_SAMPLES = 3

#: Metrics that must be strictly positive: the run's durations and rates.
POSITIVE = frozenset(("wall_s", "setup_s", "run_s", "rounds_per_s",
                      "deliveries_per_s", "trace.wall_s"))


def check_numbers(metrics: Dict[str, float], units: Dict[str, str],
                  wall_s: float) -> None:
    """Reject impossible measurements instead of reporting them.

    Every value must be finite, the durations and rates in
    :data:`POSITIVE` must be positive, and every duration (a layer self
    time included) must lie within ``[0, wall_s]``.
    """
    if not (math.isfinite(wall_s) and wall_s > 0):
        raise BenchmarkError(f"wall time {wall_s!r} is not a positive duration")
    for name, value in metrics.items():
        if not math.isfinite(value):
            raise BenchmarkError(f"{name} = {value!r} is not finite")
        if name in POSITIVE and value <= 0:
            raise BenchmarkError(f"{name} = {value!r} must be positive")
        if units[name] == "s" and not 0 <= value <= wall_s:
            raise BenchmarkError(
                f"{name} = {value!r} lies outside [0, wall {wall_s!r}]")


# -- passes -------------------------------------------------------------------

@dataclass
class PassResult:
    """One pass over a workload's instances: a tracer per instance, counts."""

    tracers: List[Tracer]
    counts: Dict[str, int]
    fingerprint: List[tuple]
    failures: List[str]

    @property
    def wall_s(self) -> float:
        return sum(t.total("bench.instance") for t in self.tracers)

    def self_time(self, span: str) -> float:
        return sum(t.self_s[span] for t in self.tracers)


def instance_setup_s(t: Tracer) -> float:
    """Generation plus ``run_protocol`` up to the simulator, for one instance."""
    return (t.total("graphs.generate") + t.total("protocols.runner")
            - t.total("sim.simulator.loop") - t.total("protocols.extract"))


def run_pass(wl: Workload, seeds: Sequence[int], traced: bool) -> PassResult:
    """Run every instance once, verifying each outside the timed region."""
    tracers: List[Tracer] = []
    counts: Dict[str, int] = defaultdict(int)
    fingerprint: List[tuple] = []
    failures: List[str] = []
    for seed in seeds:
        tracer = Tracer()
        with instrumented(tracer, wl.protocol, full=traced):
            with tracer.span("bench.instance"):
                with tracer.span("graphs.generate"):
                    graph = wl.generate(seed)
                with tracer.span("protocols.runner"):
                    result = run_protocol(graph, wl.config(seed))
                    tracer.add_child(
                        "protocols.extract",
                        perf_counter() - tracer.last_end["sim.simulator.loop"])
        tracers.append(tracer)
        try:
            verify_instance(graph, result)
        except BenchmarkError as exc:
            failures.append(f"instance seed {seed}: {exc}")
        report = result.report
        if traced and tracer.calls("sim.monitors.predicate") != report.predicate_evaluations:
            failures.append(f"instance seed {seed}: traced predicate calls differ "
                            "from the simulator's evaluation count")
        by_type = result.run.extra["deliveries_by_type"]
        stats = result.node_stats.values()
        counts["instances"] += 1
        counts["edges"] += graph.number_of_edges()
        counts["rounds"] += report.rounds
        counts["steps"] += report.steps
        counts["deliveries"] += report.deliveries
        counts["messages_sent"] += report.messages_sent
        counts["evaluations"] += report.predicate_evaluations
        counts["cache_hits"] += report.predicate_cache_hits
        counts["improvements_started"] += sum(
            s.get("improvements_started", 0) for s in stats)
        counts["removals_performed"] += sum(
            s.get("removals_performed", 0) for s in stats)
        for name, count in by_type.items():
            counts[f"msgs.{name}"] += count
        counts["tree_degree_max"] = max(counts["tree_degree_max"],
                                        result.tree_degree)
        fingerprint.append((seed, result.converged, report.rounds,
                            report.messages_sent, report.deliveries,
                            tuple(sorted(by_type.items())),
                            tuple(sorted(result.tree_edges))))
    return PassResult(tracers, dict(counts), fingerprint, failures)


def end_to_end_times(passes: List[PassResult],
                     setups: List[List[float]]) -> Dict[str, float]:
    """``wall_s = setup_s + run_s + extraction`` over the untraced passes.

    Each instance's set-up is the median of its set-up samples (the passes'
    and the set-up-only ones).  Each simulated round, the rest of the
    simulator loop and the extraction are timed as their minimum over the
    passes: the instances are deterministic, so every pass repeats the same
    rounds, and on a shared host the per-round minimum is far steadier than
    any per-pass statistic.
    """
    setup = run = extract = 0.0
    for i in range(len(passes[0].tracers)):
        ts = [p.tracers[i] for p in passes]
        setup += statistics.median(
            [instance_setup_s(t) for t in ts] + [s[i] for s in setups])
        rounds = [t.durations["sim.round"] for t in ts]
        run += sum(map(min, zip(*rounds)))
        run += min(t.self_s["sim.simulator.loop"] for t in ts)
        extract += min(t.total("protocols.extract") for t in ts)
    return {"wall_s": setup + run + extract, "setup_s": setup, "run_s": run}


def per_layer(p: PassResult) -> Dict[str, float]:
    c = p.counts
    control = sum(v for k, v in c.items()
                  if k.startswith("msgs.") and k[5:] in CONTROL_TYPES)
    lookups = c["evaluations"] + c["cache_hits"]
    out = {f"{span}_s": p.self_time(span) for span in SPANS}
    out.update({
        "graphs.edges": c["edges"],
        "sim.scheduler.ms_per_round": 1e3 * p.self_time("sim.scheduler.round") / c["rounds"],
        "sim.scheduler.steps": c["steps"],
        "sim.scheduler.deliveries": c["deliveries"],
        "sim.monitors.evaluations": c["evaluations"],
        "sim.monitors.cache_hits": c["cache_hits"],
        "sim.monitors.hit_ratio": c["cache_hits"] / lookups if lookups else 0.0,
        "core.control_share": control / c["deliveries"] if c["deliveries"] else 0.0,
        "core.improvements_started": c["improvements_started"],
        "core.removals_performed": c["removals_performed"],
        "core.swap_success": (c["removals_performed"] / c["improvements_started"]
                              if c["improvements_started"] else 0.0),
        "trace.wall_s": p.wall_s,
        "trace.coverage": sum(p.self_time(span) for span in SPANS) / p.wall_s,
    })
    out.update({f"core.msgs.{m}": c.get(f"msgs.{m}", 0) for m in MESSAGE_TYPES})
    return out


def run_workload(wl: Workload, seed: int, seconds: float,
                 trace: bool) -> Tuple[dict, List[str]]:
    """Run passes for ``seconds`` and build the result object.

    Untraced runs repeat untraced passes; traced runs alternate untraced and
    traced passes (the untraced ones are the overhead baseline).  A new
    pass starts only if the longest pass so far still fits the budget, and
    every run makes at least one pass of each kind it needs.  An untraced
    run then tops each instance up to :data:`SETUP_SAMPLES` set-up samples
    with set-up-only runs, so ``setup_s`` is a median even when one pass
    fills the budget.  Returns the result object and the list of problems
    found.
    """
    seeds = wl.instance_seeds(seed)
    kinds = (False, True) if trace else (False,)
    for kind in kinds:
        # Untimed warm-up: lazy imports and first-call costs are paid once
        # per process, not per instance.
        run_pass(wl.tiny(), wl.tiny().instance_seeds(seed), traced=kind)
    passes: Dict[bool, List[PassResult]] = {k: [] for k in kinds}
    start = perf_counter()
    longest = 0.0
    for i in itertools.count():
        kind = kinds[i % len(kinds)]
        t0 = perf_counter()
        passes[kind].append(run_pass(wl, seeds, traced=kind))
        longest = max(longest, perf_counter() - t0)
        if all(passes.values()) and perf_counter() - start + longest > seconds:
            break
    everything = [p for ps in passes.values() for p in ps]
    problems = [f for p in everything for f in p.failures]
    if any(p.fingerprint != everything[0].fingerprint for p in everything):
        problems.append("counts or trees differ between passes of the same instances")
    counts = everything[0].counts
    attempted = sum(p.counts["instances"] for p in everything)
    failed = sum(len(p.failures) for p in everything)
    if trace:
        metrics = _median_dict([per_layer(p) for p in passes[True]])
        metrics["trace.overhead_frac"] = metrics["trace.wall_s"] / statistics.median(
            p.wall_s for p in passes[False]) - 1.0
        units = PER_LAYER
        if abs(metrics["trace.coverage"] - 1.0) > 0.05:
            problems.append(f"trace coverage {metrics['trace.coverage']:.4f} "
                            "is not within 5% of traced wall time")
        wall_s = metrics["trace.wall_s"]
    else:
        setups = [setup_sample(wl, seeds)
                  for _ in range(SETUP_SAMPLES - len(passes[False]))]
        metrics = end_to_end_times(passes[False], setups)
        metrics.update({
            "rounds_per_s": counts["rounds"] / metrics["run_s"],
            "deliveries_per_s": counts["deliveries"] / metrics["run_s"],
            "ok_frac": (attempted - failed) / attempted,
            "sim_rounds": counts["rounds"],
            "messages_sent": counts["messages_sent"],
            "tree_degree_max": counts["tree_degree_max"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        })
        units = END_TO_END
        wall_s = metrics["wall_s"]
    try:
        check_numbers(metrics, units, wall_s)
    except BenchmarkError as exc:
        problems.append(str(exc))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, problems


def _median_dict(rows: List[Dict[str, float]]) -> Dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}
