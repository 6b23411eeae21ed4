"""Large-n scaling benchmark: rounds/sec across sizes, schedulers, backends.

The paper's Lemma 5 bounds convergence at ``O(m n^2 log n)`` rounds, so
measuring it meaningfully needs sweeps well beyond the n <= 12 bench
workloads.  This suite drives the kernel through the runtime engine
(``throughput`` task) in three tiers, each run once per kernel backend
(``object`` and ``array``) with per-run ``backend`` and ``scheduler``
columns:

* breadth -- three qualitatively different graph families (sparse
  Erdős–Rényi, random geometric, the hub-heavy barbell) at
  n in {16, 32, 64, 128}, synchronous scheduler;
* scaling -- the large-n tier, ``erdos_renyi_sparse`` at
  n in {256, 1024, 4096, 8192}, synchronous scheduler, where the
  vectorized array kernel is expected to pull away from the per-object
  kernel;
* async -- ``erdos_renyi_sparse`` at n in {1024, 4096} under the
  random-async scheduler, exercising the array engine's slot-planned
  batched step path (``repro.sim.array_engine``).

A second test, ``test_construction_scaling``, times *setup* rather than
rounds: graph generation plus network construction for the heavy-tailed
``powerlaw_cm`` family at n in {10_000, 50_000}, in three modes --
``object`` (nx graph -> per-object ``build_mdst_network``), ``array_nx``
(nx graph, converted once to edge arrays -> ``ArrayNetwork``), and
``csr_direct`` (:class:`~repro.graphs.edge_array.EdgeArrayGraph` ->
``ArrayNetwork`` straight from the cached CSR).  Both array modes take
the one construction route, with lazy per-object maps.  Record mode gates
``csr_direct`` at >= ``CONSTRUCTION_SPEEDUP_TARGET`` x faster than
``object`` at n=10_000 (both build-only and end-to-end); smoke mode runs
only the csr_direct n=10_000 case, the median of
``CONSTRUCTION_SMOKE_REPEATS`` builds, against its committed guard.

Every number is a *marginal* cost, measured by two-budget warm-up
subtraction: each configuration runs twice, once for ``warmup`` rounds
and once for ``warmup + window`` rounds, and the reported seconds are the
difference, the median over ``REPEATS`` such pairs (one noisy sample on a
shared host does not become the recorded point).  That cancels everything
both runs share -- graph and network construction, initial-policy
installation, cold caches -- so rounds/sec reflects steady per-round
kernel cost rather than a setup-amortization
artifact (the previous revision's fixed per-size budgets made larger
networks look disproportionately slow purely because setup was a bigger
share of a smaller budget).  ``stability_window`` is set above the budget
so every run executes *exactly* ``max_rounds`` rounds; the measured
window sits in the early, gossip-dominated regime of the cold start.

Two modes, mirroring ``test_bench_kernel_throughput.py``:

* smoke (default) -- one n=64 instance per (backend, scheduler) smoke
  combination (object/synchronous, array/synchronous, array/random) with
  a small window; what plain ``pytest`` and the CI smoke job run.  If
  the committed ``BENCH_scaling.json`` carries a matching smoke record,
  the test fails when the current machine is more than
  ``SMOKE_GUARD_FACTOR`` x slower than the recorded number *for that
  combination* -- a machine-tolerant regression guard, not a strict gate.
* record (``REPRO_BENCH_RECORD=1``) -- all three tiers for both
  backends; writes ``BENCH_scaling.json`` (including fresh smoke records
  for the guard) and asserts two gates: the array backend's aggregate
  rounds/sec over the synchronous scaling tier (n >= 256) is
  >= ``ARRAY_SPEEDUP_TARGET`` x the object backend's, and its aggregate
  over the async tier is >= ``ASYNC_SPEEDUP_TARGET`` x the object
  backend's.

History (record mode):

* pre-dirty-set kernel (PR 2 state): ~26.6 rounds/sec aggregate at n=64
  under the old setup-inclusive accounting; the dirty-set refactor's
  acceptance gate was >= 2x that.
* array-kernel PR: marginal per-round cost at n=256/1024/4096 measured
  at ~37/177/1042 ms (object) vs ~15/49/119 ms (array) on the reference
  machine -- the >= 5x synchronous aggregate gate below.
* array-engine PR (async schedulers + substrate protocols): random-async
  aggregate at n in {1024, 4096} measured ~3.8x object on the reference
  machine -- the >= 3x async aggregate gate below.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro.core.protocol import build_mdst_network
from repro.graphs.fast_generators import make_fast_graph
from repro.runtime.engine import SweepEngine
from repro.runtime.spec import RunSpec
from repro.sim.array_kernel import ArrayNetwork

OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_scaling.json"

#: Both kernel backends run every tier; rows carry ``backend`` and
#: ``scheduler`` columns.
BACKENDS: Tuple[str, ...] = ("object", "array")

#: Breadth tier: families x small sizes, one seed, synchronous scheduler,
#: isolated cold start.
FAMILIES: Tuple[str, ...] = ("erdos_renyi_sparse", "random_geometric", "barbell")
BREADTH_SIZES: Tuple[int, ...] = (16, 32, 64, 128)
BREADTH_WARMUP = 3
BREADTH_WINDOW = 60

#: Scaling tier: the large-n workload the array backend exists for.
SCALING_FAMILY = "erdos_renyi_sparse"
SCALING_SIZES: Tuple[int, ...] = (256, 1024, 4096, 8192)
SCALING_WARMUP = 3
SCALING_WINDOW = 10

#: Async tier: the random-async scheduler through the slot-planned array
#: engine.  An async round is n timeout activations plus every delivery,
#: so the window is kept small.
ASYNC_SCHEDULER = "random"
ASYNC_SIZES: Tuple[int, ...] = (1024, 4096)
ASYNC_WARMUP = 2
ASYNC_WINDOW = 6

SEED = 11

#: Two-budget pairs per point; the row reports their median marginal.
REPEATS = 3

#: Smoke workload: small, fast, fixed -- the CI guard compares like for
#: like.  The (array, random) combination keeps the async planner path on
#: the CI radar.
SMOKE_N = 64
SMOKE_WARMUP = 2
SMOKE_WINDOW = 30
SMOKE_COMBOS: Tuple[Tuple[str, str], ...] = (
    ("object", "synchronous"),
    ("array", "synchronous"),
    ("array", "random"),
)

#: Fail smoke mode only when a combination's throughput drops more than
#: this factor below its committed record (absorbs machine variation).
SMOKE_GUARD_FACTOR = 5.0

#: Record-mode acceptance: array-backend aggregate rounds/sec over the
#: synchronous scaling tier must beat the object backend by at least this
#: factor...
ARRAY_SPEEDUP_TARGET = 5.0

#: ...and over the random-async tier by at least this factor.
ASYNC_SPEEDUP_TARGET = 3.0

#: Construction tier: setup seconds (generation + network build) for the
#: heavy-tailed configuration-model family, three build modes per size.
CONSTRUCTION_FAMILY = "powerlaw_cm"
CONSTRUCTION_SIZES: Tuple[int, ...] = (10_000, 50_000)
CONSTRUCTION_MODES: Tuple[str, ...] = ("object", "array_nx", "csr_direct")

#: Record-mode acceptance: at n=10_000 the CSR-direct build must beat the
#: per-object build by at least this factor, both on build seconds alone
#: and end to end (generation + build).
CONSTRUCTION_SPEEDUP_TARGET = 10.0

#: Smoke mode runs only this case (fast: tens of milliseconds) against
#: the committed guard.
CONSTRUCTION_SMOKE_N = 10_000
#: Smoke builds per run; the guard reads the one with the median total, so
#: a single build slowed by a busy host does not fail it.
CONSTRUCTION_SMOKE_REPEATS = 5


def _workload_fingerprint() -> Dict[str, object]:
    return {
        "families": list(FAMILIES),
        "breadth_sizes": list(BREADTH_SIZES),
        "scaling_family": SCALING_FAMILY,
        "scaling_sizes": list(SCALING_SIZES),
        "async_scheduler": ASYNC_SCHEDULER,
        "async_sizes": list(ASYNC_SIZES),
        "backends": list(BACKENDS),
        "seed": SEED,
        "scheduler": "synchronous",
        "initial": "isolated",
        "task": "throughput",
        "measurement": f"two-budget warm-up subtraction, median of {REPEATS}",
    }


def _smoke_fingerprint() -> Dict[str, object]:
    return {
        "family": SCALING_FAMILY,
        "n": SMOKE_N,
        "warmup": SMOKE_WARMUP,
        "window": SMOKE_WINDOW,
        "combos": [list(combo) for combo in SMOKE_COMBOS],
        "seed": SEED,
        "initial": "isolated",
        "task": "throughput",
        "measurement": f"two-budget warm-up subtraction, median of {REPEATS}",
    }


def _construction_fingerprint() -> Dict[str, object]:
    return {
        "family": CONSTRUCTION_FAMILY,
        "sizes": list(CONSTRUCTION_SIZES),
        "modes": list(CONSTRUCTION_MODES),
        "smoke_n": CONSTRUCTION_SMOKE_N,
        "smoke_mode": "csr_direct",
        "seed": SEED,
        "measurement": "wall-clock generation + network build",
    }


def _merge_payload(updates: Dict[str, object]) -> None:
    """Update ``BENCH_scaling.json`` in place, preserving other sections.

    Both record-mode tests write through here so re-recording one test
    does not drop the other's committed rows and guards.
    """
    data: Dict[str, object] = {}
    if OUTPUT_PATH.exists():
        data = json.loads(OUTPUT_PATH.read_text())
    data.update(updates)
    data["unix_time"] = int(time.time())
    OUTPUT_PATH.write_text(json.dumps(data, indent=2) + "\n")


def _timed_run(engine: SweepEngine, family: str, n: int, backend: str,
               scheduler: str, budget: int) -> float:
    """One throughput run of exactly ``budget`` rounds; returns seconds.

    ``stability_window`` sits above the budget so the simulator cannot
    stop early on a transiently legitimate configuration -- the run
    executes ``max_rounds`` rounds, full stop, and the two budgets of a
    measurement therefore differ by exactly the window.
    """
    spec = RunSpec(task="throughput", family=family, n=n, seed=SEED,
                   scheduler=scheduler, initial="isolated",
                   max_rounds=budget, stability_window=budget + 1,
                   backend=backend)
    [outcome] = engine.execute([spec])
    rounds = int(outcome.row["rounds"])
    assert rounds == budget, (
        f"{family} n={n} backend={backend} scheduler={scheduler}: expected "
        f"exactly {budget} rounds, got {rounds}")
    return float(outcome.row["seconds"])


def _measure(engine: SweepEngine, family: str, n: int, backend: str,
             warmup: int, window: int,
             scheduler: str = "synchronous") -> Dict[str, object]:
    """Median marginal cost of ``window`` rounds after a ``warmup``-round
    prefix, over ``REPEATS`` two-budget pairs.

    Raises ``ValueError`` when the median marginal is not positive at the
    recorded precision: ``window`` rounds cannot take no time, so such a
    difference is noise swamping the window and must not become a row.
    """
    marginals = []
    for _ in range(REPEATS):
        t_warm = _timed_run(engine, family, n, backend, scheduler, warmup)
        t_full = _timed_run(engine, family, n, backend, scheduler,
                            warmup + window)
        marginals.append(t_full - t_warm)
    seconds = statistics.median(marginals)
    if round(seconds, 4) <= 0:
        raise ValueError(
            f"{family} n={n} backend={backend} scheduler={scheduler}: a "
            f"median marginal of {seconds:.4f} s for {window} rounds "
            f"(pairs: {[round(m, 4) for m in marginals]}) is impossible")
    return {
        "family": family,
        "n": n,
        "backend": backend,
        "scheduler": scheduler,
        "warmup_rounds": warmup,
        "measured_rounds": window,
        "seconds": round(seconds, 4),
        "rounds_per_sec": round(window / seconds, 2),
        "ms_per_round": round(1000.0 * seconds / window, 3),
        "marginal_seconds": [round(m, 4) for m in marginals],
    }


def _aggregate(rows: List[Dict[str, object]]) -> float:
    seconds = sum(float(row["seconds"]) for row in rows)
    rounds = sum(int(row["measured_rounds"]) for row in rows)
    return round(rounds / seconds, 2) if seconds > 0 else 0.0


def _stub_timed_run(monkeypatch, seconds_by_budget: Dict[int, float]) -> None:
    """Make ``_timed_run`` return canned seconds keyed by round budget."""
    monkeypatch.setattr(
        sys.modules[__name__], "_timed_run",
        lambda engine, family, n, backend, scheduler, budget:
            seconds_by_budget[budget])


@pytest.mark.parametrize("t_warm, t_full", [(1.0, 1.0), (1.0, 0.9),
                                             (1.0, 1.00004)])
def test_measure_rejects_a_non_positive_marginal(monkeypatch, t_warm, t_full):
    _stub_timed_run(monkeypatch, {3: t_warm, 13: t_full})
    with pytest.raises(ValueError, match="impossible"):
        _measure(None, SCALING_FAMILY, 64, "array", 3, 10)


def test_measure_reports_a_positive_marginal(monkeypatch):
    _stub_timed_run(monkeypatch, {3: 1.0, 13: 1.5})
    row = _measure(None, SCALING_FAMILY, 64, "array", 3, 10)
    assert row["seconds"] == 0.5
    assert row["rounds_per_sec"] == 20.0
    assert row["ms_per_round"] == 50.0


def test_scaling_throughput():
    record = os.environ.get("REPRO_BENCH_RECORD", "") == "1"
    engine = SweepEngine(workers=1, cache=None)

    if not record:
        rows = [_measure(engine, SCALING_FAMILY, SMOKE_N, backend,
                         SMOKE_WARMUP, SMOKE_WINDOW, scheduler=scheduler)
                for backend, scheduler in SMOKE_COMBOS]
        print()
        for row in rows:
            print(f"scaling throughput (smoke, {row['backend']}/"
                  f"{row['scheduler']}): {row['rounds_per_sec']} rounds/sec "
                  f"({row['ms_per_round']} ms/round at n={SMOKE_N})")
            assert float(row["rounds_per_sec"]) > 0
        guard = None
        if OUTPUT_PATH.exists():
            committed = json.loads(OUTPUT_PATH.read_text())
            guard = committed.get("smoke_guard")
        if guard and guard.get("workload") == _smoke_fingerprint():
            for row in rows:
                combo = f"{row['backend']}/{row['scheduler']}"
                recorded = float(guard["rounds_per_sec"][combo])
                floor = recorded / SMOKE_GUARD_FACTOR
                current = float(row["rounds_per_sec"])
                print(f"smoke guard ({combo}): recorded {recorded} "
                      f"rounds/sec, floor {round(floor, 2)}")
                assert current >= floor, (
                    f"{combo} smoke throughput {current} rounds/sec is "
                    f"more than {SMOKE_GUARD_FACTOR}x below the committed "
                    f"record {recorded} (see BENCH_scaling.json)")
        else:
            print("smoke guard: no matching committed record, guard skipped")
        return

    # -- record mode: smoke first, then the three tiers, both backends ------
    # The smoke record runs before the heavy tiers: the n=8192 object runs
    # leave the allocator and GC in a state that inflates every later
    # small-n measurement, and the guard must compare against the same
    # fresh-process conditions plain ``pytest`` runs under.
    smoke_rows = [_measure(engine, SCALING_FAMILY, SMOKE_N, backend,
                           SMOKE_WARMUP, SMOKE_WINDOW, scheduler=scheduler)
                  for backend, scheduler in SMOKE_COMBOS]
    breadth = [_measure(engine, family, n, backend,
                        BREADTH_WARMUP, BREADTH_WINDOW)
               for family in FAMILIES for n in BREADTH_SIZES
               for backend in BACKENDS]
    scaling = [_measure(engine, SCALING_FAMILY, n, backend,
                        SCALING_WARMUP, SCALING_WINDOW)
               for n in SCALING_SIZES for backend in BACKENDS]
    async_runs = [_measure(engine, SCALING_FAMILY, n, backend,
                           ASYNC_WARMUP, ASYNC_WINDOW,
                           scheduler=ASYNC_SCHEDULER)
                  for n in ASYNC_SIZES for backend in BACKENDS]

    agg = {backend: _aggregate([r for r in scaling if r["backend"] == backend])
           for backend in BACKENDS}
    speedup = round(agg["array"] / agg["object"], 2) if agg["object"] else 0.0
    async_agg = {backend: _aggregate([r for r in async_runs
                                      if r["backend"] == backend])
                 for backend in BACKENDS}
    async_speedup = (round(async_agg["array"] / async_agg["object"], 2)
                     if async_agg["object"] else 0.0)
    payload = {
        "benchmark": "scaling_throughput",
        "mode": "record",
        "workload": _workload_fingerprint(),
        "breadth_runs": breadth,
        "scaling_runs": scaling,
        "async_runs": async_runs,
        "scaling_aggregate_rounds_per_sec": agg,
        "async_aggregate_rounds_per_sec": async_agg,
        "array_speedup": {
            "aggregate": speedup,
            "target": ARRAY_SPEEDUP_TARGET,
            "note": "aggregate = sum(measured rounds) / sum(marginal "
                    "seconds) per backend over the scaling tier (n >= "
                    "256, erdos_renyi_sparse, synchronous); compare "
                    "trends, not absolutes, across machines",
        },
        "async_array_speedup": {
            "aggregate": async_speedup,
            "target": ASYNC_SPEEDUP_TARGET,
            "note": "same aggregate over the async tier (n in "
                    f"{list(ASYNC_SIZES)}, erdos_renyi_sparse, "
                    f"{ASYNC_SCHEDULER} scheduler)",
        },
        "smoke_guard": {
            "workload": _smoke_fingerprint(),
            "rounds_per_sec": {f"{r['backend']}/{r['scheduler']}":
                               r["rounds_per_sec"] for r in smoke_rows},
            "guard_factor": SMOKE_GUARD_FACTOR,
        },
    }
    _merge_payload(payload)
    print()
    print(f"scaling throughput (record): array {agg['array']} vs object "
          f"{agg['object']} rounds/sec aggregate -> {speedup}x; async "
          f"({ASYNC_SCHEDULER}) array {async_agg['array']} vs object "
          f"{async_agg['object']} -> {async_speedup}x "
          f"-> {OUTPUT_PATH.name}")
    for row in scaling + async_runs:
        print(f"  n={row['n']} {row['backend']}/{row['scheduler']}: "
              f"{row['rounds_per_sec']} rounds/sec "
              f"({row['ms_per_round']} ms/round)")
    assert speedup >= ARRAY_SPEEDUP_TARGET, (
        f"array-backend aggregate {agg['array']} rounds/sec is only "
        f"{speedup}x the object backend ({agg['object']}); the gate is "
        f"{ARRAY_SPEEDUP_TARGET}x over the n >= 256 scaling tier")
    assert async_speedup >= ASYNC_SPEEDUP_TARGET, (
        f"async array-backend aggregate {async_agg['array']} rounds/sec is "
        f"only {async_speedup}x the object backend ({async_agg['object']}); "
        f"the gate is {ASYNC_SPEEDUP_TARGET}x over the async tier")


# ---------------------------------------------------------------------------
# Construction tier: setup seconds, not rounds
# ---------------------------------------------------------------------------

def _construction_measure(n: int, mode: str) -> Dict[str, object]:
    """Generation + build seconds for one (n, mode) configuration.

    Every mode generates through the vectorized edge-array generator so
    the build paths see the *same* graph; ``object`` and ``array_nx``
    additionally pay the nx materialization (charged to generation --
    it is part of producing the input those builds consume).
    """
    t0 = time.perf_counter()
    eg = make_fast_graph(CONSTRUCTION_FAMILY, n, seed=SEED)
    graph = eg if mode == "csr_direct" else eg.to_networkx()
    generate_seconds = time.perf_counter() - t0

    t1 = time.perf_counter()
    if mode == "object":
        network = build_mdst_network(graph)
    else:
        network = ArrayNetwork(graph, n_upper=n + 1)
    build_seconds = time.perf_counter() - t1

    assert network.n == n
    total = generate_seconds + build_seconds
    return {
        "family": CONSTRUCTION_FAMILY,
        "n": n,
        "mode": mode,
        "generate_seconds": round(generate_seconds, 4),
        "build_seconds": round(build_seconds, 4),
        "total_seconds": round(total, 4),
    }


def test_construction_scaling():
    record = os.environ.get("REPRO_BENCH_RECORD", "") == "1"

    if not record:
        samples = sorted(
            (_construction_measure(CONSTRUCTION_SMOKE_N, "csr_direct")
             for _ in range(CONSTRUCTION_SMOKE_REPEATS)),
            key=lambda row: row["total_seconds"])
        row = samples[len(samples) // 2]
        print()
        print(f"construction (smoke, csr_direct, median of "
              f"{CONSTRUCTION_SMOKE_REPEATS}): "
              f"n={CONSTRUCTION_SMOKE_N} generate "
              f"{row['generate_seconds']}s + build {row['build_seconds']}s "
              f"= {row['total_seconds']}s")
        guard = None
        if OUTPUT_PATH.exists():
            committed = json.loads(OUTPUT_PATH.read_text())
            guard = committed.get("construction_smoke_guard")
        if guard and guard.get("workload") == _construction_fingerprint():
            recorded = float(guard["total_seconds"])
            ceiling = recorded * SMOKE_GUARD_FACTOR
            print(f"construction smoke guard: recorded {recorded}s, "
                  f"ceiling {round(ceiling, 4)}s")
            assert float(row["total_seconds"]) <= ceiling, (
                f"csr_direct construction at n={CONSTRUCTION_SMOKE_N} took "
                f"{row['total_seconds']}s, more than {SMOKE_GUARD_FACTOR}x "
                f"the committed record {recorded}s (see BENCH_scaling.json)")
        else:
            print("construction smoke guard: no matching committed record, "
                  "guard skipped")
        return

    # -- record mode: all sizes x modes, then the n=10k gate ---------------
    rows = [_construction_measure(n, mode)
            for n in CONSTRUCTION_SIZES for mode in CONSTRUCTION_MODES]
    by_key = {(row["n"], row["mode"]): row for row in rows}
    gate_n = 10_000
    obj = by_key[(gate_n, "object")]
    csr = by_key[(gate_n, "csr_direct")]
    build_speedup = round(
        float(obj["build_seconds"]) / max(float(csr["build_seconds"]), 1e-9),
        2)
    total_speedup = round(
        float(obj["total_seconds"]) / max(float(csr["total_seconds"]), 1e-9),
        2)
    smoke_row = by_key[(CONSTRUCTION_SMOKE_N, "csr_direct")]
    _merge_payload({
        "construction_runs": rows,
        "construction_speedup": {
            "n": gate_n,
            "build": build_speedup,
            "total": total_speedup,
            "target": CONSTRUCTION_SPEEDUP_TARGET,
            "note": "object build seconds / csr_direct build seconds at "
                    f"n={gate_n} ({CONSTRUCTION_FAMILY}); compare trends, "
                    "not absolutes, across machines",
        },
        "construction_smoke_guard": {
            "workload": _construction_fingerprint(),
            "total_seconds": smoke_row["total_seconds"],
            "guard_factor": SMOKE_GUARD_FACTOR,
        },
    })
    print()
    for row in rows:
        print(f"  construction n={row['n']} {row['mode']}: generate "
              f"{row['generate_seconds']}s + build {row['build_seconds']}s "
              f"= {row['total_seconds']}s")
    print(f"construction (record): csr_direct vs object at n={gate_n}: "
          f"{build_speedup}x build, {total_speedup}x total "
          f"-> {OUTPUT_PATH.name}")
    assert build_speedup >= CONSTRUCTION_SPEEDUP_TARGET, (
        f"csr_direct build at n={gate_n} is only {build_speedup}x faster "
        f"than the object build; the gate is "
        f"{CONSTRUCTION_SPEEDUP_TARGET}x")
    assert total_speedup >= CONSTRUCTION_SPEEDUP_TARGET, (
        f"csr_direct end-to-end setup at n={gate_n} is only "
        f"{total_speedup}x faster than the object path; the gate is "
        f"{CONSTRUCTION_SPEEDUP_TARGET}x")
