"""Kernel throughput benchmark: simulated rounds per second on an E2-style
workload.

This is the repository's perf-trajectory anchor for the simulation kernel:
it drives the same fixed workload as experiment E2 (the Lemma 5 convergence
sweep) through ``run_protocol`` and reports how many simulated rounds per
wall-clock second the kernel sustains.  Results are written to
``BENCH_kernel.json`` at the repository root so successive PRs can compare.

Two modes:

* smoke (default) -- a single tiny instance, printed only.  This is what
  plain ``pytest`` (the tier-1 suite and the CI smoke job) runs, so kernel
  perf regressions surface on every PR without burning minutes and without
  machine-local numbers ever clobbering the committed record.
* record (``REPRO_BENCH_RECORD=1``) -- the E2 scaling workload at bench
  scale (``protocol_sizes=(8, 12)``); the number the perf trajectory
  tracks.  Explicitly opting in refreshes ``BENCH_kernel.json``; commit
  the update deliberately when recording a new trajectory point.

History (record mode, this workload):

* pre-kernel-refactor baseline: ~180 rounds/sec
* activity-aware kernel (incremental convergence detection, cached
  snapshots/verdicts, memoized message sizing): ~390-520 rounds/sec
  (>= 2x across repeated measurements)
* dirty-set incremental snapshots + slotted hot-path state + interned
  gossip payloads (see docs/performance.md): ~700 rounds/sec

The absolute numbers are machine-dependent; the JSON records the workload
fingerprint so only like-for-like runs should be compared.  The large-n
companion suite lives in ``test_bench_scaling.py`` (``BENCH_scaling.json``).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.experiments.config import ExperimentProfile
from repro.experiments.workloads import scaling_workload
from repro.protocols import ProtocolRunConfig, run_protocol

#: Recorded for context in the emitted JSON: rounds/sec of the pre-refactor
#: kernel on the record-mode workload on the reference machine.
PRE_REFACTOR_ROUNDS_PER_SEC = 180.31

OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"


def _profile(record: bool) -> ExperimentProfile:
    if record:
        return ExperimentProfile(
            name="kernel-bench", protocol_sizes=(8, 12), reference_sizes=(16,),
            exact_sizes=(6,), repetitions=1, max_rounds=3000, seeds=(11,))
    return ExperimentProfile(
        name="kernel-smoke", protocol_sizes=(8,), reference_sizes=(16,),
        exact_sizes=(6,), repetitions=1, max_rounds=1500, seeds=(11,))


def test_kernel_throughput():
    record = os.environ.get("REPRO_BENCH_RECORD", "") == "1"
    profile = _profile(record)
    runs = []
    total_rounds = 0
    t0 = time.perf_counter()
    for inst in scaling_workload(profile):
        graph = inst.build()
        r0 = time.perf_counter()
        result = run_protocol(graph, ProtocolRunConfig(
            seed=inst.seed, initial="isolated", max_rounds=profile.max_rounds))
        wall = time.perf_counter() - r0
        total_rounds += result.rounds
        runs.append({
            "family": inst.family,
            "n": graph.number_of_nodes(),
            "m": graph.number_of_edges(),
            "seed": inst.seed,
            "converged": result.converged,
            "rounds": result.rounds,
            "seconds": round(wall, 4),
        })
        assert result.converged, f"{inst.family} n={inst.n} did not converge"
    elapsed = time.perf_counter() - t0

    payload = {
        "benchmark": "kernel_throughput",
        "mode": "record" if record else "smoke",
        "workload": {
            "style": "E2 (Lemma 5 convergence sweep)",
            "profile": profile.name,
            "protocol_sizes": list(profile.protocol_sizes),
            "seeds": list(profile.seeds),
            "max_rounds": profile.max_rounds,
            "scheduler": "synchronous",
            "initial": "isolated",
        },
        "rounds": total_rounds,
        "seconds": round(elapsed, 3),
        "rounds_per_sec": round(total_rounds / elapsed, 2),
        "reference": {
            "pre_refactor_rounds_per_sec": PRE_REFACTOR_ROUNDS_PER_SEC,
            "note": "record-mode workload on the original (non-incremental) kernel; "
                    "machine-dependent, compare trends not absolutes",
        },
        "runs": runs,
        "unix_time": int(time.time()),
    }
    if record:
        destination = OUTPUT_PATH.name
        OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    else:
        destination = "stdout (smoke mode never touches the committed record)"
        print()
        print(json.dumps(payload, indent=2))

    print()
    print(f"kernel throughput ({payload['mode']}): "
          f"{payload['rounds_per_sec']} rounds/sec "
          f"({total_rounds} rounds in {payload['seconds']}s) -> {destination}")
    assert total_rounds > 0
    assert payload["rounds_per_sec"] > 0
