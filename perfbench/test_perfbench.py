"""Tests of the time-to-legitimate-tree benchmark harness.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the repo root.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import networkx as nx
import pytest

import harness
from repro.sim.simulator import Simulator

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())


def test_names_are_well_formed_and_match_the_spec():
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]])
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        w.name: w.why for w in harness.WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == harness.PER_LAYER


def test_verify_tree_accepts_a_spanning_tree():
    graph = nx.cycle_graph(6)
    assert harness.verify_tree(graph, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]) == 2


@pytest.mark.parametrize("edges", [
    [(0, 1), (1, 2), (2, 3), (3, 4)],            # too few edges
    [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)],    # cycle, disconnected
    [(0, 1), (1, 2), (2, 3), (3, 4), (0, 3)],    # not a graph edge
])
def test_verify_tree_rejects_a_broken_tree(edges):
    with pytest.raises(harness.BenchmarkError):
        harness.verify_tree(nx.cycle_graph(6), edges)


@pytest.mark.parametrize("metrics", [
    {"wall_s": 1.0, "run_s": 0.0},
    {"wall_s": 1.0, "rounds_per_s": math.inf},
    {"wall_s": 1.0, "rounds_per_s": math.nan},
    {"wall_s": 1.0, "sim.scheduler.round_s": 1.5},
    {"wall_s": 1.0, "sim.scheduler.round_s": -1e-3},
])
def test_check_numbers_rejects_impossible_values(metrics):
    units = {**harness.END_TO_END, **harness.PER_LAYER}
    with pytest.raises(harness.BenchmarkError):
        harness.check_numbers(metrics, units, wall_s=1.0)


def test_check_numbers_rejects_a_zero_second_wall():
    with pytest.raises(harness.BenchmarkError):
        harness.check_numbers({}, harness.END_TO_END, wall_s=0.0)


def test_tracer_attributes_self_time_to_the_innermost_span():
    tracer = harness.Tracer()
    with tracer.span("outer"):
        tracer.wrap("inner", sum)(range(10_000))
        tracer.add_child("carved", 0.0)
    assert tracer.self_s["inner"] == tracer.total("inner") > 0
    assert math.isclose(tracer.self_s["outer"] + tracer.self_s["inner"],
                        tracer.total("outer"))
    assert [tracer.calls(n) for n in ("outer", "inner", "carved")] == [1, 1, 1]


def test_instrumentation_is_restored_on_exit():
    run, step_round = Simulator.run, Simulator.step_round
    with harness.instrumented(harness.Tracer(), "mdst", full=True):
        assert Simulator.run is not run
    assert (Simulator.run, Simulator.step_round) == (run, step_round)
    assert "build_network" not in vars(harness.get_protocol("mdst"))


def test_suites_are_fixed_and_ordered_by_seed():
    cold = harness.WORKLOADS["mdst-cold-sync-n16"]
    assert sorted(cold.instance_seeds(1)) == list(range(cold.instances))
    assert cold.instance_seeds(1) == cold.instance_seeds(1)


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_of_each_workload_is_correct(name, trace):
    result, problems = harness.run_workload(
        harness.WORKLOADS[name].tiny(), seed=1, seconds=0, trace=trace)
    assert problems == [] and result["correct"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = harness.PER_LAYER if trace else harness.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    if not trace:
        assert result["metrics"]["ok_frac"]["value"] == 1.0
