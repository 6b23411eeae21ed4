"""Tests for the experiment harness (profiles, workloads, E1-E8 definitions).

The experiment functions are exercised on a deliberately tiny profile so the
suite stays fast; the benchmarks run the regular ``quick`` profile.
"""

from __future__ import annotations

import pytest

from repro.analysis import ExperimentReport
from repro.experiments import (
    ExperimentProfile,
    QUICK_PROFILE,
    WorkloadInstance,
    baseline_workload,
    experiment_e1_degree_quality,
    experiment_e3_memory,
    experiment_e6_baselines,
    experiment_e7_simultaneous_reduction,
    experiment_e8_improvement_cost,
    get_profile,
    hub_workload,
    quality_workload,
    scaling_workload,
    stabilization_workload,
)

TINY = ExperimentProfile(
    name="tiny",
    protocol_sizes=(8,),
    reference_sizes=(12,),
    exact_sizes=(6,),
    repetitions=1,
    max_rounds=1500,
    seeds=(5,),
    schedulers=("synchronous",),
)


class TestProfilesAndWorkloads:
    def test_get_profile(self):
        assert get_profile("quick") is QUICK_PROFILE
        with pytest.raises(KeyError):
            get_profile("nope")

    def test_seed_for_wraps(self):
        assert TINY.seed_for(0) == TINY.seed_for(1) == 5

    def test_workload_instance_builds_graph(self):
        inst = WorkloadInstance("wheel", 8, 1)
        g = inst.build()
        assert g.number_of_nodes() == 8
        assert "wheel" in inst.label

    @pytest.mark.parametrize("factory", [quality_workload, scaling_workload,
                                         stabilization_workload, baseline_workload])
    def test_workloads_nonempty_and_buildable(self, factory):
        instances = factory(TINY)
        assert instances
        g = instances[0].build()
        assert g.number_of_nodes() >= 2

    def test_hub_workload_sizes(self):
        instances = hub_workload(TINY, hub_counts=(2, 3))
        assert {i.n for i in instances} == {10, 15}


class TestExperimentDefinitions:
    def test_e1_rows_and_within_one(self):
        report = experiment_e1_degree_quality(TINY, use_protocol=False)
        assert isinstance(report, ExperimentReport)
        assert report.rows
        flags = [r["within_one"] for r in report.rows if "within_one" in r]
        assert flags and all(flags)

    def test_e3_memory_within_bound(self):
        report = experiment_e3_memory(TINY)
        assert report.rows
        assert all(r["state_within_bound"] for r in report.rows)

    def test_e6_mdst_beats_or_matches_bfs(self):
        report = experiment_e6_baselines(TINY)
        assert report.rows
        assert all(r["mdst_degree"] <= r["bfs_degree"] for r in report.rows)

    def test_e7_speedup_at_least_one(self):
        report = experiment_e7_simultaneous_reduction(TINY, hub_counts=(2,))
        assert report.rows
        assert all(r["speedup"] >= 1.0 for r in report.rows)

    def test_e8_rows_have_message_counts(self):
        report = experiment_e8_improvement_cost(TINY, cycle_lengths=(5,))
        assert report.rows
        row = report.rows[0]
        assert row["final_degree"] <= row["initial_degree"]
        assert row["search_messages"] >= 0
