"""Tests for the parallel sweep engine (specs, tasks, cache, execution).

The determinism tests are the load-bearing ones: the engine's contract is
that the worker count never changes results, and that a cached re-run is a
pure lookup.  They run on deliberately tiny graphs so the whole module
stays fast.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.workloads import WorkloadInstance
from repro.runtime import (
    ResultCache,
    RunOutcome,
    RunSpec,
    SweepEngine,
    SweepSpec,
    execute_spec,
    run_sweep,
    spec_key,
    task_names,
)
from repro.runtime.tasks import SCENARIO_TASKS, check_task_settings

FAST = dict(max_rounds=2000)


def tiny_sweep(base: RunSpec = RunSpec(**FAST), **axes) -> SweepSpec:
    matrix = dict(families=("wheel", "erdos_renyi_sparse"), sizes=(8,),
                  repetitions=2, master_seed=7)
    matrix.update(axes)
    return SweepSpec(base=base, **matrix)


class TestRunSpec:
    def test_round_trip(self):
        spec = RunSpec(task="protocol", family="wheel", n=8, seed=3,
                       fault_round=10, params=(("k", 2),))
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError):
            RunSpec.from_dict({"family": "wheel", "bogus": 1})

    def test_with_params_merges_sorted(self):
        spec = RunSpec(params=(("b", 2),)).with_params(a=1)
        assert spec.params == (("a", 1), ("b", 2))
        assert spec.param("a") == 1
        assert spec.param("missing", "dflt") == "dflt"

    def test_spec_key_stable_and_sensitive(self):
        spec = RunSpec(family="wheel", n=8, seed=3)
        assert spec_key(spec) == spec_key(RunSpec(family="wheel", n=8, seed=3))
        for changed in (dataclasses.replace(spec, seed=4),
                        dataclasses.replace(spec, max_rounds=999),
                        dataclasses.replace(spec, scheduler="random"),
                        spec.with_params(x=1)):
            assert spec_key(changed) != spec_key(spec)

    def test_protocol_run_config_mirrors_spec(self):
        cfg = RunSpec(seed=5, scheduler="random", initial="corrupted",
                      max_rounds=123).protocol_run_config()
        assert (cfg.seed, cfg.scheduler, cfg.initial, cfg.max_rounds) == \
            (5, "random", "corrupted", 123)
        assert cfg.options == {"enable_reduction": True}

    def test_spec_keys_are_pinned(self):
        # Cached outcomes on disk are found by these digests: a change
        # here needs a CACHE_SCHEMA_VERSION bump, never a silent drift.
        pinned = {
            RunSpec(): "066bd3f85b7978be0f97a8036717092797734c66"
                       "1150b458c53143956181cfed",
            RunSpec(task="churn", churn_rate=0.1, churn_events=3,
                    graph_params=(("p", 0.1),),
                    params=(("node_weights", ((1, 2),)),)):
                "89197eec0241a5c2dc34287222e59ec3c34278fb"
                "ef3d59746f88905257d88775",
            RunSpec(backend="array", loss_rate=0.1, crash_recover=5,
                    graph_file="x.txt"):
                "812a35801a18d75a99630e686bcd4abce8d2d5c9"
                "54ba4aaa3a9e714a4a8ac82c",
        }
        for spec, digest in pinned.items():
            assert spec_key(spec) == digest

    def test_build_graph_matches_workload_instance(self):
        spec = RunSpec(family="erdos_renyi_sparse", n=12, seed=9)
        a, b = spec.build_graph(), WorkloadInstance("erdos_renyi_sparse", 12, 9).build()
        assert sorted(a.edges) == sorted(b.edges)


class TestSweepSpec:
    def test_expand_order_and_size(self):
        sweep = tiny_sweep(schedulers=("synchronous", "random"))
        specs = sweep.expand()
        assert len(specs) == 2 * 2 * 1 * 2
        # repetition-major, then family, then scheduler
        assert specs[0].family == "wheel" and specs[0].scheduler == "synchronous"
        assert specs[1].scheduler == "random"
        assert specs[2].family == "erdos_renyi_sparse"

    def test_seed_derivation_is_deterministic_and_stable(self):
        sweep = tiny_sweep()
        assert sweep.seed_for(0) == tiny_sweep().seed_for(0)
        assert sweep.seed_for(0) != sweep.seed_for(1)
        # adding repetitions never changes earlier seeds
        more = tiny_sweep(repetitions=5)
        assert [more.seed_for(r) for r in range(2)] == \
            [sweep.seed_for(r) for r in range(2)]

    def test_explicit_seeds_override_derivation(self):
        sweep = tiny_sweep(seeds=(11, 23))
        assert sweep.seed_for(0) == 11 and sweep.seed_for(2) == 11

    def test_expand_validates(self):
        with pytest.raises(ConfigurationError):
            tiny_sweep(repetitions=0).expand()
        with pytest.raises(ConfigurationError):
            tiny_sweep(families=()).expand()


class TestTasks:
    def test_unknown_task_rejected(self):
        with pytest.raises(ConfigurationError):
            execute_spec(RunSpec(task="nope"))

    def test_task_registry_covers_experiments(self):
        assert {"protocol", "reference", "memory", "quality", "baselines",
                "hub", "improvement"} <= set(task_names())

    def test_protocol_task_row_and_record(self):
        outcome = execute_spec(RunSpec(family="wheel", n=8, seed=3, **FAST))
        assert outcome.row["converged"] is True
        assert outcome.row["tree_degree"] <= 3
        assert outcome.record is not None
        assert outcome.record.nodes == 8
        assert not outcome.from_cache

    def test_outcome_json_round_trip(self):
        outcome = execute_spec(RunSpec(family="wheel", n=8, seed=3, **FAST))
        data = json.loads(json.dumps(outcome.to_dict()))
        clone = RunOutcome.from_dict(data)
        assert clone.spec == outcome.spec
        assert clone.record == outcome.record
        # JSON round-trip stringifies nothing in a protocol row
        assert clone.row == json.loads(json.dumps(outcome.row))

    def test_fault_round_perturbs_the_run_but_still_converges(self):
        base = RunSpec(family="wheel", n=8, seed=3, initial="bfs_tree", **FAST)
        faulty = dataclasses.replace(base, fault_round=5, fault_fraction=0.5)
        faulty_row = execute_spec(faulty).row
        assert faulty_row != execute_spec(base).row
        assert faulty_row["converged"] is True



class TestTaskSettings:
    """Scenario settings a task would ignore are refused at the spec level,
    not only by the CLI: a row computed without them would masquerade as a
    churn, fault-recovery or adversary measurement."""

    def test_churn_settings_on_the_protocol_task_are_refused(self):
        spec = RunSpec(task="protocol", n=12, seed=3, churn_rate=0.1,
                       churn_start=20, churn_events=3, max_rounds=2000)
        with pytest.raises(ConfigurationError, match="--task churn"):
            execute_spec(spec)

    @pytest.mark.parametrize("task", ["quality", "reference", "memory"])
    def test_fault_round_on_a_fault_free_task_is_refused(self, task):
        with pytest.raises(ConfigurationError, match="--fault-round"):
            execute_spec(RunSpec(task=task, family="wheel", n=8,
                                 fault_round=5))

    @pytest.mark.parametrize("knob", [dict(loss_rate=0.1), dict(crash_count=1),
                                      dict(byzantine_count=1)])
    def test_adversary_settings_on_a_static_task_are_refused(self, knob):
        with pytest.raises(ConfigurationError, match="--task"):
            execute_spec(RunSpec(task="baselines", family="wheel", n=8,
                                 **knob))

    def test_adversary_task_without_a_knob_is_refused(self):
        with pytest.raises(ConfigurationError,
                           match="at least one adversary knob"):
            execute_spec(RunSpec(task="adversary", family="wheel", n=8))

    def test_sweep_refuses_before_any_run(self):
        sweep = tiny_sweep(RunSpec(task="memory", loss_rate=0.1, **FAST))
        with pytest.raises(ConfigurationError, match="--task"):
            run_sweep(sweep)

    def test_a_cached_row_does_not_bypass_the_check(self, tmp_path):
        spec = RunSpec(task="quality", family="wheel", n=8, fault_round=5)
        cache = ResultCache(str(tmp_path / "cache"))
        cache.put(RunOutcome(spec=spec, row={"n": 8}))
        with pytest.raises(ConfigurationError, match="--fault-round"):
            SweepEngine(workers=1, cache=cache).execute([spec])

    def test_settings_the_task_reads_are_accepted(self):
        check_task_settings(RunSpec(task="churn", churn_rate=0.1,
                                    churn_events=2, fault_round=5,
                                    loss_rate=0.1))
        for task in SCENARIO_TASKS:
            check_task_settings(RunSpec(task=task, fault_round=5,
                                        crash_count=1))

class TestProtocolSpecs:
    """The protocol axis of the registry refactor (PR 5)."""

    def test_protocol_field_round_trips(self):
        spec = RunSpec(task="protocol", protocol="spanning_tree",
                       family="wheel", n=8, seed=3)
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_legacy_spec_dicts_default_to_mdst(self):
        """Pre-registry spec dicts (no 'protocol' key) still load."""
        legacy = RunSpec(family="wheel", n=8, seed=3).to_dict()
        del legacy["protocol"]
        assert RunSpec.from_dict(legacy).protocol == "mdst"

    def test_protocol_changes_the_cache_key(self):
        base = RunSpec(family="wheel", n=8, seed=3)
        other = dataclasses.replace(base, protocol="spanning_tree")
        assert spec_key(base) != spec_key(other)

    def test_label_tags_non_default_protocols_only(self):
        assert "spanning_tree" in RunSpec(protocol="spanning_tree").label
        assert "mdst" not in RunSpec().label

    @pytest.mark.parametrize("protocol", ["spanning_tree", "pif_max_degree"])
    def test_protocol_task_dispatches_on_registry(self, protocol):
        outcome = execute_spec(RunSpec(protocol=protocol, family="wheel",
                                       n=8, seed=3, **FAST))
        assert outcome.row["protocol"] == protocol
        assert outcome.row["converged"] is True
        assert outcome.record is not None

    def test_default_mdst_rows_keep_their_historical_shape(self):
        """Byte-identity contract: no 'protocol' column on default rows."""
        outcome = execute_spec(RunSpec(family="wheel", n=8, seed=3, **FAST))
        assert "protocol" not in outcome.row

    def test_throughput_task_dispatches_on_registry(self):
        outcome = execute_spec(RunSpec(task="throughput",
                                       protocol="spanning_tree",
                                       family="wheel", n=8, seed=3, **FAST))
        assert outcome.row["protocol"] == "spanning_tree"
        assert outcome.row["rounds_per_sec"] > 0

    @pytest.mark.parametrize("task", ["quality", "hub", "improvement",
                                      "memory", "reference", "baselines"])
    def test_mdst_only_tasks_reject_other_protocols(self, task):
        spec = RunSpec(task=task, protocol="spanning_tree", family="wheel",
                       n=8, seed=3)
        with pytest.raises(ConfigurationError, match="MDST-specific"):
            execute_spec(spec)

    def test_memory_task_rejects_array_backend(self):
        spec = RunSpec(task="memory", family="wheel", n=8, seed=3,
                       backend="array")
        with pytest.raises(ConfigurationError, match="object network"):
            execute_spec(spec)

    @pytest.mark.parametrize("task", ["reference", "baselines"])
    def test_simulation_free_tasks_reject_array_backend(self, task):
        spec = RunSpec(task=task, family="wheel", n=8, seed=3,
                       backend="array")
        with pytest.raises(ConfigurationError, match="runs no simulation"):
            execute_spec(spec)

    def test_churn_task_rejects_non_churn_protocol(self):
        spec = RunSpec(task="churn", protocol="pif_max_degree",
                       family="wheel", n=8, seed=3,
                       churn_rate=0.1, churn_events=2)
        with pytest.raises(ConfigurationError, match="churn"):
            execute_spec(spec)

    def test_churn_task_runs_spanning_tree(self):
        spec = RunSpec(task="churn", protocol="spanning_tree",
                       family="erdos_renyi_sparse", n=12, seed=5,
                       churn_rate=0.1, churn_start=20, churn_events=3,
                       max_rounds=2000)
        row = execute_spec(spec).row
        assert row["protocol"] == "spanning_tree"
        assert row["converged"] is True
        assert row["churn_applied"] + row["churn_skipped"] == 3

    def test_sweep_expands_the_protocol_axis(self):
        sweep = tiny_sweep(protocols=("mdst", "spanning_tree"))
        specs = sweep.expand()
        assert len(specs) == 2 * 2 * 2
        assert [s.protocol for s in specs[:2]] == ["mdst", "spanning_tree"]
        # single-protocol default expands exactly as before
        assert all(s.protocol == "mdst" for s in tiny_sweep().expand())

    def test_sweep_forwards_fault_and_churn_knobs(self):
        base = RunSpec(task="churn", fault_round=15, churn_rate=0.1,
                       churn_events=2, **FAST)
        sweep = tiny_sweep(base, protocols=("spanning_tree",))
        spec = sweep.expand()[0]
        assert spec.fault_round == 15
        assert spec.churn_rate == 0.1 and spec.churn_events == 2

    def test_cross_protocol_sweep_executes_deterministically(self):
        sweep = tiny_sweep(families=("wheel",), repetitions=1,
                           protocols=("mdst", "spanning_tree",
                                      "pif_max_degree"))
        a = SweepEngine(workers=1).report(sweep.expand()).rows
        b = SweepEngine(workers=1).report(sweep.expand()).rows
        assert a == b
        assert [row.get("protocol", "mdst") for row in a] == \
            ["mdst", "spanning_tree", "pif_max_degree"]


class TestChurnSpecs:
    def test_churn_fields_round_trip(self):
        spec = RunSpec(task="churn", family="erdos_renyi_sparse", n=12,
                       seed=5, churn_rate=0.05, churn_start=60,
                       churn_events=4)
        assert RunSpec.from_dict(spec.to_dict()) == spec
        assert spec.churn_enabled
        assert spec.churn_period == 20

    def test_churn_params_change_the_cache_key(self):
        base = RunSpec(task="churn", churn_rate=0.05, churn_events=4)
        assert spec_key(base) != spec_key(dataclasses.replace(base, churn_rate=0.1))
        assert spec_key(base) != spec_key(dataclasses.replace(base, churn_events=5))
        assert spec_key(base) != spec_key(dataclasses.replace(base, churn_start=99))

    def test_build_churn_plan_deterministic_and_disabled_by_default(self):
        spec = RunSpec(task="churn", family="erdos_renyi_sparse", n=12,
                       seed=5, churn_rate=0.05, churn_start=60,
                       churn_events=4)
        graph = spec.build_graph()
        p1, p2 = spec.build_churn_plan(graph), spec.build_churn_plan(graph)
        assert p1.events == p2.events and len(p1.events) == 4
        assert [e.round_index for e in p1.events] == [60, 80, 100, 120]
        assert RunSpec().build_churn_plan(graph) is None

    def test_churn_task_executes_and_reports_recovery(self):
        spec = RunSpec(task="churn", family="erdos_renyi_sparse", n=12,
                       seed=5, max_rounds=4000, churn_rate=0.05,
                       churn_start=60, churn_events=3)
        outcome = execute_spec(spec)
        row = outcome.row
        assert row["churn_applied"] + row["churn_skipped"] == 3
        assert row["converged"] is True
        assert row["recovery_rounds"] is None or row["recovery_rounds"] >= 0
        assert row["rounds_per_sec"] > 0
        assert outcome.record is not None

    def test_churn_task_is_never_cached(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        spec = RunSpec(task="churn", family="wheel", n=8, seed=3,
                       max_rounds=2000, churn_rate=0.1, churn_events=2)
        engine = SweepEngine(workers=1, cache=cache)
        engine.execute([spec])
        engine.execute([spec])
        assert engine.last_stats.cache_hits == 0


class TestEngineDeterminism:
    def test_same_seed_same_records_1_vs_n_workers(self):
        specs = tiny_sweep().expand()
        serial = SweepEngine(workers=1).execute(specs)
        parallel = SweepEngine(workers=4).execute(specs)
        assert [o.record for o in serial] == [o.record for o in parallel]
        assert [o.row for o in serial] == [o.row for o in parallel]

    def test_reports_byte_identical_across_worker_counts(self):
        specs = tiny_sweep().expand()
        json1 = SweepEngine(workers=1).report(specs).to_json()
        json4 = SweepEngine(workers=4).report(specs).to_json()
        assert json1.encode() == json4.encode()

    def test_stats_accounting(self):
        engine = SweepEngine(workers=1)
        engine.execute(tiny_sweep().expand())
        stats = engine.last_stats
        assert (stats.total, stats.executed, stats.cache_hits) == (4, 4, 0)

    def test_records_and_aggregate(self):
        engine = SweepEngine(workers=1)
        specs = tiny_sweep().expand()
        records = engine.records(specs)
        assert len(records) == len(specs)
        summary = engine.aggregate(specs)
        assert summary["runs"] == len(specs)
        assert summary["converged"] == len(specs)


class TestCache:
    def test_hit_after_put_and_incremental_rerun(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = tiny_sweep().expand()
        engine = SweepEngine(workers=1, cache=cache)
        first = engine.execute(specs)
        assert engine.last_stats.executed == len(specs)
        second = engine.execute(specs)
        assert engine.last_stats.executed == 0
        assert engine.last_stats.cache_hits == len(specs)
        assert all(o.from_cache for o in second)
        assert [o.record for o in first] == [o.record for o in second]

    def test_config_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec(family="wheel", n=8, seed=3, **FAST)
        SweepEngine(workers=1, cache=cache).execute([spec])
        changed = dataclasses.replace(spec, max_rounds=1999)
        assert spec in cache
        assert changed not in cache
        engine = SweepEngine(workers=1, cache=cache)
        engine.execute([changed])
        assert engine.last_stats.executed == 1

    def test_throughput_task_is_never_cached(self, tmp_path):
        """Timing rows must always be fresh: the engine bypasses the cache
        for throughput specs even when one is configured."""
        cache = ResultCache(tmp_path)
        spec = RunSpec(task="throughput", family="wheel", n=8, seed=3, **FAST)
        engine = SweepEngine(workers=1, cache=cache)
        engine.execute([spec])
        assert spec not in cache
        engine.execute([spec])
        assert engine.last_stats.cache_hits == 0
        assert engine.last_stats.executed == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec(family="wheel", n=8, seed=3, **FAST)
        path = cache.put(execute_spec(spec))
        path.write_text("{not json", encoding="utf-8")
        assert cache.get(spec) is None
        engine = SweepEngine(workers=1, cache=cache)
        engine.execute([spec])
        assert engine.last_stats.executed == 1
        # the fresh result was re-persisted over the corrupt entry
        assert cache.get(spec) is not None

    def test_len_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        SweepEngine(workers=1, cache=cache).execute(tiny_sweep().expand())
        assert len(cache) == 4
        assert cache.clear() == 4
        assert len(cache) == 0


class TestConvenienceAPIs:
    def test_run_sweep_report(self):
        report = run_sweep(tiny_sweep(families=("wheel",), repetitions=1))
        assert report.experiment == "sweep"
        assert len(report.rows) == 1
        assert report.rows[0]["converged"] is True
        assert report.metadata["sweep"]["families"] == ["wheel"]


class TestExperimentsThroughEngine:
    """E1-E8 accept workers/cache; parallel == serial on a tiny profile."""

    def test_e2_parallel_matches_serial_and_caches(self, tmp_path):
        from repro.experiments import experiment_e2_convergence
        from repro.experiments.config import ExperimentProfile
        tiny = ExperimentProfile(name="tiny", protocol_sizes=(8,),
                                 reference_sizes=(12,), exact_sizes=(6,),
                                 repetitions=1, max_rounds=1500, seeds=(5,),
                                 schedulers=("synchronous",))
        cache = ResultCache(tmp_path)
        serial = experiment_e2_convergence(tiny)
        parallel = experiment_e2_convergence(tiny, workers=4, cache=cache)
        assert serial.to_json() == parallel.to_json()
        # second run resolves entirely from cache and is still identical
        cached = experiment_e2_convergence(tiny, workers=1, cache=cache)
        assert cache.stats.hits >= len(serial.rows)
        assert cached.to_json() == serial.to_json()
