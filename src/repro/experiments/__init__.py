"""Experiment harness: profiles, workloads, E1-E8 definitions."""

from .config import FULL_PROFILE, QUICK_PROFILE, ExperimentProfile, get_profile
from .experiments import (
    EXPERIMENTS,
    experiment_e1_degree_quality,
    experiment_e2_convergence,
    experiment_e3_memory,
    experiment_e4_message_length,
    experiment_e5_self_stabilization,
    experiment_e6_baselines,
    experiment_e7_simultaneous_reduction,
    experiment_e8_improvement_cost,
    run_all_experiments,
)
from .workloads import (
    WorkloadInstance,
    baseline_workload,
    hub_workload,
    quality_workload,
    scaling_workload,
    stabilization_workload,
)

__all__ = [name for name in dir() if not name.startswith("_")]
