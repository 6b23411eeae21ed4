"""Workload definitions: which graphs each experiment runs on.

A workload is a list of :class:`WorkloadInstance` (family, size, seed).  The
selections mirror the paper's motivation: ad-hoc/sensor-style geometric
graphs, peer-to-peer-style random graphs, plus structured and adversarial
families whose optimal degree is known or cheaply boundable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import networkx as nx

from ..graphs.generators import make_graph
from .config import ExperimentProfile

__all__ = ["WorkloadInstance", "quality_workload",
           "scaling_workload", "stabilization_workload", "hub_workload",
           "baseline_workload"]


@dataclass(frozen=True)
class WorkloadInstance:
    """One graph instance to run an experiment on."""

    family: str
    n: int
    seed: int

    def build(self) -> nx.Graph:
        return make_graph(self.family, self.n, seed=self.seed)

    @property
    def label(self) -> str:
        return f"{self.family}-n{self.n}-s{self.seed}"


def quality_workload(profile: ExperimentProfile) -> List[WorkloadInstance]:
    """E1: families with computable / known Δ*, small enough for exact solving
    plus larger instances with certificates (Hamiltonian, two-hub)."""
    families_exact = ["complete", "wheel", "erdos_renyi_dense", "two_hub",
                      "lollipop", "hard_hub", "ring_with_chords"]
    families_large = ["dense_hamiltonian", "two_hub", "star_of_cliques",
                      "random_geometric", "erdos_renyi_sparse"]
    instances: List[WorkloadInstance] = []
    for rep in range(profile.repetitions):
        seed = profile.seed_for(rep)
        for family in families_exact:
            for n in profile.exact_sizes:
                instances.append(WorkloadInstance(family, n, seed))
        for family in families_large:
            for n in profile.protocol_sizes:
                instances.append(WorkloadInstance(family, n, seed))
    return instances


def scaling_workload(profile: ExperimentProfile, reference: bool = False
                     ) -> List[WorkloadInstance]:
    """E2/E3/E4: size sweeps on sparse and dense random families."""
    families = ["erdos_renyi_sparse", "random_geometric", "ring_with_chords",
                "erdos_renyi_dense"]
    sizes = profile.reference_sizes if reference else profile.protocol_sizes
    instances: List[WorkloadInstance] = []
    for rep in range(profile.repetitions):
        seed = profile.seed_for(rep)
        for family in families:
            for n in sizes:
                instances.append(WorkloadInstance(family, n, seed))
    return instances


def stabilization_workload(profile: ExperimentProfile) -> List[WorkloadInstance]:
    """E5: moderate instances used for corruption / recovery experiments."""
    families = ["erdos_renyi_sparse", "random_geometric", "grid", "wheel"]
    instances: List[WorkloadInstance] = []
    for rep in range(profile.repetitions):
        seed = profile.seed_for(rep)
        for family in families:
            n = profile.protocol_sizes[min(1, len(profile.protocol_sizes) - 1)]
            instances.append(WorkloadInstance(family, n, seed))
    return instances


def hub_workload(profile: ExperimentProfile, hub_counts: Sequence[int] = (2, 3, 4)
                 ) -> List[WorkloadInstance]:
    """E7: star-of-cliques instances with a growing number of hubs."""
    instances: List[WorkloadInstance] = []
    for rep in range(profile.repetitions):
        seed = profile.seed_for(rep)
        for hubs in hub_counts:
            # star_of_cliques ignores the seed; n maps to hub count via n // 5
            instances.append(WorkloadInstance("star_of_cliques", hubs * 5, seed))
    return instances


def baseline_workload(profile: ExperimentProfile) -> List[WorkloadInstance]:
    """E6: families where naive trees are clearly sub-optimal."""
    families = ["complete", "erdos_renyi_dense", "barabasi_albert", "wheel",
                "random_geometric", "dense_hamiltonian"]
    instances: List[WorkloadInstance] = []
    for rep in range(profile.repetitions):
        seed = profile.seed_for(rep)
        for family in families:
            for n in profile.protocol_sizes[-2:]:
                instances.append(WorkloadInstance(family, n, seed))
    return instances
