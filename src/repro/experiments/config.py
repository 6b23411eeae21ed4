"""Experiment configuration: sizes, repetitions, schedulers, quick mode.

Every experiment can run in two profiles:

* ``quick`` -- small networks, one repetition; used by the pytest benchmark
  suite so the whole harness regenerates every table in minutes on a laptop;
* ``full``  -- the sizes reported in docs/experiments.md.

The profiles differ only in scale, never in code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

__all__ = ["ExperimentProfile", "QUICK_PROFILE", "FULL_PROFILE", "get_profile"]


@dataclass(frozen=True)
class ExperimentProfile:
    """Scale parameters shared by the experiment definitions."""

    name: str
    #: node counts used by protocol-level (message-passing) sweeps
    protocol_sizes: Tuple[int, ...]
    #: node counts used by reference-engine (centralized) sweeps
    reference_sizes: Tuple[int, ...]
    #: node counts small enough for the exact Δ* solver
    exact_sizes: Tuple[int, ...]
    #: repetitions per configuration
    repetitions: int
    #: maximum simulated rounds per protocol run
    max_rounds: int
    #: seeds (one per repetition)
    seeds: Tuple[int, ...]
    #: schedulers exercised by the self-stabilization experiments
    schedulers: Tuple[str, ...] = ("synchronous", "random")

    def seed_for(self, repetition: int) -> int:
        return self.seeds[repetition % len(self.seeds)]


QUICK_PROFILE = ExperimentProfile(
    name="quick",
    protocol_sizes=(8, 12, 16),
    reference_sizes=(20, 40, 80),
    exact_sizes=(6, 8, 10),
    repetitions=2,
    max_rounds=4000,
    seeds=(11, 23),
)

FULL_PROFILE = ExperimentProfile(
    name="full",
    protocol_sizes=(10, 16, 24, 32),
    reference_sizes=(25, 50, 100, 200, 400),
    exact_sizes=(6, 8, 10, 12),
    repetitions=3,
    max_rounds=12000,
    seeds=(11, 23, 37),
)

_PROFILES: Dict[str, ExperimentProfile] = {
    "quick": QUICK_PROFILE,
    "full": FULL_PROFILE,
}


def get_profile(name: str = "quick") -> ExperimentProfile:
    """Look up a profile by name (``quick`` or ``full``)."""
    try:
        return _PROFILES[name]
    except KeyError as exc:
        raise KeyError(f"unknown profile {name!r}; known: {sorted(_PROFILES)}") from exc
