"""Shared configuration of the benchmark harness.

Each benchmark module regenerates one experiment (E1-E8, see
docs/experiments.md): it runs the corresponding experiment definition on the
``bench`` profile below, prints the resulting table (the "rows the paper
would report") and lets pytest-benchmark record the wall-clock cost of the
run.  Execute with::

    pytest benchmarks/ --benchmark-only

Use ``-s`` to see the printed tables, or read docs/experiments.md for a recorded
copy.  The ``full`` profile of :mod:`repro.experiments.config` extends the
sweeps; it is not run here to keep the harness laptop-friendly.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentProfile

#: Scale used by the benchmark harness: large enough for the qualitative
#: shape of every claim, small enough that the whole suite runs in minutes.
BENCH_PROFILE = ExperimentProfile(
    name="bench",
    protocol_sizes=(8, 12),
    reference_sizes=(16, 32, 64),
    exact_sizes=(6, 8),
    repetitions=1,
    max_rounds=3000,
    seeds=(11,),
    schedulers=("synchronous", "random"),
)


@pytest.fixture(scope="session")
def bench_profile() -> ExperimentProfile:
    return BENCH_PROFILE


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
