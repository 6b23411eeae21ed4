"""The parallel sweep engine.

:class:`SweepEngine` takes an ordered list of :class:`~repro.runtime.spec.RunSpec`
and produces the matching ordered list of
:class:`~repro.runtime.tasks.RunOutcome`:

1. **cache lookup** -- specs with an entry in the (optional)
   :class:`~repro.runtime.cache.ResultCache` are resolved immediately;
2. **execution** -- the remaining specs run through
   :func:`~repro.runtime.tasks.execute_spec`, either in-process
   (``workers <= 1``, the exact serial code path the experiments always
   had) or fanned across a :class:`concurrent.futures.ProcessPoolExecutor`;
3. **merge** -- results are slotted back into input order, so the output is
   *independent of the worker count*: every run is fully determined by its
   spec (graph generation, scheduling and fault injection are all seeded),
   and ordering is restored after the fan-out.  ``--workers 4`` therefore
   yields byte-identical reports to ``--workers 1``.

The engine is deliberately ignorant of what a task *does* -- experiments,
benchmarks and the CLI all describe work as specs and share this one
execution path.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..analysis.convergence import ConvergenceRecord, aggregate_records
from ..analysis.reporting import ExperimentReport
from .cache import ResultCache
from .spec import RunSpec, SweepSpec
from .tasks import UNCACHEABLE_TASKS, RunOutcome, execute_spec

__all__ = ["SweepEngine", "EngineStats", "default_workers", "run_sweep",
           "sweep_report"]


def default_workers() -> int:
    """A sensible default worker count: the CPU count, capped at 8."""
    return max(1, min(os.cpu_count() or 1, 8))


@dataclass
class EngineStats:
    """Accounting for one :meth:`SweepEngine.execute` call."""

    total: int = 0
    cache_hits: int = 0
    executed: int = 0
    workers: int = 1
    elapsed_s: float = 0.0

    def as_dict(self) -> dict:
        return {
            "total": self.total,
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "workers": self.workers,
            "elapsed_s": round(self.elapsed_s, 3),
        }


@dataclass
class SweepEngine:
    """Execute run specs across worker processes with incremental caching.

    Parameters
    ----------
    workers:
        Process count.  ``1`` (the default) executes serially in-process --
        the fallback path with zero multiprocessing machinery involved.
    cache:
        Optional on-disk result cache; hits skip execution entirely.
    chunksize:
        Specs per worker dispatch for the process pool (larger values
        amortize IPC for many tiny runs).
    """

    workers: int = 1
    cache: Optional[ResultCache] = None
    chunksize: int = 1
    last_stats: EngineStats = field(default_factory=EngineStats, repr=False)

    # -- core ------------------------------------------------------------------

    def execute(self, specs: Sequence[RunSpec]) -> List[RunOutcome]:
        """Run every spec and return outcomes in input order."""
        specs = list(specs)
        started = time.perf_counter()
        outcomes: List[Optional[RunOutcome]] = [None] * len(specs)
        pending: List[int] = []
        hits = 0
        for i, spec in enumerate(specs):
            # Timing tasks are never cached: a stored wall-clock measurement
            # would masquerade as a fresh one.
            cacheable = self.cache is not None and spec.task not in UNCACHEABLE_TASKS
            cached = self.cache.get(spec) if cacheable else None
            if cached is not None:
                outcomes[i] = cached
                hits += 1
            else:
                pending.append(i)
        fresh = self._run_pending([specs[i] for i in pending])
        for i, outcome in zip(pending, fresh):
            outcomes[i] = outcome
            if self.cache is not None and outcome.spec.task not in UNCACHEABLE_TASKS:
                self.cache.put(outcome)
        self.last_stats = EngineStats(
            total=len(specs),
            cache_hits=hits,
            executed=len(pending),
            workers=self.workers,
            elapsed_s=time.perf_counter() - started,
        )
        return outcomes  # type: ignore[return-value]

    def _run_pending(self, specs: List[RunSpec]) -> List[RunOutcome]:
        if not specs:
            return []
        if self.workers <= 1:
            return [execute_spec(spec) for spec in specs]
        max_workers = min(self.workers, len(specs))
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            return list(pool.map(execute_spec, specs,
                                 chunksize=max(1, self.chunksize)))

    # -- convenience views -----------------------------------------------------

    def records(self, specs: Sequence[RunSpec]) -> List[ConvergenceRecord]:
        """Execute and keep only the convergence records (protocol tasks)."""
        return [o.record for o in self.execute(specs) if o.record is not None]

    def report(self, specs: Sequence[RunSpec], experiment: str = "sweep",
               description: str = "") -> ExperimentReport:
        """Execute and collect rows into an :class:`ExperimentReport`."""
        outcomes = self.execute(specs)
        report = ExperimentReport(experiment=experiment, description=description)
        for outcome in outcomes:
            report.add_row(**outcome.row)
        # volatile execution stats (elapsed time, worker count, hit counts)
        # stay on last_stats and out of the report, so saved reports are
        # byte-identical across worker counts and cache states
        return report

    def aggregate(self, specs: Sequence[RunSpec]) -> dict:
        """Execute and reduce the records via
        :func:`~repro.analysis.convergence.aggregate_records`."""
        return aggregate_records(self.records(specs))


def sweep_report(sweep: SweepSpec,
                 outcomes: Sequence[RunOutcome]) -> ExperimentReport:
    """The report of an executed sweep: one row per outcome, in order.

    A cross-protocol report must keep every row attributable: the task
    layer omits the ``protocol`` key for the default protocol (that shape
    is part of the byte-identity contract of the reproduction tables, and
    what the per-spec cache stores), so the *report* backfills it.  Default
    single-protocol MDST sweeps keep their historical rows untouched.
    """
    report = ExperimentReport(
        experiment="sweep",
        description=f"{sweep.base.task} sweep over {'/'.join(sweep.families)}",
    )
    cross_protocol = sweep.protocols != ("mdst",)
    for outcome in outcomes:
        row = outcome.row
        if cross_protocol:
            row = {**row, "protocol": row.get("protocol", "mdst")}
        report.add_row(**row)
    return report


def run_sweep(sweep: SweepSpec, workers: int = 1,
              cache: Optional[ResultCache] = None) -> ExperimentReport:
    """Expand a sweep matrix and execute it; the one-call convenience API.

    >>> report = run_sweep(SweepSpec(families=("wheel",), sizes=(8,)),
    ...                    workers=1)
    >>> report.rows[0]["converged"]
    True
    """
    engine = SweepEngine(workers=workers, cache=cache)
    report = sweep_report(sweep, engine.execute(sweep.expand()))
    report.metadata["sweep"] = {
        "families": list(sweep.families),
        "sizes": list(sweep.sizes),
        "repetitions": sweep.repetitions,
        "schedulers": list(sweep.schedulers),
        "initials": list(sweep.initials),
        "master_seed": sweep.master_seed,
        "seeds": list(sweep.seeds) if sweep.seeds else None,
        "max_rounds": sweep.base.max_rounds,
        "task": sweep.base.task,
    }
    return report
