"""The simulation engine: drives a network under a scheduler until convergence.

The :class:`Simulator` ties together the pieces defined in this subpackage:

* a :class:`~repro.sim.network.Network` (processes + FIFO channels),
* a :class:`~repro.sim.scheduler.Scheduler` (asynchrony model),
* a legitimacy predicate evaluated through a
  :class:`~repro.sim.monitors.ConvergenceMonitor`,
* optional :class:`~repro.sim.monitors.InvariantMonitor` safety checks,
* an optional :class:`~repro.sim.faults.FaultPlan` for mid-run transient
  faults,
* an optional :class:`~repro.sim.faults.ChurnPlan` for live topology
  changes (node/edge churn), composable with the fault plan,
* an optional :class:`~repro.sim.adversary.Adversary` bundling a channel
  delivery model (loss/duplication/reordering), crash/recover node faults
  and Byzantine gossip,
* an optional :class:`~repro.sim.trace.TraceRecorder`, the opt-in event
  log (every count of a run is on its :class:`SimulationReport`).

``Simulator.run`` executes rounds until the convergence monitor fires (plus,
optionally, a number of extra rounds to witness closure) or the round budget
is exhausted, and returns a :class:`SimulationReport`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from ..exceptions import ConfigurationError, ConvergenceError
from .adversary import Adversary
from .faults import ChurnPlan, FaultPlan
from .monitors import ClosureMonitor, ConvergenceMonitor, InvariantMonitor, PredicateCache
from .network import Network
from .scheduler import RoundStats, Scheduler, SynchronousScheduler
from .trace import TraceRecorder

__all__ = ["Simulator", "SimulationReport"]

Predicate = Callable[[Network], bool]


@dataclass
class SimulationReport:
    """Outcome of a :meth:`Simulator.run` call.

    ``quiescent`` is set when the run stopped early because the kernel had
    no enabled event left (no enabled node and no deliverable message): no
    future round could have changed the configuration.
    """

    converged: bool
    rounds: int
    convergence_round: Optional[int]
    steps: int
    deliveries: int
    messages_sent: int
    max_message_bits: int
    max_state_bits: int
    closure_violations: List[int] = field(default_factory=list)
    fault_rounds: List[int] = field(default_factory=list)
    round_stats: List[RoundStats] = field(default_factory=list)
    quiescent: bool = False
    predicate_evaluations: int = 0
    predicate_cache_hits: int = 0
    churn_rounds: List[int] = field(default_factory=list)
    churn_applied: int = 0
    churn_skipped: int = 0
    dropped_messages: int = 0
    #: Rounds after which a *scheduled* adversary event fired (crash,
    #: recovery, Byzantine corruption); continuous channel noise is not a
    #: scheduled event and shows up only in the delivery counters below.
    adversary_rounds: List[int] = field(default_factory=list)
    adversary_events: int = 0
    adversary_dropped: int = 0
    adversary_duplicated: int = 0
    adversary_reordered: int = 0
    node_crashes: int = 0
    node_recoveries: int = 0
    byzantine_corruptions: int = 0

    def as_dict(self) -> dict:
        """Plain-dict view for tabular reporting."""
        return {
            "converged": self.converged,
            "rounds": self.rounds,
            "convergence_round": self.convergence_round,
            "steps": self.steps,
            "deliveries": self.deliveries,
            "messages_sent": self.messages_sent,
            "max_message_bits": self.max_message_bits,
            "max_state_bits": self.max_state_bits,
            "closure_violations": len(self.closure_violations),
        }

    def deliveries_by_type(self) -> Dict[str, int]:
        """Delivered message counts over the run, keyed by message type
        name in sorted order."""
        total: Counter = Counter()
        for stats in self.round_stats:
            total.update(stats.by_type)
        return dict(sorted(total.items()))


class Simulator:
    """Round-driven simulation of a distributed protocol.

    Parameters
    ----------
    network:
        The network to simulate.
    scheduler:
        Asynchrony model; defaults to the deterministic synchronous scheduler.
    legitimacy:
        Predicate on the network defining the legitimate configurations.
        When omitted the simulator runs for exactly ``max_rounds`` rounds.
    stability_window:
        Number of consecutive legitimate rounds required before convergence
        is declared (legitimate configurations must also be *stable* because
        in-flight messages may still destroy them).
    invariants:
        Optional ``(name, check)`` pairs verified after every round.
    fault_plan:
        Optional schedule of mid-run transient faults.
    churn_plan:
        Optional schedule of live topology changes (node/edge churn),
        applied through the network's mutation APIs after the round they
        are due.  Composable with ``fault_plan``: when both have events due
        after the same round, churn fires first, then the fault corrupts
        (a fraction of) the *mutated* node set.
    adversary:
        Optional :class:`~repro.sim.adversary.Adversary`.  Its channel
        model is installed network-wide before the first round; its
        scheduled events (crashes, recoveries, Byzantine corruptions) fire
        between churn and the fault plan and reset the stability streak
        exactly like churn does.
    trace:
        Optional :class:`~repro.sim.trace.TraceRecorder`: the event log of
        every delivery and timeout.  The report carries every count
        without one.
    rng:
        Generator used by the fault plan.
    cache_predicate:
        When ``True`` (default), wrap the legitimacy predicate in a shared
        :class:`~repro.sim.monitors.PredicateCache` so the convergence and
        closure monitors skip re-evaluation while the observable
        configuration is unchanged.  Disable for predicates that are not
        pure functions of the per-node snapshots (e.g. ones inspecting
        channel contents or external state).
    """

    def __init__(self,
                 network: Network,
                 scheduler: Optional[Scheduler] = None,
                 legitimacy: Optional[Predicate] = None,
                 stability_window: int = 3,
                 invariants: Optional[List[tuple[str, Callable[[Network], bool | str]]]] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 churn_plan: Optional[ChurnPlan] = None,
                 adversary: Optional[Adversary] = None,
                 trace: Optional[TraceRecorder] = None,
                 rng: Optional[np.random.Generator] = None,
                 cache_predicate: bool = True):
        self.network = network
        self.scheduler = scheduler or SynchronousScheduler()
        self.legitimacy = legitimacy
        self.predicate_cache: Optional[PredicateCache] = None
        monitored: Optional[Predicate] = legitimacy
        if legitimacy is not None and cache_predicate:
            self.predicate_cache = PredicateCache(legitimacy)
            monitored = self.predicate_cache
        self.monitor = (ConvergenceMonitor(monitored, stability_window)
                        if monitored is not None else None)
        self.closure = ClosureMonitor(monitored) if monitored is not None else None
        self.invariant_monitor = (InvariantMonitor(invariants)
                                  if invariants else None)
        self.fault_plan = fault_plan
        self.churn_plan = churn_plan
        self._churn_rounds: List[int] = []
        # Outcome lists accumulate on the plan object; baseline lengths let
        # the report count only this run's events when a plan is reused.
        self._churn_baseline = ((len(churn_plan.applied), len(churn_plan.skipped))
                                if churn_plan is not None else (0, 0))
        self.adversary = adversary
        self._adversary_rounds: List[int] = []
        # Adversary counters accumulate on the model objects; snapshotting
        # them here lets the report count only this run's events when the
        # same adversary instance drives several runs.
        self._adversary_baseline = (dict(adversary.counters())
                                    if adversary is not None else {})
        if adversary is not None:
            adversary.install(network)
        self.trace = trace
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.rounds_executed = 0
        self._started = False

    # -- lifecycle -------------------------------------------------------------

    def _start_processes(self) -> None:
        if self._started:
            return
        for v in self.network.node_ids:
            self.network.processes[v].on_start()
            self.network.flush_outbox(v)
        self.network.note_state_write()
        self._started = True

    def step_round(self) -> RoundStats:
        """Execute exactly one round and run the monitors."""
        self._start_processes()
        if self.trace is not None:
            self.trace.start_round(self.rounds_executed)
        stats = self.scheduler.run_round(self.network, self.trace)
        self.rounds_executed += 1
        round_index = self.rounds_executed
        if self.churn_plan is not None:
            # Churn before faults: a fault due the same round corrupts the
            # already-mutated node set.
            if self.churn_plan.apply_due(self.network, round_index):
                self._churn_rounds.append(round_index)
                if self.monitor is not None:
                    # A topology event may leave legitimacy intact (removing
                    # a non-tree edge, say); reset the stability streak
                    # anyway so the reported convergence round can never
                    # predate the last applied event.
                    self.monitor.reset_stability()
        if self.adversary is not None:
            # After churn (a crash/corruption targets the surviving node
            # set), before the fault plan (a fault due the same round hits
            # the post-adversary configuration).
            if self.adversary.apply_due(self.network, round_index):
                self._adversary_rounds.append(round_index)
                if self.monitor is not None:
                    self.monitor.reset_stability()
        if self.fault_plan is not None:
            self.fault_plan.apply_due(self.network, self.rng, round_index)
        if self.invariant_monitor is not None:
            self.invariant_monitor.observe(self.network, round_index)
        if self.monitor is not None:
            was_converged = self.monitor.converged
            self.monitor.observe(self.network, round_index)
            if self.monitor.converged and not was_converged and self.closure is not None:
                self.closure.arm()
            if self.closure is not None:
                self.closure.observe(self.network, round_index)
        return stats

    def run(self, max_rounds: int = 10_000, extra_rounds_after_convergence: int = 0,
            raise_on_budget: bool = False) -> SimulationReport:
        """Run rounds until convergence (plus optional closure rounds) or budget.

        Parameters
        ----------
        max_rounds:
            Hard budget on the number of rounds.
        extra_rounds_after_convergence:
            Keep simulating this many extra rounds after convergence to
            witness the closure property.
        raise_on_budget:
            When ``True`` raise :class:`ConvergenceError` if the budget is
            exhausted before convergence (only meaningful with a legitimacy
            predicate); otherwise return a report with ``converged=False``.
        """
        if max_rounds < 1:
            raise ConfigurationError("max_rounds must be >= 1")
        all_stats: List[RoundStats] = []
        extra_left = extra_rounds_after_convergence
        converged_at: Optional[int] = None
        quiescent = False
        while self.rounds_executed < max_rounds:
            self._start_processes()
            if not self.network.has_enabled_events():
                # Quiescence: no enabled timeout and no deliverable message.
                # No future round can change the configuration, so the
                # remaining round budget is dead work.
                quiescent = True
                break
            stats = self.step_round()
            all_stats.append(stats)
            if self.monitor is None:
                continue
            if self.monitor.converged:
                if converged_at is None:
                    converged_at = self.monitor.converged_round
                # Keep simulating while a fault or a topology change is
                # still scheduled in the future: a convergence declared now
                # would predate the disruption it must recover from.
                future_disruptions = (
                    (self.fault_plan is not None
                     and self.fault_plan.last_round >= self.rounds_executed)
                    or (self.churn_plan is not None
                        and self.churn_plan.last_round >= self.rounds_executed)
                    or (self.adversary is not None
                        and self.adversary.last_round >= self.rounds_executed))
                if future_disruptions:
                    converged_at = None
                    self.monitor.reset_stability()
                    continue
                if extra_left > 0:
                    extra_left -= 1
                    continue
                break
        converged = self.monitor.converged if self.monitor is not None else True
        if not converged and raise_on_budget:
            raise ConvergenceError(
                f"protocol did not converge within {max_rounds} rounds",
                rounds=self.rounds_executed)
        first_legit = (self.monitor.first_hold_round
                       if self.monitor is not None and self.monitor.converged else None)
        return SimulationReport(
            converged=converged,
            rounds=self.rounds_executed,
            convergence_round=first_legit,
            steps=sum(s.steps for s in all_stats),
            deliveries=sum(s.deliveries for s in all_stats),
            messages_sent=sum(s.messages_sent for s in all_stats),
            max_message_bits=self.network.max_channel_message_bits(),
            max_state_bits=self.network.max_state_bits(),
            closure_violations=list(self.closure.violations) if self.closure else [],
            fault_rounds=sorted({e.round_index for e in self.fault_plan.events})
            if self.fault_plan else [],
            round_stats=all_stats,
            quiescent=quiescent,
            predicate_evaluations=(self.predicate_cache.evaluations
                                   if self.predicate_cache else 0),
            predicate_cache_hits=(self.predicate_cache.hits
                                  if self.predicate_cache else 0),
            churn_rounds=list(self._churn_rounds),
            churn_applied=(len(self.churn_plan.applied) - self._churn_baseline[0]
                           if self.churn_plan else 0),
            churn_skipped=(len(self.churn_plan.skipped) - self._churn_baseline[1]
                           if self.churn_plan else 0),
            dropped_messages=self.network.dropped_messages,
            **self._adversary_report_fields(),
        )

    def _adversary_report_fields(self) -> dict:
        """Per-run adversary accounting (deltas against the install baseline)."""
        if self.adversary is None:
            return {}
        base = self._adversary_baseline
        counts = self.adversary.counters()
        delta = {k: counts[k] - base.get(k, 0) for k in counts}
        return {
            "adversary_rounds": list(self._adversary_rounds),
            "adversary_events": len(self._adversary_rounds),
            "adversary_dropped": delta.get("dropped", 0),
            "adversary_duplicated": delta.get("duplicated", 0),
            "adversary_reordered": delta.get("reordered", 0),
            "node_crashes": delta.get("crashes", 0),
            "node_recoveries": delta.get("recoveries", 0),
            "byzantine_corruptions": delta.get("byzantine_corruptions", 0),
        }
