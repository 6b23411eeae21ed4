"""Run and sweep specifications for the parallel execution engine.

A :class:`RunSpec` is a *fully serializable* description of one unit of
work: which task to perform (see :mod:`repro.runtime.tasks`), on which
workload instance ``(family, n, seed)``, and under which protocol
configuration.  Because a spec is a frozen dataclass of primitives it can be

* pickled across process boundaries (the sweep engine ships specs, not
  graphs or networks, to its workers),
* hashed into a stable cache key (:func:`spec_key`) so results persist on
  disk and re-runs are incremental,
* reconstructed from JSON (:meth:`RunSpec.from_dict`) by the CLI and the
  report loader.

A :class:`SweepSpec` describes a *matrix* of runs -- the cartesian product
``workload family x size x seed x scheduler x initial configuration x
protocol`` -- over a template :class:`RunSpec`, and expands it into an
ordered list of copies of that template.  Per-repetition seeds are derived
deterministically from a single master seed through
:func:`repro.sim.rng.derive_seed`, so adding repetitions never changes the
seeds of existing runs and the expansion is reproducible byte-for-byte.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx

from ..exceptions import ConfigurationError
from ..graphs.fast_generators import FAST_FAMILIES, make_fast_graph
from ..graphs.generators import make_graph, validate_graph_params
from ..graphs.io import read_edge_list
from ..protocols.base import ProtocolRunConfig
from ..sim.adversary import (Adversary, ByzantineModel, NodeFaultModel,
                             make_channel_model)
from ..sim.faults import ChurnPlan, random_churn_plan
from ..sim.rng import derive_seed

__all__ = ["RunSpec", "SweepSpec", "spec_key", "CACHE_SCHEMA_VERSION"]

#: Bumped whenever the result schema or the simulation semantics change in a
#: way that invalidates previously cached outcomes.  2: RunSpec grew the
#: churn parameters (``churn_rate``/``churn_start``/``churn_events``).
#: 3: RunSpec grew the ``protocol`` field (the unified protocol registry);
#: every cache key now embeds the protocol that produced the row.
#: 4: RunSpec grew the adversary axis (``loss_rate``/``dup_rate``/
#: ``reorder_rate``/``crash_*``/``byzantine_*``); legacy dicts without the
#: new keys deserialize to the adversary-free defaults.
#: 5: RunSpec grew the ``backend`` field (object vs array simulation
#: kernel); legacy dicts without the key deserialize to ``"object"``.  The
#: backends are byte-identical, but the key must still distinguish them so
#: per-backend timing rows (throughput, benchmarks) never alias.
#: 6: RunSpec grew the workload-instance knobs ``graph_params`` (per-family
#: generator parameters) and ``graph_file`` (run on an edge list from disk
#: instead of a generated family); legacy dicts deserialize to the
#: parameter-free generated defaults.
CACHE_SCHEMA_VERSION = 6

#: Stream index for deriving a run's churn-plan seed from its master seed
#: (decoupled from the repetition streams used by :class:`SweepSpec`).
CHURN_SEED_STREAM = 101

#: Stream indices for the adversary models' private generators, derived from
#: the run seed.  Distinct streams keep the channel, crash and Byzantine
#: draws independent of each other and of the scheduler/fault/churn streams.
CHANNEL_SEED_STREAM = 211
CRASH_SEED_STREAM = 223
BYZANTINE_SEED_STREAM = 227


@dataclass(frozen=True)
class RunSpec:
    """One unit of work for the sweep engine.

    Attributes
    ----------
    task:
        Name of the task in :data:`repro.runtime.tasks.TASKS` that executes
        this spec (``"protocol"``, ``"reference"``, ``"memory"``, ...).
    protocol:
        Name of the protocol in the :data:`repro.protocols.PROTOCOLS`
        registry that protocol-style tasks (``protocol``/``throughput``/
        ``churn``/``adversary``) execute; MDST-only tasks reject anything
        but the default ``"mdst"``.
    family, n, seed:
        The workload instance: graph family name (see
        :data:`repro.graphs.generators.GRAPH_FAMILIES`), target node count
        and generator seed.  ``seed`` also seeds the protocol run.
    scheduler, initial, max_rounds, stability_window, enable_reduction:
        Protocol configuration; :meth:`protocol_run_config` turns the spec
        into the :class:`~repro.protocols.base.ProtocolRunConfig` that
        :func:`~repro.protocols.runner.run_protocol` and the adapters read.
    fault_round, fault_fraction:
        When ``fault_round`` is set, a transient fault corrupting
        ``fault_fraction`` of the nodes is injected after that round
        (used by the self-stabilization experiments).
    churn_rate, churn_start, churn_events:
        When ``churn_rate > 0`` and ``churn_events > 0``, a deterministic
        connectivity-preserving topology churn plan
        (:func:`repro.sim.faults.random_churn_plan`, seeded from ``seed``)
        schedules ``churn_events`` node/edge changes, one every
        ``round(1 / churn_rate)`` rounds starting after ``churn_start``
        (used by the ``churn`` task and benchmark).
    loss_rate, dup_rate, reorder_rate:
        Channel-adversary intensities: per-send probabilities of message
        loss, duplication and out-of-order insertion.  Any non-zero rate
        installs a seeded :class:`~repro.sim.adversary.UnreliableChannelModel`.
    crash_count, crash_round, crash_recover:
        When ``crash_count > 0``, that many seeded-random nodes crash after
        ``crash_round``; with ``crash_recover`` set they recover (with
        total state loss) that many rounds later, otherwise the crash is
        permanent (crash-stop).
    byzantine_count, byzantine_start, byzantine_rounds:
        When ``byzantine_count > 0``, that many seeded-random nodes emit
        corrupted gossip every round of the ``byzantine_rounds``-round
        window opening after ``byzantine_start``.
    backend:
        Simulation kernel backend, ``"object"`` or ``"array"`` (flat numpy
        state columns, rounds vectorized under every scheduler, see
        :mod:`repro.sim.array_engine`).  Results are byte-identical across
        backends; the field is seed-free and only changes how rounds are
        executed, but it is part of the cache key so per-backend timing
        rows never alias.
    graph_params:
        Per-family generator parameters as a sorted tuple of ``(key,
        value)`` pairs (e.g. ``(("p", 0.05),)`` for an Erdos-Renyi family),
        validated against :data:`repro.graphs.generators.FAMILY_PARAMS`
        before the generator runs.
    graph_file:
        When set, the workload comes from this edge-list file on disk
        (:func:`repro.graphs.io.read_edge_list`; gzip and SNAP-style
        headers accepted) instead of a generated family, and ``family``/
        ``n``/``graph_params`` are ignored.
    params:
        Task-specific extras as a sorted tuple of ``(key, value)`` pairs so
        the spec stays hashable; use :meth:`param` to read them.
    """

    task: str = "protocol"
    protocol: str = "mdst"
    family: str = "erdos_renyi_sparse"
    n: int = 16
    seed: int = 0
    scheduler: str = "synchronous"
    initial: str = "isolated"
    max_rounds: int = 5000
    stability_window: int = 5
    enable_reduction: bool = True
    fault_round: Optional[int] = None
    fault_fraction: float = 0.5
    churn_rate: float = 0.0
    churn_start: int = 50
    churn_events: int = 0
    loss_rate: float = 0.0
    dup_rate: float = 0.0
    reorder_rate: float = 0.0
    crash_count: int = 0
    crash_round: int = 50
    crash_recover: Optional[int] = None
    byzantine_count: int = 0
    byzantine_start: int = 10
    byzantine_rounds: int = 20
    backend: str = "object"
    graph_params: Tuple[Tuple[str, object], ...] = ()
    graph_file: Optional[str] = None
    params: Tuple[Tuple[str, object], ...] = ()

    # -- derived views ---------------------------------------------------------

    def build_graph(self):
        """Instantiate the workload graph ``(family, n, seed)``.

        Equivalent to ``WorkloadInstance(family, n, seed).build()``; the
        runtime layer goes straight to the generator registry so it stays
        below :mod:`repro.experiments` in the import graph.

        Three routes:

        * ``graph_file`` set: read the edge list from disk (``family``/
          ``n``/``graph_params`` are ignored; the actual node and edge
          counts land in the result rows).
        * Array-backend protocol run of a vectorized family: return the
          :class:`~repro.graphs.edge_array.EdgeArrayGraph` itself so the
          CSR-direct network build never materializes an ``nx.Graph``.
        * Everything else: the nx generator registry.
        """
        if self.graph_file:
            graph = read_edge_list(self.graph_file)
            graph.graph.setdefault("family", "file")
            return graph
        params = dict(self.graph_params)
        validate_graph_params(self.family, params)
        if (self.backend == "array"
                and self.task in ("protocol", "throughput")
                and self.family in FAST_FAMILIES):
            return make_fast_graph(self.family, self.n, seed=self.seed,
                                   **params)
        return make_graph(self.family, self.n, seed=self.seed,
                          params=params or None)

    @property
    def churn_enabled(self) -> bool:
        """Whether this spec schedules topology churn."""
        return self.churn_rate > 0 and self.churn_events > 0

    @property
    def churn_period(self) -> int:
        """Rounds between consecutive churn events (``round(1 / rate)``)."""
        if self.churn_rate <= 0:
            raise ConfigurationError("churn_period needs churn_rate > 0")
        return max(1, int(round(1.0 / self.churn_rate)))

    def build_churn_plan(self, graph) -> Optional[ChurnPlan]:
        """The spec's deterministic churn plan for ``graph`` (``None`` if
        churn is disabled).  Seeded from the run seed via an independent
        stream so churn never perturbs the scheduler/fault streams."""
        if not self.churn_enabled:
            return None
        return random_churn_plan(
            graph, events=self.churn_events, start_round=self.churn_start,
            period=self.churn_period,
            seed=derive_seed(self.seed, CHURN_SEED_STREAM))

    @property
    def adversary_enabled(self) -> bool:
        """Whether this spec configures any adversary model."""
        return (self.loss_rate > 0 or self.dup_rate > 0 or self.reorder_rate > 0
                or self.crash_count > 0 or self.byzantine_count > 0)

    def build_adversary(self) -> Optional[Adversary]:
        """The spec's :class:`~repro.sim.adversary.Adversary` (``None`` when
        the adversary axis is off).

        Each model's private generator is seeded from the run seed through
        an independent stream (:data:`CHANNEL_SEED_STREAM` and friends), so
        enabling one model never perturbs the others or the scheduler/
        fault/churn streams.  Build a fresh adversary per run: the models
        carry per-run counters and resolved victim sets.
        """
        if not self.adversary_enabled:
            return None
        channel_model = make_channel_model(
            loss=self.loss_rate, dup=self.dup_rate, reorder=self.reorder_rate,
            seed=derive_seed(self.seed, CHANNEL_SEED_STREAM))
        node_faults = None
        if self.crash_count > 0:
            node_faults = NodeFaultModel(
                crash_round=self.crash_round, count=self.crash_count,
                recover_after=self.crash_recover,
                seed=derive_seed(self.seed, CRASH_SEED_STREAM))
        byzantine = None
        if self.byzantine_count > 0:
            byzantine = ByzantineModel(
                count=self.byzantine_count, start_round=self.byzantine_start,
                rounds=self.byzantine_rounds,
                seed=derive_seed(self.seed, BYZANTINE_SEED_STREAM))
        return Adversary(channel_model=channel_model, node_faults=node_faults,
                         byzantine=byzantine)

    @property
    def label(self) -> str:
        protocol = "" if self.protocol == "mdst" else f"{self.protocol}:"
        adv = "-adv" if self.adversary_enabled else ""
        backend = "" if self.backend == "object" else f"-{self.backend}"
        return (f"{self.task}:{protocol}{self.family}-n{self.n}-s{self.seed}"
                f"-{self.scheduler}-{self.initial}{adv}{backend}")

    def param(self, key: str, default: object = None) -> object:
        """Read a task-specific parameter from :attr:`params`."""
        for name, value in self.params:
            if name == key:
                return value
        return default

    def with_params(self, **extras: object) -> "RunSpec":
        """A copy of this spec with additional task parameters merged in."""
        merged = dict(self.params)
        merged.update(extras)
        return replace(self, params=tuple(sorted(merged.items())))

    def protocol_run_config(self) -> ProtocolRunConfig:
        """The generic :class:`~repro.protocols.base.ProtocolRunConfig` of
        this spec -- the one route from a spec to a run, for every task.

        The common fields are built once for every protocol; only the
        MDST-specific ``enable_reduction`` option forks on the protocol
        name.  The ``node_weights`` task parameter (a tuple of ``(node,
        weight)`` pairs, kept as a tuple so the spec stays hashable)
        configures the kernel's weighted-fair scheduler when
        ``scheduler="weighted"``.
        """
        weights = self.param("node_weights")
        config = ProtocolRunConfig(
            protocol=self.protocol,
            scheduler=self.scheduler,
            seed=self.seed,
            initial=self.initial,
            max_rounds=self.max_rounds,
            stability_window=self.stability_window,
            node_weights={int(v): int(w) for v, w in weights} if weights else None,
            backend=self.backend,
        )
        if self.protocol == "mdst":
            config.options["enable_reduction"] = self.enable_reduction
        return config

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["graph_params"] = [list(item) for item in self.graph_params]
        data["params"] = [list(item) for item in self.params]
        return data

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "RunSpec":
        known = {f.name for f in fields(RunSpec)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(f"unknown RunSpec fields: {sorted(unknown)}")
        payload = dict(data)
        params = payload.pop("params", ())
        graph_params = payload.pop("graph_params", ())
        spec = RunSpec(**payload)  # type: ignore[arg-type]
        return replace(spec, params=tuple((str(k), v) for k, v in params),
                       graph_params=tuple((str(k), v) for k, v in graph_params))


def spec_key(spec: RunSpec) -> str:
    """Stable content hash of a spec, used as the on-disk cache key.

    The digest covers every configuration field (via canonical JSON with
    sorted keys) plus :data:`CACHE_SCHEMA_VERSION`, so *any* change to the
    run configuration -- or a bump of the schema version after a semantic
    change to the simulator -- invalidates the cached entry.
    """
    payload = spec.to_dict()
    payload["__schema__"] = CACHE_SCHEMA_VERSION
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SweepSpec:
    """A matrix of runs:
    ``family x size x repetition x scheduler x initial x protocol``.

    :attr:`base` is the template every expanded run starts from: its task,
    round budget, fault/churn/adversary scenario, backend and generator
    parameters are copied verbatim into every :class:`RunSpec` of the
    matrix, so one sweep can put every protocol through the same scenario.
    The axes below replace the template's ``family``, ``n``, ``seed``,
    ``scheduler``, ``initial`` and ``protocol``.

    Seeds: if :attr:`seeds` is given, repetition ``r`` uses
    ``seeds[r % len(seeds)]`` (mirroring
    :meth:`repro.experiments.config.ExperimentProfile.seed_for`); otherwise
    the seed of repetition ``r`` is ``derive_seed(master_seed, r)``, an
    independent 31-bit stream from :mod:`repro.sim.rng`.

    ``protocols`` multiplies the matrix across registry entries (see
    :data:`repro.protocols.PROTOCOLS`); the default single-``"mdst"`` axis
    expands to exactly the specs (and order) it always did.
    """

    base: RunSpec = RunSpec()
    families: Tuple[str, ...] = ("erdos_renyi_sparse",)
    sizes: Tuple[int, ...] = (16,)
    repetitions: int = 1
    master_seed: int = 0
    seeds: Optional[Tuple[int, ...]] = None
    schedulers: Tuple[str, ...] = ("synchronous",)
    initials: Tuple[str, ...] = ("isolated",)
    protocols: Tuple[str, ...] = ("mdst",)

    def seed_for(self, repetition: int) -> int:
        if self.seeds:
            return self.seeds[repetition % len(self.seeds)]
        return derive_seed(self.master_seed, repetition)

    def expand(self) -> List[RunSpec]:
        """The ordered list of runs in the matrix.

        The order (repetition, family, size, scheduler, initial, protocol)
        is part of the engine's contract: results are always returned in
        expansion order regardless of worker count, which is what makes
        ``--workers N`` output byte-identical to the serial run.
        """
        if self.repetitions < 1:
            raise ConfigurationError("repetitions must be >= 1")
        if not self.families or not self.sizes:
            raise ConfigurationError("sweep needs at least one family and one size")
        if not self.protocols:
            raise ConfigurationError("sweep needs at least one protocol")
        specs: List[RunSpec] = []
        for rep in range(self.repetitions):
            seed = self.seed_for(rep)
            for family in self.families:
                for n in self.sizes:
                    for scheduler in self.schedulers:
                        for initial in self.initials:
                            for protocol in self.protocols:
                                specs.append(replace(
                                    self.base, protocol=protocol,
                                    family=family, n=n, seed=seed,
                                    scheduler=scheduler, initial=initial))
        return specs
