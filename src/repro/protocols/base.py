"""The protocol-adapter contract of the unified protocol registry.

The paper's MDST algorithm is a *composition* of self-stabilizing layers --
a spanning-tree module and a PIF-style aggregation layer -- and the repo
implements those layers both standalone (:mod:`repro.stabilization`) and
fused (:mod:`repro.core`).  Historically only the fused protocol could be
driven by the runtime stack (specs, sweeps, caching, churn/fault plans,
CLI, benchmarks); everything else needed hand-rolled harness code.

A :class:`ProtocolAdapter` packages what the generic runner
(:func:`repro.protocols.runner.run_protocol`) needs to drive *any*
self-stabilizing protocol through that stack:

* a **process factory** (:meth:`~ProtocolAdapter.build_network`),
* the recognised **initial-configuration policies** and how to install them
  (:meth:`~ProtocolAdapter.prepare_initial`),
* a **legitimacy-predicate factory** (:meth:`~ProtocolAdapter.make_legitimacy`)
  whose product must be a pure function of the per-node snapshots and the
  live graph, so the simulator's
  :class:`~repro.sim.monitors.PredicateCache` -- keyed on
  ``(snapshot_key, topology_version)`` -- stays sound for every protocol,
* a **per-run metrics extractor** (:meth:`~ProtocolAdapter.extract_metrics`),
* **capability flags**: whether the protocol survives live topology churn
  (``supports_churn``), accepts an explicit initial spanning tree
  (``supports_initial_tree``) and runs on the array backend
  (``supports_array_backend``), each checked through
  :meth:`~ProtocolAdapter.require`.  Transient faults and every adversary
  model need no flag: every registered protocol implements ``corrupt`` and
  re-sends its full state by gossip.

Adapters are stateless singletons: one instance serves every run, so all
per-run data must flow through the config, the network or the rng.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Mapping, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from ..exceptions import ConfigurationError
from ..sim.faults import corrupt_channels, corrupt_states
from ..sim.network import Network
from ..sim.simulator import SimulationReport
from ..types import Edge, NodeId

__all__ = ["ProtocolAdapter", "ProtocolRunConfig", "corrupt_configuration"]

Predicate = Callable[[Network], bool]


@dataclass
class ProtocolRunConfig:
    """Protocol-agnostic configuration of one run.

    The common knobs every registered protocol understands; anything
    protocol-specific (e.g. the MDST node's ``search_period``) travels in
    :attr:`options` and is interpreted by the adapter.

    Attributes
    ----------
    protocol:
        Name of the protocol in the :data:`~repro.protocols.PROTOCOLS`
        registry that executes this run.
    scheduler:
        ``"synchronous"``, ``"random"``, ``"adversarial"`` or ``"weighted"``.
    seed:
        Master seed for the scheduler, fault injection and random initial
        configurations.
    initial:
        Initial-configuration policy; must be one of the adapter's
        :attr:`~ProtocolAdapter.initial_policies`.
    corrupt_channel_fraction:
        With ``initial="corrupted"``, fraction of channels pre-loaded with
        garbage messages.
    stability_window:
        Consecutive legitimate rounds required to declare convergence.
    max_rounds:
        Round budget.
    extra_rounds_after_convergence:
        Extra rounds simulated after convergence to witness closure.
    keep_trace_events:
        Record the full event log (memory-heavy; used by examples).
    slow_links, max_delay:
        Parameters of the adversarial scheduler.
    node_weights:
        Per-node step weights for the ``"weighted"`` scheduler.
    n_upper:
        Explicit upper bound on the network size (the distance bound of
        spanning-tree-style protocols).  Defaults per adapter; runs that
        expect node *joins* must pass headroom here.
    backend:
        Simulation kernel backend: ``"object"`` (the historical
        object-per-node kernel) or ``"array"`` (flat numpy state columns
        and rounds vectorized under every scheduler, see
        :mod:`repro.sim.array_engine`).  Gated per adapter by the
        ``supports_array_backend`` capability flag, which only ``mdst``
        sets; the array backend rejects live topology churn and adversary
        models.
    options:
        Adapter-specific extras (see each adapter's docstring).
    """

    protocol: str = "mdst"
    scheduler: str = "synchronous"
    seed: Optional[int] = None
    initial: str = "isolated"
    corrupt_channel_fraction: float = 0.5
    stability_window: int = 5
    max_rounds: int = 5000
    extra_rounds_after_convergence: int = 0
    keep_trace_events: bool = False
    slow_links: Sequence[Tuple[NodeId, NodeId]] = field(default_factory=tuple)
    max_delay: int = 4
    node_weights: Optional[Dict[NodeId, int]] = None
    n_upper: Optional[int] = None
    backend: str = "object"
    options: Dict[str, object] = field(default_factory=dict)

    def validate(self) -> None:
        """Check the protocol-agnostic fields (adapters check the rest)."""
        if self.max_rounds < 1:
            raise ConfigurationError("max_rounds must be >= 1")
        if self.stability_window < 1:
            raise ConfigurationError("stability_window must be >= 1")
        if self.n_upper is not None and self.n_upper < 2:
            raise ConfigurationError("n_upper must be >= 2")
        if self.backend not in ("object", "array"):
            raise ConfigurationError(
                f"backend must be 'object' or 'array', got {self.backend!r}")

    def option(self, key: str, default: object = None) -> object:
        """Read an adapter-specific option."""
        return self.options.get(key, default)


def corrupt_configuration(network: Network, config: ProtocolRunConfig,
                          rng: np.random.Generator) -> None:
    """The shared ``"corrupted"`` initial policy: arbitrary state everywhere.

    Every node's variables are randomised through its
    :meth:`~repro.sim.node.Process.corrupt` hook and a fraction of the
    channels is pre-loaded with garbage -- the paper's arbitrary initial
    configuration, identical across protocols so self-stabilization runs
    are comparable.
    """
    corrupt_states(network, rng, fraction=1.0)
    if config.corrupt_channel_fraction > 0:
        corrupt_channels(network, rng, fraction=config.corrupt_channel_fraction)


class ProtocolAdapter(abc.ABC):
    """One registered protocol: factories, policies, predicates, metrics.

    Subclasses set the class attributes and implement the three abstract
    hooks; :meth:`install_tree` and :meth:`extract_metrics` have sensible
    defaults.  Adapters must be stateless -- the registry holds one shared
    instance per protocol.
    """

    #: Registry key (``repro run --protocol <name>``).
    name: str = ""
    #: One-line human description (shown by ``repro protocols``).
    description: str = ""
    #: Recognised values of :attr:`ProtocolRunConfig.initial`.
    initial_policies: Tuple[str, ...] = ("isolated",)
    #: Whether the protocol's processes survive live topology churn
    #: (requires the ``neighbor_added``/``neighbor_removed`` delta hooks and
    #: a legitimacy predicate that reads the *live* graph).
    supports_churn: bool = False
    #: Whether :func:`~repro.protocols.runner.run_protocol` accepts an
    #: explicit ``initial_tree`` for this protocol.
    supports_initial_tree: bool = False
    #: Whether the adapter builds the array-backed MDST kernel network
    #: (``backend="array"``, see :mod:`repro.sim.array_kernel`): its
    #: :meth:`build_array_network` returns an
    #: :class:`~repro.sim.array_kernel.ArrayNetwork`, byte-identical to the
    #: object backend, and accepts an
    #: :class:`~repro.graphs.edge_array.EdgeArrayGraph` as well as an
    #: ``nx.Graph``.  Only ``mdst`` sets it.
    supports_array_backend: bool = False

    # -- abstract hooks --------------------------------------------------------

    @abc.abstractmethod
    def build_network(self, graph: nx.Graph, config: ProtocolRunConfig) -> Network:
        """Build the network of protocol processes over ``graph``."""

    @abc.abstractmethod
    def prepare_initial(self, network: Network, config: ProtocolRunConfig,
                        rng: np.random.Generator) -> None:
        """Install the initial configuration named by ``config.initial``."""

    @abc.abstractmethod
    def make_legitimacy(self, network: Network,
                        config: ProtocolRunConfig) -> Predicate:
        """The legitimacy predicate judging this run's configurations.

        The product must be a pure function of the per-node snapshots and
        the live communication graph (the :class:`~repro.sim.monitors.
        PredicateCache` contract).
        """

    # -- optional hooks --------------------------------------------------------

    def install_tree(self, network: Network, tree_edges: Iterable[Edge]) -> None:
        """Install an explicit initial spanning tree (adapters opting in)."""
        raise ConfigurationError(
            f"protocol {self.name!r} does not accept an explicit initial tree")

    def build_array_network(self, graph: nx.Graph,
                            config: ProtocolRunConfig) -> Network:
        """Build the array-backed network (adapters with
        ``supports_array_backend`` opt in)."""
        self.require("supports_array_backend", "the array backend")
        raise NotImplementedError

    def extract_metrics(self, network: Network, report: SimulationReport,
                        config: ProtocolRunConfig) -> Dict[str, object]:
        """Protocol-specific additions to the run's ``extra`` metrics dict."""
        return {}

    def validate_config(self, config: ProtocolRunConfig) -> None:
        """Reject configurations this protocol cannot execute."""
        config.validate()
        if config.initial not in self.initial_policies:
            raise ConfigurationError(
                f"protocol {self.name!r} supports initial policies "
                f"{self.initial_policies}, got {config.initial!r}")

    def require(self, flag: str, what: str) -> None:
        """Raise unless this protocol's capability ``flag`` is set.

        The one capability check: the runner, the churn task and the CLI's
        pre-run checks all go through it, so a refusal reads the same
        everywhere -- it names ``what`` is missing and lists the capable
        protocols.
        """
        if not getattr(self, flag):
            # The registry imports this module, so it is imported on use.
            from .registry import capable_names
            raise ConfigurationError(
                f"protocol {self.name!r} does not support {what}; "
                f"capable protocols: {', '.join(capable_names(flag))}")

    def default_n_upper(self, graph: nx.Graph,
                        config: ProtocolRunConfig) -> int:
        """The distance bound used when the config leaves ``n_upper`` unset."""
        return (config.n_upper if config.n_upper is not None
                else graph.number_of_nodes() + 1)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<ProtocolAdapter {self.name!r}>"
