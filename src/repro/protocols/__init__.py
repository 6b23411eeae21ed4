"""Unified protocol registry: one engine for every self-stabilizing protocol.

The runtime stack (specs, sweeps, caching, churn/fault plans, CLI,
benchmarks) drives protocols through a single generic runner,
:func:`run_protocol`, dispatching on the :data:`PROTOCOLS` registry:

=================  =========================================================
``mdst``           the paper's full minimum-degree spanning tree algorithm
``spanning_tree``  the standalone self-stabilizing spanning-tree substrate
``pif_max_degree`` PIF max-degree aggregation over a fixed BFS tree
=================  =========================================================

Adding a protocol is a ~100-line adapter: subclass
:class:`ProtocolAdapter`, implement the three factory hooks (network,
initial configuration, legitimacy predicate) and call
:func:`register_protocol`.  Every scenario axis of the runtime --
graph family x scheduler x initial policy x fault plan x churn plan --
then multiplies across the new protocol for free; see
``docs/architecture.md`` ("Protocol registry").
"""

from .base import ProtocolAdapter, ProtocolRunConfig, corrupt_configuration
from .registry import (
    PROTOCOLS,
    capable_names,
    get_protocol,
    protocol_names,
    register_protocol,
)
from .runner import ProtocolResult, run_protocol

__all__ = [
    "PROTOCOLS",
    "ProtocolAdapter",
    "ProtocolResult",
    "ProtocolRunConfig",
    "capable_names",
    "corrupt_configuration",
    "get_protocol",
    "protocol_names",
    "register_protocol",
    "run_protocol",
]
