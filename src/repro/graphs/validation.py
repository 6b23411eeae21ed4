"""Validation helpers for input networks and (claimed) spanning trees.

:func:`check_network` rejects graphs the algorithm cannot run on, and
:func:`check_spanning_tree` checks the edge set a baseline or the reference
engine outputs.  The checks of a live configuration (parent pointers,
distances) are the snapshot predicates of
:mod:`repro.stabilization.predicates`.
"""

from __future__ import annotations

from typing import Dict, Iterable

import networkx as nx

from ..exceptions import GraphError, NotASpanningTreeError, NotConnectedError
from ..types import Edge, NodeId, canonical_edge, canonical_edges
from .spanning import parent_map_from_edges, tree_degrees

__all__ = [
    "check_network",
    "check_spanning_tree",
]


def check_network(graph: nx.Graph) -> None:
    """Validate that ``graph`` is a legal input network for the algorithm.

    Raises :class:`GraphError` / :class:`NotConnectedError` when the graph is
    empty, directed, has self-loops, or is disconnected.
    """
    if graph.number_of_nodes() == 0:
        raise GraphError("network is empty")
    if graph.is_directed():
        raise GraphError("network must be undirected")
    if any(u == v for u, v in graph.edges):
        raise GraphError("network must not contain self-loops")
    if not nx.is_connected(graph):
        raise NotConnectedError("network must be connected")


def check_spanning_tree(graph: nx.Graph, edges: Iterable[Edge]) -> Dict[NodeId, int]:
    """Validate a claimed spanning tree and return its per-node degrees.

    Raises :class:`NotASpanningTreeError` with a descriptive message when the
    edge set is not a spanning tree of ``graph``.
    """
    nodes = list(graph.nodes)
    edge_set = canonical_edges(edges)
    graph_edges = {canonical_edge(u, v) for u, v in graph.edges}
    foreign = edge_set - graph_edges
    if foreign:
        raise NotASpanningTreeError(f"tree uses edges not in the graph: {sorted(foreign)[:5]}")
    if len(edge_set) != len(nodes) - 1:
        raise NotASpanningTreeError(
            f"tree has {len(edge_set)} edges but a spanning tree of {len(nodes)} "
            f"nodes needs {len(nodes) - 1}")
    parent_map_from_edges(nodes, edge_set)  # raises if not spanning / has cycles
    return tree_degrees(nodes, edge_set)
