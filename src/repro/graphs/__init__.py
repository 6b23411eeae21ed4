"""Graph substrate: generators, spanning-tree utilities, validation, I/O.

This subpackage provides everything the experiments need to *create* network
instances and everything the verification layer needs to *check* trees.  The
distributed protocol itself only sees a network through the simulator's
adjacency interface (:class:`repro.sim.network.Network`).
"""

from .edge_array import (
    EdgeArrayGraph,
    canonical_edge_arrays,
    connect_components,
    union_find_labels,
)
from .fast_generators import (
    FAST_FAMILIES,
    barabasi_albert_fast,
    erdos_renyi_fast,
    fast_family_names,
    kronecker,
    make_fast_graph,
    powerlaw_cm,
    random_geometric_fast,
    small_world_fast,
)
from .generators import (
    FAMILY_PARAMS,
    GRAPH_FAMILIES,
    barabasi_albert_graph,
    barbell_graph,
    caterpillar_with_hubs,
    complete_graph,
    cycle_graph,
    dense_hamiltonian_graph,
    erdos_renyi_connected,
    family_info,
    family_names,
    grid_graph,
    hard_hub_graph,
    hypercube_graph,
    lollipop_graph,
    make_graph,
    path_graph,
    random_geometric_connected,
    random_regular_connected,
    ring_with_chords,
    spider_graph,
    star_graph,
    star_of_cliques,
    torus_graph,
    two_hub_graph,
    validate_graph_params,
    watts_strogatz_connected,
    wheel_graph,
)
from .properties import (
    GraphSummary,
    cut_vertex_lower_bound,
    degree_histogram,
    density,
    is_hamiltonian_path_certificate,
    max_degree,
    mdst_lower_bound,
    min_degree,
    summarize,
)
from .spanning import (
    bfs_spanning_tree,
    dfs_spanning_tree,
    edges_from_parent_map,
    fundamental_cycle,
    fundamental_cycle_edges,
    is_spanning_tree,
    minimum_spanning_tree,
    non_tree_edges,
    parent_map_from_edges,
    random_spanning_tree,
    swap_edges,
    tree_degree,
    tree_degrees,
    tree_path,
)
from .validation import check_network, check_spanning_tree
from .io import (
    graph_from_dict,
    graph_to_dict,
    read_edge_list,
    read_graph_json,
    read_tree,
    write_edge_list,
    write_graph_json,
    write_tree,
)

__all__ = [name for name in dir() if not name.startswith("_")]
