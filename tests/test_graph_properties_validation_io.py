"""Tests for repro.graphs.properties, validation and io."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.exceptions import GraphError, NotASpanningTreeError, NotConnectedError
from repro.graphs import (
    bfs_spanning_tree,
    check_network,
    check_spanning_tree,
    cut_vertex_lower_bound,
    degree_histogram,
    density,
    graph_from_dict,
    graph_to_dict,
    is_hamiltonian_path_certificate,
    make_graph,
    max_degree,
    mdst_lower_bound,
    min_degree,
    read_edge_list,
    read_graph_json,
    read_tree,
    summarize,
    write_edge_list,
    write_graph_json,
    write_tree,
)


class TestProperties:
    def test_degree_histogram_totals(self, wheel8):
        hist = degree_histogram(wheel8)
        assert sum(hist.values()) == wheel8.number_of_nodes()

    def test_max_min_degree(self, wheel8):
        assert max_degree(wheel8) == 7
        assert min_degree(wheel8) == 3

    def test_density_range(self, small_dense):
        assert 0 < density(small_dense) <= 1

    def test_cut_vertex_bound_on_spider(self):
        g = make_graph("spider", 17)  # 4 legs
        assert cut_vertex_lower_bound(g) >= 4

    def test_cut_vertex_bound_biconnected(self):
        g = make_graph("complete", 6)
        assert cut_vertex_lower_bound(g) == 1
        assert mdst_lower_bound(g) == 2

    def test_mdst_lower_bound_small_graphs(self):
        assert mdst_lower_bound(nx.path_graph(2)) == 1
        assert mdst_lower_bound(make_graph("star", 6)) == 5

    def test_hamiltonian_certificate(self):
        g = make_graph("dense_hamiltonian", 10, seed=2)
        assert is_hamiltonian_path_certificate(g, g.graph["hamiltonian_path"])
        assert not is_hamiltonian_path_certificate(g, [0, 0, 1])

    def test_summarize_fields(self, geometric14):
        s = summarize(geometric14)
        assert s.nodes == geometric14.number_of_nodes()
        assert s.edges == geometric14.number_of_edges()
        assert s.mdst_lower_bound >= 2
        d = s.as_dict()
        assert d["nodes"] == s.nodes

    def test_summarize_rejects_empty(self):
        with pytest.raises(GraphError):
            summarize(nx.Graph())


class TestValidation:
    def test_check_network_accepts_valid(self, small_dense):
        check_network(small_dense)

    def test_check_network_rejects_disconnected(self):
        with pytest.raises(NotConnectedError):
            check_network(nx.Graph([(0, 1), (2, 3)]))

    def test_check_network_rejects_directed(self):
        with pytest.raises(GraphError):
            check_network(nx.DiGraph([(0, 1)]))

    def test_check_network_rejects_empty(self):
        with pytest.raises(GraphError):
            check_network(nx.Graph())

    def test_check_spanning_tree_accepts_bfs(self, small_dense):
        degrees = check_spanning_tree(small_dense, bfs_spanning_tree(small_dense))
        assert sum(degrees.values()) == 2 * (small_dense.number_of_nodes() - 1)

    def test_check_spanning_tree_rejects_wrong_count(self, small_dense):
        edges = list(bfs_spanning_tree(small_dense))[:-1]
        with pytest.raises(NotASpanningTreeError):
            check_spanning_tree(small_dense, edges)


def _canon(edges):
    return {tuple(sorted(e)) for e in edges}


class TestIO:
    def test_edge_list_round_trip(self, tmp_path, geometric14):
        path = tmp_path / "graph.edges"
        write_edge_list(geometric14, path)
        g = read_edge_list(path)
        assert _canon(g.edges) == _canon(geometric14.edges)
        assert g.number_of_nodes() == geometric14.number_of_nodes()

    def test_tree_round_trip(self, tmp_path, geometric14):
        path = tmp_path / "tree.edges"
        edges = bfs_spanning_tree(geometric14)
        write_tree(edges, path)
        assert read_tree(path) == edges

    def test_json_round_trip(self, tmp_path, small_dense):
        path = tmp_path / "graph.json"
        write_graph_json(small_dense, path)
        g = read_graph_json(path)
        assert _canon(g.edges) == _canon(small_dense.edges)

    def test_dict_round_trip(self, wheel8):
        g = graph_from_dict(graph_to_dict(wheel8))
        assert _canon(g.edges) == _canon(wheel8.edges)
        assert g.graph["family"] == "wheel"

    def test_read_edge_list_ignores_extra_columns(self, tmp_path):
        # Weighted/SNAP-style exports carry trailing columns; the first
        # two are the endpoints and the rest is ignored.
        path = tmp_path / "weighted.edges"
        path.write_text("1 2 3\n2 0 0.5\n", encoding="utf-8")
        g = read_edge_list(path)
        assert _canon(g.edges) == {(1, 2), (0, 2)}

    def test_read_edge_list_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("1\n", encoding="utf-8")
        with pytest.raises(GraphError):
            read_edge_list(path)
        path.write_text("one two\n", encoding="utf-8")
        with pytest.raises(GraphError):
            read_edge_list(path)
