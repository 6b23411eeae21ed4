"""Tests for the analysis layer (metrics, convergence, memory, tables, reports)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analysis import (
    ConvergenceRecord,
    ExperimentReport,
    MemoryReport,
    TreeQuality,
    aggregate_records,
    degree_gap,
    degree_histogram_of_tree,
    evaluate_tree,
    format_csv,
    format_table,
    gini,
    log_n_bits,
    loglog_slope,
    memory_report,
    message_bound_bits,
    paper_round_bound,
    render_rows,
    state_bound_bits,
)
from repro.graphs import bfs_spanning_tree, make_graph
from repro.protocols import ProtocolRunConfig, get_protocol


class TestMetrics:
    def test_evaluate_tree_with_known_optimum(self, wheel8):
        tree = bfs_spanning_tree(wheel8)
        q = evaluate_tree(wheel8, tree, optimal_degree=2)
        assert q.degree == 7
        assert q.gap_to_optimal == 5
        assert q.within_one_of_optimal is False
        assert q.leaves == 7

    def test_evaluate_tree_without_optimum(self, small_dense):
        q = evaluate_tree(small_dense, bfs_spanning_tree(small_dense))
        assert q.optimal_degree is None
        assert q.gap_to_optimal is None
        assert q.lower_bound >= 2
        assert "degree" in q.as_dict()

    def test_gini_even_distribution_is_zero(self):
        assert gini([3, 3, 3, 3]) == pytest.approx(0.0)

    def test_gini_degenerate_inputs(self):
        assert gini([]) == 0.0
        assert gini([0, 0, 0]) == 0.0

    def test_gini_extreme_concentration(self):
        # one node carries all the load: G -> (n-1)/n
        n = 10
        values = [0] * (n - 1) + [100]
        assert gini(values) == pytest.approx((n - 1) / n)

    def test_gini_order_invariant_and_bounded(self):
        values = [1, 5, 2, 9, 3]
        assert gini(values) == pytest.approx(gini(sorted(values, reverse=True)))
        assert 0.0 <= gini(values) < 1.0

    def test_degree_gap_helper(self):
        assert degree_gap(4, 3) == 1
        assert degree_gap(4, None) is None

    def test_degree_histogram_totals(self, wheel8):
        hist = degree_histogram_of_tree(wheel8, bfs_spanning_tree(wheel8))
        assert sum(hist.values()) == wheel8.number_of_nodes()
        assert hist[7] == 1


class TestConvergenceAnalysis:
    def _record(self, n, rounds, converged=True):
        return ConvergenceRecord(nodes=n, edges=2 * n, rounds=rounds,
                                 convergence_round=rounds if converged else None,
                                 steps=10 * rounds, messages=50 * rounds,
                                 converged=converged, tree_degree=3, family="test")

    def test_aggregate_records(self):
        records = [self._record(10, 20), self._record(10, 30)]
        agg = aggregate_records(records)
        assert agg["runs"] == 2
        assert agg["mean_rounds"] == 25
        assert agg["max_rounds"] == 30

    def test_aggregate_empty(self):
        assert aggregate_records([]) == {"runs": 0}

    def test_loglog_slope_recovers_exponent(self):
        sizes = [10, 20, 40, 80]
        values = [s ** 2 for s in sizes]
        assert abs(loglog_slope(sizes, values) - 2.0) < 1e-9

    def test_loglog_slope_requires_two_points(self):
        with pytest.raises(ValueError):
            loglog_slope([10], [1])

    def test_paper_round_bound_growth(self):
        assert paper_round_bound(20, 40) > paper_round_bound(10, 20)
        assert paper_round_bound(1, 1) == 0.0

    def test_record_as_dict(self):
        d = self._record(5, 7).as_dict()
        assert d["n"] == 5 and d["rounds"] == 7


class TestMemoryAnalysis:
    def test_bounds_monotone(self):
        assert state_bound_bits(100, 5) > state_bound_bits(10, 5)
        assert state_bound_bits(10, 8) > state_bound_bits(10, 2)
        assert message_bound_bits(100) > message_bound_bits(10)
        assert log_n_bits(1024) >= 11

    def test_memory_report_on_mdst_network(self, small_dense):
        net = get_protocol("mdst").build_network(small_dense, ProtocolRunConfig())
        rep = memory_report(net)
        assert rep.nodes == small_dense.number_of_nodes()
        assert rep.max_state_bits > 0
        assert rep.state_within_bound
        d = rep.as_dict()
        assert d["state_within_bound"] is True


class TestTablesAndReports:
    ROWS = [{"family": "wheel", "n": 8, "degree": 2, "ok": True},
            {"family": "grid", "n": 9, "degree": 3, "ok": False}]

    def test_format_table_alignment(self):
        text = format_table(self.ROWS, title="demo")
        assert "demo" in text
        assert "wheel" in text and "grid" in text
        assert len(text.splitlines()) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_format_csv(self):
        csv_text = format_csv(self.ROWS)
        assert csv_text.splitlines()[0] == "family,n,degree,ok"
        assert len(csv_text.strip().splitlines()) == 3

    def test_render_rows_switch(self):
        assert "," in render_rows(self.ROWS, csv_output=True)
        assert "|" in render_rows(self.ROWS, csv_output=False)

    def test_experiment_report_round_trip(self, tmp_path):
        report = ExperimentReport("E0", "unit-test report")
        report.extend(self.ROWS)
        report.add_row(family="torus", n=9, degree=3, ok=True)
        path = report.save(tmp_path / "e0.json")
        loaded = ExperimentReport.load(path)
        assert loaded.experiment == "E0"
        assert len(loaded.rows) == 3

    def test_experiment_report_grouping_and_aggregation(self):
        report = ExperimentReport("E0")
        report.extend(self.ROWS)
        groups = report.group_by("family")
        assert set(groups) == {"wheel", "grid"}
        means = report.aggregate("family", "degree")
        assert means["wheel"] == 2
        assert report.column("n") == [8, 9]

    def test_experiment_report_to_json(self):
        report = ExperimentReport("E0", metadata={"profile": "quick"})
        report.add_row(a=1)
        data = json.loads(report.to_json())
        assert data["metadata"]["profile"] == "quick"
